// Immutable snapshot of the Policy Manager's rule database.
//
// The PCP decision path queries policy through a frozen PolicySnapshot
// instead of the Policy Manager's live index (DESIGN.md §5). The snapshot
// holds a published copy of the manager's own copy-on-write rule store and
// index (core/policy_index.h): taking it is O(1), it shares every rule and
// node with the live manager, and the manager's later writes path-copy
// whatever they touch instead of mutating shared nodes. A snapshot is
// therefore safe to query from any number of PCP shards concurrently while
// PDPs keep inserting and revoking rules against the live manager on the
// control thread.
//
// Query equivalence: the snapshot *is* the live index at its epoch, frozen
// — same buckets, same posting-list order, same Deny-wins walk — so
// query() here returns bit-identical decisions to PolicyManager::query()
// at the epoch the snapshot was taken, including the choice among
// equally-ranked same-action rules.
#pragma once

#include <cstdint>
#include <utility>

#include "common/types.h"
#include "core/policy.h"
#include "core/policy_index.h"

namespace dfi {

// Cookie value reserved for flow rules the PCP installs for the default
// Deny decision (no matching policy rule). PolicyRuleIds start above it.
inline constexpr Cookie kDefaultDenyCookie{1};

// Outcome of a policy query for one flow.
struct PolicyDecision {
  PolicyAction action = PolicyAction::kDeny;
  // Id of the deciding rule; kDefaultDenyCookie.value when no rule matched
  // (default deny).
  PolicyRuleId rule_id{kDefaultDenyCookie.value};
  bool default_deny = false;
};

// The decision `best` (nullptr: no rule matched) stands for.
PolicyDecision decision_of(const StoredPolicyRule* best);

class PolicySnapshot {
 public:
  // Wrap `frozen` (a PolicyRuleIndex::publish() copy) taken at `epoch`.
  PolicySnapshot(PolicyRuleIndex frozen, std::uint64_t epoch)
      : index_(std::move(frozen)), epoch_(epoch) {}

  // Highest-priority rule matching the flow; PDP priority orders rules,
  // equal-priority Allow/Deny conflicts resolve to Deny, no match is the
  // default deny. Pure: touches no mutable state.
  PolicyDecision query(const FlowView& flow) const {
    return decision_of(index_.best_match(flow));
  }

  const StoredPolicyRule* find(PolicyRuleId id) const { return index_.find(id); }

  // fn(const StoredPolicyRule&) for every frozen rule, ascending id.
  template <typename Fn>
  void for_each_rule(Fn&& fn) const {
    index_.for_each_rule(std::forward<Fn>(fn));
  }

  std::size_t size() const { return index_.size(); }

  // The Policy Manager epoch in force when this snapshot was taken;
  // decision-cache entries derived from it are stamped with this value.
  std::uint64_t epoch() const { return epoch_; }

 private:
  PolicyRuleIndex index_;
  std::uint64_t epoch_ = 0;
};

}  // namespace dfi
