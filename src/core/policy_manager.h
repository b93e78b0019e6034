// Policy Manager (paper Section III-B).
//
// Receives policy rules and revocations from PDPs, performs the consistency
// checks that keep switch-cached flow rules in sync with the policy
// database, stores the current global policy, and answers match queries
// from the Policy Compilation Point.
//
// Consistency (Section III-B): when a rule is inserted, every existing rule
// that (1) overlaps it field-wise, (2) has the opposite action, and (3) has
// *lower* priority may have derived now-stale flow rules in switches; the
// Policy Manager publishes flush directives for those rules (the rules stay
// in the database — only their cached derivations are flushed, forcing
// re-evaluation of ongoing flows). Explicit revocation flushes the revoked
// rule's derivations. Inserting an Allow rule additionally flushes
// default-deny derivations, since flows previously denied by default may
// now be allowed.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bus/message_bus.h"
#include "common/snapshot.h"
#include "common/types.h"
#include "core/policy.h"
#include "core/policy_index.h"
#include "core/policy_snapshot.h"
#include "services/events.h"

namespace dfi {

class Journal;

// kDefaultDenyCookie and PolicyDecision live in core/policy_snapshot.h (the
// snapshot is the layer below the manager and both share them).

// Directive to the PCP: flush all switch flow rules derived from `policy`.
struct FlushDirective {
  PolicyRuleId policy{};
};

struct PolicyManagerStats {
  std::uint64_t inserts = 0;
  std::uint64_t revocations = 0;
  std::uint64_t queries = 0;
  std::uint64_t linear_queries = 0;  // reference-scan queries (tests/bench)
  std::uint64_t conflict_flushes = 0;
  std::uint64_t snapshot_rebuilds = 0;
};

class PolicyManager {
 public:
  explicit PolicyManager(MessageBus& bus);

  // Insert a rule on behalf of a PDP; returns the unique id the PDP must
  // use to revoke it later. Triggers consistency flushes as described above.
  PolicyRuleId insert(PolicyRule rule, PdpPriority priority, std::string pdp_name);

  // Revoke a previously inserted rule. Returns false if unknown.
  bool revoke(PolicyRuleId id);

  // Highest-priority rule matching the flow. PDP priority orders rules; on
  // a same-priority Allow/Deny conflict the Deny wins ("err on the side of
  // stopping unauthorized flows"), and among equally ranked same-action
  // rules the lowest id. No match -> default deny. Served from the
  // tuple-space classifier (core/policy_index.h): one probe per rule shape,
  // not O(n).
  PolicyDecision query(const FlowView& flow) const;

  // Reference implementation of query(): the original full linear scan.
  // Retained as the differential-test oracle and the scan baseline for
  // bench_micro_policy_index; picks exactly the rule query() picks.
  PolicyDecision query_linear(const FlowView& flow) const;

  std::optional<StoredPolicyRule> find(PolicyRuleId id) const;
  std::vector<StoredPolicyRule> rules() const;  // ascending id
  std::size_t size() const { return index_.size(); }
  const PolicyManagerStats& stats() const { return stats_; }
  const PolicyIndexStats& index_stats() const { return index_stats_; }
  // Copy-on-write cost of publication: nodes the writes cloned because a
  // snapshot shared them (core/policy_index.h).
  const CowTableStats& cow_stats() const { return index_.cow_stats(); }

  // Monotonic version of the policy database, bumped on every successful
  // insert/revoke. Decision caches (core/decision_cache.h) stamp entries
  // with this epoch; a mismatch forces a full re-decision.
  std::uint64_t epoch() const { return epoch_; }

  // Immutable, epoch-stamped snapshot of the rule database for the PCP
  // decision path (DESIGN.md §5). Published lazily — at most once per
  // insert/revoke, no matter how many decisions run in between; repeated
  // calls at the same epoch share one frozen object. Publishing is O(1):
  // the snapshot shares the live copy-on-write index, and the next write
  // path-copies only the nodes it touches.
  std::shared_ptr<const PolicySnapshot> snapshot_view() const;

  // ------------------------------------------------- durability (WAL)
  // Attach a write-ahead log (core/journal.h): every subsequent
  // insert/revoke appends its record — and becomes durable — before any
  // effect (conflict flushes included) escapes. Pass nullptr to detach.
  void attach_journal(Journal* journal) { journal_ = journal; }

  // Recovery hooks, used only by Journal::recover. They rebuild state
  // *as recorded*: restore_rule keeps the stored id (and advances next_id_
  // past it), restore_revoke removes without publishing a flush (switches
  // are resynced wholesale after recovery), and neither bumps the epoch —
  // the journal replays the recorded epoch via advance_epoch_to so the
  // counter lands exactly where the pre-crash process left it.
  void restore_rule(StoredPolicyRule stored);
  bool restore_revoke(PolicyRuleId id);
  void restore_next_id(std::uint64_t next_id);
  void advance_epoch_to(std::uint64_t epoch);

  // The id the next insert will assign (journal snapshot header).
  std::uint64_t next_id() const { return next_id_; }

 private:
  void publish_flush(PolicyRuleId id);

  MessageBus& bus_;
  // The rule store and its index, one copy-on-write structure. `mutable`
  // because publication-from-const (snapshot_view) must mark its nodes
  // shared.
  mutable PolicyRuleIndex index_;
  std::uint64_t next_id_ = kDefaultDenyCookie.value + 1;
  std::uint64_t epoch_ = 0;
  Journal* journal_ = nullptr;
  mutable SnapshotCache<PolicySnapshot> snapshot_cache_;
  mutable PolicyManagerStats stats_;
  mutable PolicyIndexStats index_stats_;
};

}  // namespace dfi
