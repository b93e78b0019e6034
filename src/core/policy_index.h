// Tuple-space policy classifier — and the rule store itself, as one
// copy-on-write structure shared between the live Policy Manager and every
// published PolicySnapshot.
//
// The Policy Manager must return the highest-PDP-priority rule matching an
// enriched flow, resolving equal-priority Allow/Deny conflicts toward Deny
// (paper Section III-B). The reference implementation scans every stored
// rule per query — O(n) on the Packet-in hot path. This index is tuple
// space search, as the Open vSwitch classifier does it (Srinivasan et al.,
// SIGCOMM '99; Pfaff et al., NSDI '15): rules are grouped by their mask,
// the set of fields they name concretely (EtherType, IP protocol, and on
// each side user, host, IP, L4 port, MAC, switch port and DPID), and each
// group is one subtable, a hash map keyed by the rule's values on its mask.
// A query costs one probe per distinct rule shape, whatever the rule count.
//
// Rank: rules are ordered by priority (descending), then Deny before Allow,
// then ascending rule id — exactly the linear scan's choice. An entry holds
// its rules in rank order, and best_match returns the best-ranked matching
// rule of all subtables, so the answer does not depend on the layout.
//
// Keys: every field is a 64-bit value — an address, port or property as its
// integer, a user or host name as a hash of its bytes, so a query reads no
// table to key a name. Sixteen fields do not pack into one word, so a
// subtable's key is a 64-bit hash of the masked values. Unequal values can
// share a hash, so every candidate is still tested with
// PolicyRule::matches, and the sweep still re-checks with
// PolicyRule::overlaps.
//
// Query: compute the flow's values once, then skip every subtable whose
// mask names a field the flow lacks — no IP, no L4 port, no bound user.
// That skip is exact: a concrete field only matches an observed, equal
// value (core/policy.cc, field_matches). A multi-valued enriched field (the
// users or hosts bound to an endpoint) is probed once per bound name, and a
// subtable naming several takes the product — unless the product exceeds
// the subtable's entry count, when visiting its entries is cheaper.
// Subtables are kept by descending highest priority, and the walk stops at
// the first whose highest priority is below the best match found. An equal
// one is still probed: Deny-wins and lowest-id need it.
//
// The insert-time consistency sweep (Section III-B) uses the same
// subtables. It skips every subtable whose lowest priority is not below the
// new rule's, so a highest-priority-first load sweeps nothing. Otherwise it
// probes the one key when the new rule names every field of the subtable's
// mask (an overlapping rule must then agree on all of them) and visits the
// subtable's entries when it does not.
//
// Copy-on-write publication (common/cow_table.h): the root (subtable list
// plus the id -> rule map), each subtable, and each trie node of the
// subtables' and id maps carry a generation tag. publish() bumps the
// generation and returns an O(1) copy that shares every node; the next
// insert or remove path-copies only the nodes on its path — the root, one
// subtable, that subtable's trie nodes down to one entry (which lives
// inline in its node), and the id map's path — whatever the rule count or
// the size of the subtable written. Between publications (a population
// load) every write mutates in place. Each rule is stored once, behind a
// shared_ptr held by the id map of every version naming it; entries point
// at it directly, so a revoked rule is freed when the last snapshot holding
// it drops.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/cow_table.h"
#include "common/types.h"
#include "core/policy.h"

namespace dfi {

namespace policy_detail {
class RuleSlab;  // rule storage (core/policy_index.cc)
}  // namespace policy_detail

// A rule as stored by the Policy Manager. Immutable once indexed: the index
// owns it through shared_ptr<const StoredPolicyRule>.
struct StoredPolicyRule {
  PolicyRuleId id{};
  PolicyRule rule;
  PdpPriority priority{};
  std::string pdp_name;
};

// Query-work counters. Kept by the caller (the live Policy Manager), not by
// the shared index, so threads querying a snapshot write nothing.
struct PolicyIndexStats {
  std::uint64_t subtables_probed = 0;     // rule shapes a query looked up
  std::uint64_t match_candidates = 0;     // rules tested with matches()
  std::uint64_t overlap_candidates = 0;   // rules tested by the insert sweep
};

class PolicyRuleIndex {
 public:
  PolicyRuleIndex();
  PolicyRuleIndex(PolicyRuleIndex&&) noexcept = default;

  // Writer only: store and index `stored`, whose id must not be present.
  void insert(StoredPolicyRule stored);
  // Writer only: unindex and drop rule `id`; false (and no copy) if absent.
  bool remove(PolicyRuleId id);

  // Writer only: mark every node as shared and return an O(1) frozen copy
  // for a snapshot. The copy answers every read exactly as this index does
  // now, from any thread, however the writer mutates this index later.
  PolicyRuleIndex publish();

  const StoredPolicyRule* find(PolicyRuleId id) const;

  // fn(const StoredPolicyRule&) for every stored rule, ascending id.
  template <typename Fn>
  void for_each_rule(Fn&& fn) const {
    root_->rules.for_each(
        [&fn](const std::shared_ptr<const StoredPolicyRule>& stored) { fn(*stored); });
  }

  // Best-ranked rule matching `flow` (highest priority, Deny winning
  // equal-priority conflicts, then lowest id); nullptr when nothing matches
  // (default deny). Allocates nothing. Counts its work into `stats` when
  // given one.
  const StoredPolicyRule* best_match(const FlowView& flow,
                                     PolicyIndexStats* stats = nullptr) const;

  // Invoke `fn` on every indexed rule with priority strictly below `below`
  // that could field-wise overlap `rule`. The candidate set is a superset
  // of the truly overlapping rules; callers re-check with
  // PolicyRule::overlaps. Each rule is visited at most once.
  void for_each_overlap_candidate(
      const PolicyRule& rule, PdpPriority below, PolicyIndexStats& stats,
      const std::function<void(const StoredPolicyRule&)>& fn) const;

  std::size_t size() const { return root_->rules.size(); }

  // Nodes cloned because a published snapshot shared them: page_copies
  // counts subtables and trie nodes, root_copies the root.
  const CowTableStats& cow_stats() const { return cow_stats_; }

 private:
  PolicyRuleIndex(const PolicyRuleIndex&) = default;  // publish() only

  // The rules whose masked values hash to one key, in rank order. Most keys
  // name one rule, which is held inline; only longer entries allocate. An
  // entry lives inline in its trie node, which is the unit of copy.
  struct Entry {
    const StoredPolicyRule* first = nullptr;  // null iff the entry is empty
    std::vector<const StoredPolicyRule*> rest;

    bool empty() const { return first == nullptr; }
    void insert(const StoredPolicyRule* rule);  // at its rank
    void erase(const StoredPolicyRule* rule);
    // fn(rule) in rank order while it returns true.
    template <typename Fn>
    void for_each(Fn&& fn) const {
      if (first == nullptr || !fn(first)) return;
      for (const StoredPolicyRule* rule : rest) {
        if (!fn(rule)) return;
      }
    }
  };

  // The rules of one mask.
  struct Subtable {
    std::uint64_t tag = 0;
    std::uint32_t mask = 0;
    CowHashMap<Entry> entries;  // by masked key
    std::size_t keys = 0;       // entries in the map
    // (priority, rules at it) for every priority held, descending, so the
    // highest and lowest stay exact after a remove.
    std::vector<std::pair<std::uint32_t, std::uint32_t>> priorities;

    std::uint32_t max_priority() const { return priorities.front().first; }
    std::uint32_t min_priority() const { return priorities.back().first; }
  };

  struct Root {
    std::uint64_t tag = 0;
    // Descending highest priority, then ascending mask: a query stops at
    // the first subtable that cannot outrank its best match.
    std::vector<std::shared_ptr<Subtable>> subtables;
    CowRadixMap<std::shared_ptr<const StoredPolicyRule>> rules;  // by id
  };

  std::shared_ptr<policy_detail::RuleSlab> slab_;
  std::shared_ptr<Root> root_;
  std::uint64_t generation_ = 0;
  CowTableStats cow_stats_;
};

}  // namespace dfi
