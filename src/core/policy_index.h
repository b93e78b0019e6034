// Priority-bucketed posting-list index over policy rules — and the rule
// store itself, as one copy-on-write structure shared between the live
// Policy Manager and every published PolicySnapshot.
//
// The Policy Manager must return the highest-PDP-priority rule matching an
// enriched flow, resolving equal-priority Allow/Deny conflicts toward Deny
// (paper Section III-B). The reference implementation scans every stored
// rule per query — O(n) on the Packet-in hot path. This index buckets
// rules by PDP priority (kept in descending order) and, within a bucket,
// files each rule under exactly ONE concrete "pivot" field — the first
// concrete one of src/dst IP, MAC, user, host, DPID in that order. Rules
// with none of those fields concrete (wildcard-only rules, or rules
// constrained solely by ports / flow properties) live on the bucket's
// wildcard list.
//
// Compact entity plane (DESIGN.md §8): the posting maps are keyed on raw
// integer values — IPs as u32, MACs/DPIDs as u64, user/host names as ids
// from index-local interners — so every probe hashes a machine word. A
// queried name that was never named by any rule maps to no id and is
// skipped without touching a bucket.
//
// Query: walk buckets from the highest priority down. A bucket's candidate
// set is its wildcard list plus, for each pivot field, the posting list
// keyed by the flow's observed value for that field (enriched user/host
// fields contribute one probe per bound identifier). Skipping rules whose
// pivot value is absent from the flow is exact, not heuristic: a concrete
// spec field only matches when the observed value is present and equal
// (core/policy.cc, field_matches), so such rules cannot match the flow.
// Because each rule lives in exactly one posting list, no candidate is
// visited twice and the Deny-wins tie-break inspects every equal-priority
// match exactly as the linear scan does. The first bucket containing any
// match decides (early exit).
//
// The same structure serves the insert-time consistency sweep (Section
// III-B): overlap candidates for a new rule are, per strictly-lower
// priority bucket, the wildcard list plus — for each pivot field — either
// one posting list (the new rule names that field concretely; overlap
// requires equality) or the field's entire map (the new rule wildcards the
// field, which overlaps every value).
//
// Copy-on-write publication (common/cow_table.h): the root (bucket list
// plus the id -> rule map), each bucket, each trie node of the posting and
// id maps, and each wildcard list carry a generation tag. publish() bumps
// the generation and returns an O(1) copy that shares every node; the next
// insert or remove path-copies only the nodes on its path — the root, one
// bucket, the trie nodes down to one posting list (which lives inline in
// its node) or the wildcard list, and the id map's path — whatever the
// rule count or the size of the bucket written.
// Between publications (a population load) every write mutates in place.
// Each rule is stored once, behind a shared_ptr held by the id map of
// every version naming it; posting lists point at it directly, so a
// revoked rule is freed when the last snapshot holding it drops.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/cow_table.h"
#include "common/intern.h"
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
  std::uint64_t buckets_visited = 0;      // priority buckets walked by queries
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

  // Highest-priority rule matching `flow`, Deny winning equal-priority
  // conflicts; nullptr when nothing matches (default deny). Counts its
  // work into `stats` when given one.
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
  // counts buckets, trie nodes and wildcard lists, root_copies the root.
  const CowTableStats& cow_stats() const { return cow_stats_; }

 private:
  PolicyRuleIndex(const PolicyRuleIndex&) = default;  // publish() only

  // Rules filed under one (bucket, pivot field, value), in insertion order:
  // inserts append, removes erase in place. Most values name one rule,
  // which is held inline; only longer lists allocate. Posting-map lists
  // live inline in their trie node, which is the unit of copy; the wildcard
  // list, which can hold a large share of its bucket, is a node of its own.
  struct RuleList {
    const StoredPolicyRule* first = nullptr;  // null iff the list is empty
    std::vector<const StoredPolicyRule*> rest;

    bool empty() const { return first == nullptr; }
    void push_back(const StoredPolicyRule* rule) {
      if (first == nullptr) {
        first = rule;
      } else {
        rest.push_back(rule);
      }
    }
    void erase(const StoredPolicyRule* rule) {
      if (rule != first) {
        rest.erase(std::find(rest.begin(), rest.end(), rule));
      } else if (rest.empty()) {
        first = nullptr;
      } else {
        first = rest.front();
        rest.erase(rest.begin());
      }
    }
    template <typename Fn>
    void for_each(Fn&& fn) const {
      if (first == nullptr) return;
      fn(first);
      for (const StoredPolicyRule* rule : rest) fn(rule);
    }
  };
  using PostingMap = CowHashMap<RuleList>;
  struct WildcardList {
    std::uint64_t tag = 0;
    RuleList rules;
  };

  struct Bucket {
    std::uint64_t tag = 0;
    PostingMap src_ip, dst_ip;      // IP value
    PostingMap src_mac, dst_mac;    // MAC u48
    PostingMap src_user, dst_user;  // user id
    PostingMap src_host, dst_host;  // host id
    PostingMap src_dpid, dst_dpid;
    std::shared_ptr<WildcardList> wildcard;
    std::size_t size = 0;
  };

  struct Root {
    std::uint64_t tag = 0;
    // Descending PDP priority: queries early-exit on the first bucket
    // containing a match.
    std::vector<std::pair<std::uint32_t, std::shared_ptr<Bucket>>> buckets;
    CowRadixMap<std::shared_ptr<const StoredPolicyRule>> rules;  // by id
  };

  // Index-local name namespaces for user/host pivots, shared by every
  // version. Append-only: a removed rule's names stay interned (bounded by
  // distinct names ever seen, which the 100k-rule plane is sized for).
  struct Names {
    StringInterner users;
    StringInterner hosts;
  };

  // Where `rule` is filed within a bucket: a posting map and key, or the
  // wildcard list when `map` is null. Pivot selection is a pure function
  // of the rule, so insert and remove agree. Interns any pivot name.
  struct Pivot {
    PostingMap Bucket::*map = nullptr;
    std::uint64_t key = 0;
  };
  Pivot pivot_of(const PolicyRule& rule);
  // Writer only: the list `pivot` names in `bucket`, path-copied (and
  // created empty if absent).
  RuleList& writable_list(Bucket& bucket, const Pivot& pivot);
  std::uint64_t intern_name(StringInterner& names, StringInterner::Reader& reader,
                            const std::string& name);

  std::shared_ptr<policy_detail::RuleSlab> slab_;
  std::shared_ptr<Root> root_;
  std::shared_ptr<Names> names_;
  // Lookup captures of names_, refreshed on every intern: what queries —
  // live or on a published copy — resolve flow names through.
  StringInterner::Reader users_;
  StringInterner::Reader hosts_;
  std::uint64_t generation_ = 0;
  CowTableStats cow_stats_;
};

}  // namespace dfi
