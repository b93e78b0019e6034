// Epoch-invalidated Packet-in decision cache (PCP hot path).
//
// Key: the canonical low-level flow tuple the PCP observes on a Packet-in
// (ingress DPID + port, MACs, EtherType, IPs, ip_proto, L4 ports). Value:
// the decision previously computed for that tuple — the verdict, the
// deciding policy and the compiled Table-0 flow rule, but not the enriched
// FlowView it was derived from (the PCP stores the decision before the view
// joins it, so a hit copies no name vectors) — stamped with the policy
// epoch and binding epoch in force when it was derived.
//
// Late binding (paper Section III-B) means a decision is valid only for
// the exact policy database and identifier-binding state it was derived
// from: the same packet from the same port must be re-decided the moment
// alice logs off, a DHCP lease moves, or a PDP inserts/revokes a rule.
// Rather than tracking which rules and bindings each decision read, the
// cache is guarded by two global version counters: the Policy Manager
// bumps its epoch on every insert/revoke, and the Entity Resolution
// Manager bumps its epoch on every binding change that could alter an
// enrichment or spoof-validation result. A lookup whose stamps do not both
// match the current epochs is discarded and the PCP re-runs the full
// validate/enrich/query pipeline — the same conservative rule the paper's
// cookie-flush consistency applies to switch-resident state, applied to
// controller-resident state. Any stale epoch forces a full re-decision, so
// a hit can never return an answer the current policy+bindings would not.
//
// The cache is bounded: when full, the whole map is dropped (bulk
// eviction) instead of maintaining per-entry LRU bookkeeping on the hot
// path; entries repopulate at one full decision per flow, exactly the cost
// the cache was absorbing.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "common/types.h"
#include "net/packet.h"

namespace dfi {

// Canonical flow tuple. Absent layers are zeroed and guarded by presence
// flags so an ARP packet cannot alias an IPv4 flow with zero addresses.
struct FlowKey {
  std::uint64_t dpid = 0;
  std::uint32_t in_port = 0;
  std::uint64_t src_mac = 0;
  std::uint64_t dst_mac = 0;
  std::uint16_t ether_type = 0;
  bool has_ipv4 = false;
  std::uint32_t src_ip = 0;
  std::uint32_t dst_ip = 0;
  std::uint8_t ip_proto = 0;
  bool has_l4 = false;
  std::uint16_t src_l4 = 0;
  std::uint16_t dst_l4 = 0;

  static FlowKey from_packet(Dpid dpid, PortNo in_port, const Packet& packet);

  friend bool operator==(const FlowKey&, const FlowKey&) = default;
};

struct FlowKeyHash {
  std::size_t operator()(const FlowKey& key) const noexcept;
};

struct DecisionCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;          // key absent
  std::uint64_t stale_policy = 0;    // policy epoch moved since stored
  std::uint64_t stale_binding = 0;   // binding epoch moved since stored
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;       // entries dropped by bulk eviction

  std::uint64_t lookups() const {
    return hits + misses + stale_policy + stale_binding;
  }
  double hit_rate() const {
    const std::uint64_t total = lookups();
    return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
  }
};

template <typename Decision>
class DecisionCache {
 public:
  explicit DecisionCache(std::size_t capacity) : capacity_(capacity) {}

  bool enabled() const { return capacity_ > 0; }

  // The cached decision for `key` iff it was derived under exactly the
  // current epochs; nullptr (and a recorded miss/stale) otherwise. Stale
  // entries are erased eagerly so the map holds live decisions only.
  const Decision* lookup(const FlowKey& key, std::uint64_t policy_epoch,
                         std::uint64_t binding_epoch) {
    if (!enabled()) return nullptr;
    const auto it = entries_.find(key);
    if (it == entries_.end()) {
      ++stats_.misses;
      return nullptr;
    }
    if (it->second.policy_epoch != policy_epoch) {
      ++stats_.stale_policy;
      entries_.erase(it);
      return nullptr;
    }
    if (it->second.binding_epoch != binding_epoch) {
      ++stats_.stale_binding;
      entries_.erase(it);
      return nullptr;
    }
    ++stats_.hits;
    return &it->second.decision;
  }

  void store(const FlowKey& key, Decision decision, std::uint64_t policy_epoch,
             std::uint64_t binding_epoch) {
    if (!enabled()) return;
    if (entries_.size() >= capacity_ && !entries_.contains(key)) {
      stats_.evictions += entries_.size();
      entries_.clear();
    }
    ++stats_.insertions;
    entries_[key] = Entry{std::move(decision), policy_epoch, binding_epoch};
  }

  void clear() {
    stats_.evictions += entries_.size();
    entries_.clear();
  }

  std::size_t size() const { return entries_.size(); }
  std::size_t capacity() const { return capacity_; }
  const DecisionCacheStats& stats() const { return stats_; }

 private:
  struct Entry {
    Decision decision;
    std::uint64_t policy_epoch = 0;
    std::uint64_t binding_epoch = 0;
  };

  std::size_t capacity_;
  std::unordered_map<FlowKey, Entry, FlowKeyHash> entries_;
  DecisionCacheStats stats_;
};

}  // namespace dfi
