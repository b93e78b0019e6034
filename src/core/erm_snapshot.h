// Immutable snapshot of the Entity Resolution Manager's identity bindings.
//
// The PCP decision path must be a pure function of frozen state (DESIGN.md
// §5): enrichment and spoof validation run against an `ErmSnapshot`, never
// against the live ERM maps, so N PCP shards — simulated stations or real
// threads — can decide concurrently while sensors keep mutating the live
// manager on the control thread.
//
// Compact entity plane (DESIGN.md §8): the binding tables are keyed on
// dense interned `EntityId`s (common/intern.h), not heap strings. Each
// table is a copy-on-write radix tree (CowRadixMap, common/cow_table.h)
// whose posting lists hold packed 32-bit ids sorted in the *presentation*
// order of the entities they name (lexicographic for users/hosts, numeric
// for IPs), so enrichment output is byte-identical to the old ordered-set
// layout without sorting on the hot path. The six tables share one
// generation counter, as the policy index's maps do: publishing a snapshot
// bumps it and copies six root pointers — O(1) — and the next mutation
// path-copies only the 32-slot nodes above the slot it writes, one per
// tree level: one binding event at a million bindings costs about the same
// as one at ten thousand.
//
// The snapshot covers the *identity* bindings (user<->host, host<->IP,
// IP<->MAC). The MAC<->(switch,port) location binding is deliberately NOT
// part of it: the PCP's own location sensor asserts the observed location
// of every packet's source before deciding, which makes the source-side
// location check a tautology for unicast MACs (see decide_on_snapshots in
// core/pcp_decide.h). The one packet-visible location fact — the prior
// port of the source MAC — travels with the decision request as a scalar.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/cow_table.h"
#include "common/intern.h"
#include "core/policy.h"

namespace dfi {

// Result of spoof validation (also returned by the live ERM).
struct SpoofCheck {
  bool spoofed = false;
  std::string reason;
};

// One immutable, packed posting list of entity ids, never empty. Table
// slots hold shared pointers to these; mutation replaces the pointer with a
// freshly built list, so published snapshots keep reading the old one.
using PostingListPtr = std::shared_ptr<const std::vector<EntityId>>;

// The posting list under `id` in `table`, or nullptr when there is none
// (an invalid id included).
inline const std::vector<EntityId>* list_of(const CowRadixMap<PostingListPtr>& table,
                                            EntityId id) {
  if (!id.valid()) return nullptr;
  const PostingListPtr* list = table.find(id.value);
  return list == nullptr ? nullptr : list->get();
}

// The identity-binding tables, shared structurally between the live ERM
// (which path-copies on mutation) and published snapshots (frozen). Pure
// queries live here so live and snapshot paths cannot drift apart. Each
// table is keyed by the id of the entity it maps from; an absent key has no
// binding (an empty list or an unbound IP is never stored).
struct ErmIdentityTables {
  ErmIdentityTables()
      : interner(std::make_shared<EntityInterner>()),
        ip_lookup(interner->ips().reader()) {}

  // Append-only id<->name store, shared by every version of the tables.
  std::shared_ptr<EntityInterner> interner;
  // IP value -> id capture for reader-side lookups (refreshed by the ERM
  // on every mutation / publication; see common/intern.h concurrency
  // contract).
  ValueInterner::Reader ip_lookup;

  // user id -> host ids, sorted by hostname.
  CowRadixMap<PostingListPtr> user_to_hosts;
  // host id -> user ids, sorted by username.
  CowRadixMap<PostingListPtr> host_to_users;
  // host id -> ip ids, sorted by address value.
  CowRadixMap<PostingListPtr> host_to_ips;
  // ip id -> host ids, sorted by hostname.
  CowRadixMap<PostingListPtr> ip_to_hosts;
  // ip id -> MAC (DHCP: one MAC per IP), packed as to_u64()+1 so that an
  // unbound IP (0) is an empty slot.
  CowRadixMap<std::uint64_t> ip_to_mac;
  // mac id -> ip ids, sorted by address value.
  CowRadixMap<PostingListPtr> mac_to_ips;

  // Enrich the low-level identifiers of one endpoint: the input plus all
  // hostnames bound to the IP and all usernames bound to those hostnames,
  // deduplicated. Pure — no counters, no side effects.
  EndpointView enrich(EndpointView view) const;

  // IP<->MAC spoof validation: a packet claiming an IP that DHCP bound to
  // a different MAC is spoofed. Missing bindings are not spoofing.
  SpoofCheck validate_identity(const std::optional<MacAddress>& mac,
                               const std::optional<Ipv4Address>& ip) const;

  // Writer only: store `value` under `id` in `table`, one of the six
  // above, path-copying what a published snapshot shares; an empty value
  // erases the id.
  template <typename V>
  void write(CowRadixMap<V>& table, EntityId id, V value) {
    if (value) {
      table.assign(id.value, std::move(value), generation_, cow_stats_);
    } else {
      table.erase(id.value, generation_, cow_stats_);
    }
  }

  // Writer only: mark every node as shared and return an O(1) frozen copy
  // for a snapshot. The next write clones the nodes on its path.
  std::shared_ptr<const ErmIdentityTables> publish() {
    ++generation_;
    return std::make_shared<const ErmIdentityTables>(*this);
  }

  // Tree nodes writes cloned because a published snapshot shared them.
  const CowTableStats& cow_stats() const { return cow_stats_; }

 private:
  std::uint64_t generation_ = 0;
  CowTableStats cow_stats_;
};

// One immutable, epoch-stamped view of the identity bindings. Cheap to
// copy (a shared_ptr plus the epoch); safe to read from any thread.
class ErmSnapshot {
 public:
  ErmSnapshot() : tables_(std::make_shared<const ErmIdentityTables>()) {}
  ErmSnapshot(std::shared_ptr<const ErmIdentityTables> tables, std::uint64_t epoch)
      : tables_(std::move(tables)), epoch_(epoch) {}

  EndpointView enrich(EndpointView view) const { return tables_->enrich(std::move(view)); }
  SpoofCheck validate_identity(const std::optional<MacAddress>& mac,
                               const std::optional<Ipv4Address>& ip) const {
    return tables_->validate_identity(mac, ip);
  }

  // The ERM epoch in force when this snapshot was taken; decision-cache
  // entries derived from it are stamped with this value.
  std::uint64_t epoch() const { return epoch_; }

  const ErmIdentityTables& tables() const { return *tables_; }

 private:
  std::shared_ptr<const ErmIdentityTables> tables_;
  std::uint64_t epoch_ = 0;
};

}  // namespace dfi
