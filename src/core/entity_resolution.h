// Entity Resolution Manager (paper Section III-B).
//
// Maintains the current many-to-many identifier bindings
//   username <-> hostname <-> IP <-> MAC <-> (switch, port)
// fed by authoritative sensors over the `erm.bindings` bus topic, and
// answers enrichment queries from the PCP at access-control decision time
// (low-level identifiers observed in the packet are mapped *up*; policies
// are never compiled down at insert time).
//
// It also performs spoof validation: identifiers present in a packet must
// agree with the authoritative bindings (e.g. a source IP bound by DHCP to
// a different MAC marks the packet spoofed, and the PCP denies it).
//
// Compact entity plane (DESIGN.md §8): every user/host/IP/MAC named in a
// binding is interned once into a per-kind namespace (common/intern.h) and
// the identity tables are copy-on-write radix trees keyed by the resulting
// dense 32-bit ids (core/erm_snapshot.h). Strings exist only at
// the boundaries — sensor events in, enrichment output and persistence
// text out — so memory per binding and decision latency stay flat as the
// entity population grows.
//
// Snapshot isolation (DESIGN.md §5): the manager publishes immutable,
// epoch-stamped ErmSnapshot views on demand. The PCP decision path reads
// only snapshots; the live tables are mutated exclusively on the control
// thread. Publication is O(1) — a generation bump and a root-pointer copy —
// and the next mutation after a publication path-copies only the tree
// nodes above the slots it writes, so the per-event publication cost is
// O(changed), not O(total bindings).
#pragma once

#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bus/message_bus.h"
#include "common/snapshot.h"
#include "core/erm_snapshot.h"
#include "core/policy.h"
#include "services/events.h"

namespace dfi {

class Journal;

struct ErmStats {
  std::uint64_t binding_updates = 0;
  std::uint64_t queries = 0;
  std::uint64_t spoof_rejections = 0;
  std::uint64_t snapshot_rebuilds = 0;
};

class EntityResolutionManager {
 public:
  explicit EntityResolutionManager(MessageBus& bus);

  // Apply one binding assertion/retraction (also invoked via the bus).
  void apply(const BindingEvent& event);

  // Enrich the low-level identifiers of one endpoint: returns the input
  // plus all hostnames bound to the IP and all usernames bound to those
  // hostnames (deduplicated — a user logged on to a host reachable via
  // several hostname bindings appears once). `view.dpid`/`switch_port`
  // pass through untouched.
  EndpointView enrich(EndpointView view) const;

  // Validate that packet-observed identifiers agree with authoritative
  // bindings. Missing bindings are not spoofing (the host may simply be
  // unknown — it will match no identity-based policy); a *conflicting*
  // binding is.
  SpoofCheck validate(const std::optional<MacAddress>& mac,
                      const std::optional<Ipv4Address>& ip,
                      const std::optional<Dpid>& dpid,
                      const std::optional<PortNo>& port) const;

  // ------------------------------------------------------------- queries
  std::vector<Hostname> hosts_of_ip(Ipv4Address ip) const;
  std::vector<Ipv4Address> ips_of_host(const Hostname& host) const;
  std::vector<Username> users_of_host(const Hostname& host) const;
  std::vector<Hostname> hosts_of_user(const Username& user) const;
  std::optional<MacAddress> mac_of_ip(Ipv4Address ip) const;
  std::vector<Ipv4Address> ips_of_mac(MacAddress mac) const;
  std::optional<PortNo> location_of_mac(Dpid dpid, MacAddress mac) const;

  const ErmStats& stats() const { return stats_; }
  std::size_t binding_count() const;

  // The shared id<->name store; ids are stable for the manager's lifetime.
  const EntityInterner& interner() const { return *identity_.interner; }

  // Copy-on-write counters of the identity tables: how many tree nodes
  // mutations had to clone because a published snapshot shared them. The
  // erm_scale bench reports these to prove publication is O(changed).
  CowTableStats cow_stats() const { return identity_.cow_stats(); }

  // Monotonic version of the binding state, bumped on every applied event
  // that could change an enrichment or spoof-validation result. Decision
  // caches (core/decision_cache.h) stamp entries with this epoch; a
  // mismatch forces a full re-decision, which is what keeps cached
  // decisions consistent with late binding (paper Section III-B).
  //
  // One deliberate exception: a *first* MAC-location assertion (no prior
  // port for that (switch, MAC)) does not bump the epoch. validate()
  // treats a missing location binding as a pass, and the PCP asserts the
  // observed location of every packet's source before deciding, so any
  // cached decision for that (switch, MAC, port) already reflects a
  // binding at that very port — a brand-new assertion can only originate
  // from a different flow it cannot retroactively contradict. Without this
  // exception every first packet of a new host would flush the cache.
  std::uint64_t epoch() const { return epoch_; }

  // Immutable snapshot of the identity bindings at the current epoch.
  // O(1): the tables' generation is bumped and their root pointers copied;
  // later mutations path-copy only what they touch. At most one capture
  // per epoch-bumping mutation, no matter how many decisions run in
  // between; first MAC-location sightings (see epoch()) reuse the cached
  // capture untouched.
  ErmSnapshot snapshot_view() const;

  // Every current binding, as assertion events (persistence snapshots and
  // diagnostics; replaying them into a fresh ERM reproduces this state).
  // Deterministically ordered regardless of interning order.
  std::vector<BindingEvent> snapshot() const;

  // ------------------------------------------------- durability (WAL)
  // Attach a write-ahead log: every subsequent apply() appends its event
  // record before mutating. Pass nullptr to detach.
  void attach_journal(Journal* journal) { journal_ = journal; }

  // Never move the epoch backwards across a reload: a freshly loaded ERM
  // replays only the surviving assertions and lands *behind* the
  // pre-restart epoch, and decision caches stamped with the old epoch
  // values must never see them recur with different binding state (see
  // load_bindings' epoch_floor). The journal calls this with the recorded
  // epoch after replaying a snapshot.
  void advance_epoch_to(std::uint64_t epoch);

 private:
  // Hash for the (dpid, mac) location key.
  struct LocationKeyHash {
    std::size_t operator()(const std::pair<Dpid, MacAddress>& key) const noexcept {
      return std::hash<std::uint64_t>{}(key.first.value * 0x9e3779b97f4a7c15ull ^
                                        key.second.to_u64());
    }
  };

  MessageBus& bus_;
  Subscription subscription_;

  // Live identity bindings: interned, copy-on-write tables (see
  // core/erm_snapshot.h for layout and ordering invariants). Mutated only
  // via apply(); published to the decision path by frozen capture.
  // `mutable` because publication-from-const (snapshot_view) must bump the
  // tables' generation — a bookkeeping write, not a logical mutation.
  mutable ErmIdentityTables identity_;
  // (dpid, mac) -> port. At most one port per MAC per switch; the PCP's
  // location sensor replaces the binding when a MAC legitimately moves.
  // Deliberately outside the snapshot (see core/erm_snapshot.h).
  std::unordered_map<std::pair<Dpid, MacAddress>, PortNo, LocationKeyHash> mac_location_;

  // Incremental binding tallies (binding_count() must not walk the
  // tables at million-entity scale).
  std::size_t user_host_bindings_ = 0;
  std::size_t host_ip_bindings_ = 0;
  std::size_t ip_mac_bindings_ = 0;

  std::uint64_t epoch_ = 0;
  Journal* journal_ = nullptr;
  mutable SnapshotCache<ErmIdentityTables> snapshot_cache_;
  mutable ErmStats stats_;
};

}  // namespace dfi
