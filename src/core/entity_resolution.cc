#include "core/entity_resolution.h"

#include <algorithm>
#include <memory>

#include "common/logging.h"
#include "core/journal.h"

namespace dfi {
namespace {

// Copy-on-write sorted-posting-list edits of `table`, one of the six
// `tables`. The list order is the *presentation* order of the entities
// (lexicographic for names, numeric for addresses) so enrichment and
// persistence output need no sorting; `less` supplies that order. Both
// return whether the list changed — redundant edits must not bump the ERM
// epoch.
template <typename Less>
bool list_insert(ErmIdentityTables& tables, CowRadixMap<PostingListPtr>& table,
                 EntityId key, EntityId id, Less&& less) {
  const std::vector<EntityId>* current = list_of(table, key);
  if (current == nullptr) {
    tables.write(table, key, std::make_shared<const std::vector<EntityId>>(1, id));
    return true;
  }
  const auto pos = std::lower_bound(current->begin(), current->end(), id, less);
  if (pos != current->end() && *pos == id) return false;
  std::vector<EntityId> next;
  next.reserve(current->size() + 1);
  next.insert(next.end(), current->begin(), pos);
  next.push_back(id);
  next.insert(next.end(), pos, current->end());
  tables.write(table, key,
               std::make_shared<const std::vector<EntityId>>(std::move(next)));
  return true;
}

template <typename Less>
bool list_erase(ErmIdentityTables& tables, CowRadixMap<PostingListPtr>& table,
                EntityId key, EntityId id, Less&& less) {
  const std::vector<EntityId>* current = list_of(table, key);
  if (current == nullptr) return false;
  const auto pos = std::lower_bound(current->begin(), current->end(), id, less);
  if (pos == current->end() || *pos != id) return false;
  PostingListPtr next;  // empty when `id` was the last: an erase
  if (current->size() > 1) {
    std::vector<EntityId> rest;
    rest.reserve(current->size() - 1);
    rest.insert(rest.end(), current->begin(), pos);
    rest.insert(rest.end(), pos + 1, current->end());
    next = std::make_shared<const std::vector<EntityId>>(std::move(rest));
  }
  tables.write(table, key, std::move(next));
  return true;
}

// Deterministic snapshot order over the location map: keys sorted ascending.
template <typename Map>
auto sorted_keys(const Map& map) {
  std::vector<typename Map::key_type> keys;
  keys.reserve(map.size());
  for (const auto& [key, value] : map) keys.push_back(key);
  std::sort(keys.begin(), keys.end());
  return keys;
}

}  // namespace

EntityResolutionManager::EntityResolutionManager(MessageBus& bus)
    : bus_(bus),
      subscription_(bus.subscribe<BindingEvent>(
          topics::kErmBindings,
          [this](const BindingEvent& event) { apply(event); })) {}

void EntityResolutionManager::apply(const BindingEvent& event) {
  // WAL ordering: the event is durable before it mutates the tables. A
  // crash inside the append means the binding change never happened.
  // Redundant events are journaled too — replaying them is a no-op with
  // the same (zero) epoch delta, which keeps recovery deterministic
  // without the journal knowing the dedup rules.
  if (journal_ != nullptr) journal_->append_binding(event);
  ++stats_.binding_updates;

  EntityInterner& interner = *identity_.interner;
  const auto by_user = [&](EntityId a, EntityId b) {
    return interner.users().view(a) < interner.users().view(b);
  };
  const auto by_host = [&](EntityId a, EntityId b) {
    return interner.hosts().view(a) < interner.hosts().view(b);
  };
  const auto by_ip = [&](EntityId a, EntityId b) {
    return interner.ips().key(a) < interner.ips().key(b);
  };

  // `changed` tracks whether the event mutated state: redundant
  // re-assertions and retractions of absent bindings must not bump the
  // epoch (they cannot alter any decision) or they would needlessly flush
  // the PCP's decision cache.
  bool changed = false;
  switch (event.kind) {
    case BindingKind::kUserHost: {
      const EntityId user = interner.users().intern(event.user.value);
      const EntityId host = interner.hosts().intern(event.host.value);
      if (event.retracted) {
        const bool fwd =
            list_erase(identity_, identity_.user_to_hosts, user, host, by_host);
        changed =
            list_erase(identity_, identity_.host_to_users, host, user, by_user) || fwd;
        if (fwd) --user_host_bindings_;
      } else {
        const bool fwd =
            list_insert(identity_, identity_.user_to_hosts, user, host, by_host);
        changed =
            list_insert(identity_, identity_.host_to_users, host, user, by_user) || fwd;
        if (fwd) ++user_host_bindings_;
      }
      break;
    }
    case BindingKind::kHostIp: {
      const EntityId host = interner.hosts().intern(event.host.value);
      const EntityId ip = interner.ips().intern(event.ip.value());
      if (event.retracted) {
        const bool fwd = list_erase(identity_, identity_.host_to_ips, host, ip, by_ip);
        changed = list_erase(identity_, identity_.ip_to_hosts, ip, host, by_host) || fwd;
        if (fwd) --host_ip_bindings_;
      } else {
        const bool fwd = list_insert(identity_, identity_.host_to_ips, host, ip, by_ip);
        changed = list_insert(identity_, identity_.ip_to_hosts, ip, host, by_host) || fwd;
        if (fwd) ++host_ip_bindings_;
      }
      break;
    }
    case BindingKind::kIpMac: {
      const EntityId ip = interner.ips().intern(event.ip.value());
      const EntityId mac = interner.macs().intern(event.mac.to_u64());
      const std::uint64_t* slot = identity_.ip_to_mac.find(ip.value);
      const std::uint64_t bound = slot != nullptr ? *slot : 0;
      const std::uint64_t packed = event.mac.to_u64() + 1;
      if (event.retracted) {
        if (bound != 0) {
          identity_.write(identity_.ip_to_mac, ip, std::uint64_t{0});
          --ip_mac_bindings_;
          changed = true;
        }
        changed |= list_erase(identity_, identity_.mac_to_ips, mac, ip, by_ip);
      } else {
        // DHCP is authoritative: a lease replaces any prior MAC for the IP.
        if (bound != 0 && bound != packed) {
          const EntityId prev = interner.macs().find(bound - 1);
          list_erase(identity_, identity_.mac_to_ips, prev, ip, by_ip);
          changed = true;
        }
        changed |= list_insert(identity_, identity_.mac_to_ips, mac, ip, by_ip);
        if (changed) {
          if (bound == 0) ++ip_mac_bindings_;
          identity_.write(identity_.ip_to_mac, ip, packed);
        }
      }
      break;
    }
    case BindingKind::kMacLocation: {
      const auto key = std::make_pair(event.dpid, event.mac);
      if (event.retracted) {
        changed = mac_location_.erase(key) > 0;
      } else {
        const auto [it, inserted] = mac_location_.emplace(key, event.port);
        if (inserted) {
          // First sighting of this (switch, MAC). Deliberately NOT an
          // epoch bump: validate() passes on missing location bindings and
          // the PCP asserts every packet's own location before deciding,
          // so no cached decision can be contradicted by a first
          // assertion (see epoch() in the header).
        } else if (it->second != event.port) {
          it->second = event.port;  // the MAC moved: replaces the binding
          changed = true;
        }
      }
      break;
    }
  }
  // Keep the reader-side IP lookup current: any IP this event named is now
  // interned and must be findable by the live validate/enrich path (reader
  // threads use the capture taken at their snapshot's publication).
  identity_.ip_lookup = identity_.interner->ips().reader();
  if (changed) {
    ++epoch_;
    // Any epoch bump must reach the next published snapshot, even when the
    // identity tables themselves are untouched (a MAC move): decision
    // caches compare against the snapshot's epoch stamp.
    snapshot_cache_.invalidate();
  }
}

void EntityResolutionManager::advance_epoch_to(std::uint64_t epoch) {
  if (epoch > epoch_) {
    epoch_ = epoch;
    snapshot_cache_.invalidate();
  }
}

ErmSnapshot EntityResolutionManager::snapshot_view() const {
  const auto tables = snapshot_cache_.get([this]() {
    ++stats_.snapshot_rebuilds;
    // O(1): a generation bump and a copy of six root pointers plus the
    // interner handle. Cloning the nodes a later write path-copies happens
    // lazily, on the control thread.
    return identity_.publish();
  });
  return ErmSnapshot(tables, epoch_);
}

EndpointView EntityResolutionManager::enrich(EndpointView view) const {
  ++stats_.queries;
  return identity_.enrich(std::move(view));
}

SpoofCheck EntityResolutionManager::validate(const std::optional<MacAddress>& mac,
                                             const std::optional<Ipv4Address>& ip,
                                             const std::optional<Dpid>& dpid,
                                             const std::optional<PortNo>& port) const {
  SpoofCheck identity = identity_.validate_identity(mac, ip);
  if (identity.spoofed) {
    ++stats_.spoof_rejections;
    return identity;
  }
  if (mac.has_value() && dpid.has_value() && port.has_value()) {
    const auto located = mac_location_.find({*dpid, *mac});
    if (located != mac_location_.end() && located->second != *port) {
      ++stats_.spoof_rejections;
      return {true, "MAC " + mac->to_string() + " is located at port " +
                        std::to_string(located->second.value) + " of " +
                        to_string(*dpid) + ", not port " +
                        std::to_string(port->value)};
    }
  }
  return {false, ""};
}

std::vector<Hostname> EntityResolutionManager::hosts_of_ip(Ipv4Address ip) const {
  const EntityInterner& interner = *identity_.interner;
  std::vector<Hostname> out;
  if (const auto* list = list_of(identity_.ip_to_hosts, interner.ips().find(ip.value()))) {
    out.reserve(list->size());
    for (const EntityId host : *list) {
      out.push_back(Hostname{std::string(interner.hosts().view(host))});
    }
  }
  return out;
}

std::vector<Ipv4Address> EntityResolutionManager::ips_of_host(const Hostname& host) const {
  const EntityInterner& interner = *identity_.interner;
  std::vector<Ipv4Address> out;
  if (const auto* list = list_of(identity_.host_to_ips, interner.hosts().find(host.value))) {
    out.reserve(list->size());
    for (const EntityId ip : *list) {
      out.push_back(Ipv4Address(static_cast<std::uint32_t>(interner.ips().key(ip))));
    }
  }
  return out;
}

std::vector<Username> EntityResolutionManager::users_of_host(const Hostname& host) const {
  const EntityInterner& interner = *identity_.interner;
  std::vector<Username> out;
  if (const auto* list = list_of(identity_.host_to_users, interner.hosts().find(host.value))) {
    out.reserve(list->size());
    for (const EntityId user : *list) {
      out.push_back(Username{std::string(interner.users().view(user))});
    }
  }
  return out;
}

std::vector<Hostname> EntityResolutionManager::hosts_of_user(const Username& user) const {
  const EntityInterner& interner = *identity_.interner;
  std::vector<Hostname> out;
  if (const auto* list = list_of(identity_.user_to_hosts, interner.users().find(user.value))) {
    out.reserve(list->size());
    for (const EntityId host : *list) {
      out.push_back(Hostname{std::string(interner.hosts().view(host))});
    }
  }
  return out;
}

std::optional<MacAddress> EntityResolutionManager::mac_of_ip(Ipv4Address ip) const {
  const EntityId id = identity_.interner->ips().find(ip.value());
  if (!id.valid()) return std::nullopt;
  const std::uint64_t* packed = identity_.ip_to_mac.find(id.value);
  if (packed == nullptr) return std::nullopt;
  return MacAddress::from_u64(*packed - 1);
}

std::vector<Ipv4Address> EntityResolutionManager::ips_of_mac(MacAddress mac) const {
  const EntityInterner& interner = *identity_.interner;
  std::vector<Ipv4Address> out;
  if (const auto* list =
          list_of(identity_.mac_to_ips, interner.macs().find(mac.to_u64()))) {
    out.reserve(list->size());
    for (const EntityId ip : *list) {
      out.push_back(Ipv4Address(static_cast<std::uint32_t>(interner.ips().key(ip))));
    }
  }
  return out;
}

std::optional<PortNo> EntityResolutionManager::location_of_mac(Dpid dpid,
                                                               MacAddress mac) const {
  const auto it = mac_location_.find({dpid, mac});
  if (it == mac_location_.end()) return std::nullopt;
  return it->second;
}

std::vector<BindingEvent> EntityResolutionManager::snapshot() const {
  const EntityInterner& interner = *identity_.interner;
  std::vector<BindingEvent> out;
  out.reserve(binding_count());

  // Presentation order matches the old ordered-set layout exactly: outer
  // entities ascending by name/address, inner lists already sorted.
  const auto sorted_by_name = [](const StringInterner& names,
                                 const CowRadixMap<PostingListPtr>& table) {
    std::vector<EntityId> ids;
    for (std::uint32_t i = 0; i < names.size(); ++i) {
      if (table.find(i) != nullptr) ids.push_back(EntityId{i});
    }
    std::sort(ids.begin(), ids.end(), [&](EntityId a, EntityId b) {
      return names.view(a) < names.view(b);
    });
    return ids;
  };

  for (const EntityId user : sorted_by_name(interner.users(), identity_.user_to_hosts)) {
    for (const EntityId host : **identity_.user_to_hosts.find(user.value)) {
      BindingEvent event;
      event.kind = BindingKind::kUserHost;
      event.user = Username{std::string(interner.users().view(user))};
      event.host = Hostname{std::string(interner.hosts().view(host))};
      out.push_back(std::move(event));
    }
  }
  for (const EntityId host : sorted_by_name(interner.hosts(), identity_.host_to_ips)) {
    for (const EntityId ip : **identity_.host_to_ips.find(host.value)) {
      BindingEvent event;
      event.kind = BindingKind::kHostIp;
      event.host = Hostname{std::string(interner.hosts().view(host))};
      event.ip = Ipv4Address(static_cast<std::uint32_t>(interner.ips().key(ip)));
      out.push_back(std::move(event));
    }
  }
  {
    std::vector<EntityId> bound_ips;
    for (std::uint32_t i = 0; i < interner.ips().size(); ++i) {
      if (identity_.ip_to_mac.find(i) != nullptr) bound_ips.push_back(EntityId{i});
    }
    std::sort(bound_ips.begin(), bound_ips.end(), [&](EntityId a, EntityId b) {
      return interner.ips().key(a) < interner.ips().key(b);
    });
    for (const EntityId ip : bound_ips) {
      BindingEvent event;
      event.kind = BindingKind::kIpMac;
      event.ip = Ipv4Address(static_cast<std::uint32_t>(interner.ips().key(ip)));
      event.mac = MacAddress::from_u64(*identity_.ip_to_mac.find(ip.value) - 1);
      out.push_back(std::move(event));
    }
  }
  for (const auto& key : sorted_keys(mac_location_)) {
    BindingEvent event;
    event.kind = BindingKind::kMacLocation;
    event.dpid = key.first;
    event.mac = key.second;
    event.port = mac_location_.at(key);
    out.push_back(std::move(event));
  }
  return out;
}

std::size_t EntityResolutionManager::binding_count() const {
  return user_host_bindings_ + host_ip_bindings_ + ip_mac_bindings_ +
         mac_location_.size();
}

}  // namespace dfi
