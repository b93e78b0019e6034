#include "testbed/scale_generator.h"

#include <charconv>

namespace dfi {
namespace {

// "corp-h001234" style names: fixed 7-digit suffix keeps lexicographic and
// numeric order identical, which makes expected enrichment output easy to
// derive in tests.
std::string numbered(const char* prefix, std::uint32_t n) {
  char digits[8];
  for (int i = 6; i >= 0; --i) {
    digits[i] = static_cast<char>('0' + n % 10);
    n /= 10;
  }
  std::string out;
  out.reserve(std::string_view(prefix).size() + 7);
  out.append(prefix);
  out.append(digits, 7);
  return out;
}

BindingEvent user_host(std::string user, std::string host, bool retracted) {
  BindingEvent event;
  event.kind = BindingKind::kUserHost;
  event.retracted = retracted;
  event.user = Username{std::move(user)};
  event.host = Hostname{std::move(host)};
  return event;
}

BindingEvent host_ip(std::string host, Ipv4Address ip, bool retracted) {
  BindingEvent event;
  event.kind = BindingKind::kHostIp;
  event.retracted = retracted;
  event.host = Hostname{std::move(host)};
  event.ip = ip;
  return event;
}

BindingEvent ip_mac(Ipv4Address ip, MacAddress mac, bool retracted) {
  BindingEvent event;
  event.kind = BindingKind::kIpMac;
  event.retracted = retracted;
  event.ip = ip;
  event.mac = mac;
  return event;
}

BindingEvent mac_location(Dpid dpid, MacAddress mac, PortNo port) {
  BindingEvent event;
  event.kind = BindingKind::kMacLocation;
  event.dpid = dpid;
  event.mac = mac;
  event.port = port;
  return event;
}

}  // namespace

std::string ScaleGenerator::host_name(std::uint32_t host) const {
  return numbered("corp-h", host);
}

std::string ScaleGenerator::alias_name(std::uint32_t host) const {
  return numbered("corp-svc", host);
}

std::string ScaleGenerator::user_name(std::uint32_t host) const {
  return numbered("user", host);
}

Ipv4Address ScaleGenerator::lease_ip(std::uint32_t host, bool alternate) const {
  // 10.0.0.0/8 primary pool, 11.0.0.0/8 alternate-lease pool: rollover
  // never collides with another host's primary address.
  return Ipv4Address(((alternate ? 11u : 10u) << 24) + host);
}

Ipv4Address ScaleGenerator::ip_of(std::uint32_t host) const {
  return lease_ip(host, false);
}

MacAddress ScaleGenerator::mac_of(std::uint32_t host) const {
  // Locally administered OUI 02:… plus a seed-derived site id, so
  // differently seeded populations do not share MACs.
  return MacAddress::from_u64((0x020000000000ull) |
                              ((config_.seed & 0xff) << 32) | host);
}

Dpid ScaleGenerator::switch_of(std::uint32_t host) const {
  return Dpid{1 + host / config_.hosts_per_switch};
}

PortNo ScaleGenerator::port_of(std::uint32_t host) const {
  return PortNo{1 + host % config_.hosts_per_switch};
}

void ScaleGenerator::emit_initial_bindings(
    const std::function<void(const BindingEvent&)>& sink) const {
  for (std::uint32_t h = 0; h < config_.hosts; ++h) {
    const Ipv4Address ip = ip_of(h);
    sink(ip_mac(ip, mac_of(h), false));
    sink(host_ip(host_name(h), ip, false));
    if (config_.alias_stride != 0 && h % config_.alias_stride == 0) {
      sink(host_ip(alias_name(h), ip, false));
    }
    sink(user_host(user_name(h), host_name(h), false));
    if (config_.roam_stride != 0 && h % config_.roam_stride == 0 &&
        h + 1 < config_.hosts) {
      sink(user_host(user_name(h), host_name(h + 1), false));
    }
    sink(mac_location(switch_of(h), mac_of(h), port_of(h)));
  }
}

std::size_t ScaleGenerator::initial_binding_count() const {
  std::size_t count = std::size_t{config_.hosts} * 4;  // ip-mac, host-ip, user-host, location
  if (config_.alias_stride != 0) {
    count += (config_.hosts + config_.alias_stride - 1) / config_.alias_stride;
  }
  if (config_.roam_stride != 0 && config_.hosts > 1) {
    count += (config_.hosts + config_.roam_stride - 1) / config_.roam_stride;
  }
  return count;
}

void ScaleGenerator::emit_logon_storm(
    std::uint32_t first, std::uint32_t count, std::uint32_t shift,
    const std::function<void(const BindingEvent&)>& sink) const {
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint32_t h = (first + i) % config_.hosts;
    const std::uint32_t next = (h + shift) % config_.hosts;
    sink(user_host(user_name(h), host_name(h), true));
    sink(user_host(user_name(next), host_name(h), false));
  }
}

void ScaleGenerator::emit_dhcp_rollover(
    std::uint32_t first, std::uint32_t count, bool to_alternate,
    const std::function<void(const BindingEvent&)>& sink) const {
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint32_t h = (first + i) % config_.hosts;
    const Ipv4Address old_ip = lease_ip(h, !to_alternate);
    const Ipv4Address new_ip = lease_ip(h, to_alternate);
    sink(ip_mac(old_ip, mac_of(h), true));
    sink(host_ip(host_name(h), old_ip, true));
    sink(ip_mac(new_ip, mac_of(h), false));
    sink(host_ip(host_name(h), new_ip, false));
  }
}

void ScaleGenerator::emit_host_mobility(
    std::uint32_t first, std::uint32_t count, std::uint32_t hop,
    const std::function<void(const BindingEvent&)>& sink) const {
  const std::uint32_t switches =
      (config_.hosts + config_.hosts_per_switch - 1) / config_.hosts_per_switch;
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint32_t h = (first + i) % config_.hosts;
    const std::uint64_t moved = 1 + (switch_of(h).value - 1 + hop) % std::max(1u, switches);
    sink(mac_location(Dpid{moved}, mac_of(h), port_of(h)));
  }
}

std::vector<std::uint32_t> ScaleGenerator::rule_targets(std::uint32_t count) const {
  std::vector<std::uint32_t> targets;
  targets.reserve(count);
  Rng rng(config_.seed ^ 0x9e3779b97f4a7c15ull);
  for (std::uint32_t i = 0; i < count; ++i) {
    targets.push_back(
        static_cast<std::uint32_t>(rng.uniform_int(0, static_cast<int>(config_.hosts) - 1)));
  }
  return targets;
}

std::vector<PolicyRule> ScaleGenerator::make_rules(std::uint32_t count) const {
  std::vector<PolicyRule> rules;
  rules.reserve(count);
  const std::vector<std::uint32_t> targets = rule_targets(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint32_t target = targets[i];
    PolicyRule rule;
    rule.action = (i % 5 == 0) ? PolicyAction::kDeny : PolicyAction::kAllow;
    // Cycle through eight rule shapes, each naming one endpoint identifier
    // (one slot in eight only an L4 port, as a "deny SMB/445" rule does), so
    // every shape's subtable carries real load.
    switch (i % 8) {
      case 0: rule.source.ip = ip_of(target); break;
      case 1: rule.destination.ip = ip_of(target); break;
      case 2: rule.source.mac = mac_of(target); break;
      case 3: rule.source.user = Username{user_name(target)}; break;
      case 4: rule.destination.user = Username{user_name(target)}; break;
      case 5: rule.source.host = Hostname{host_name(target)}; break;
      case 6: rule.destination.host = Hostname{host_name(target)}; break;
      case 7: rule.destination.l4_port = static_cast<std::uint16_t>(1024 + i % 40000); break;
    }
    rule.properties.ether_type = 0x0800;
    rules.push_back(std::move(rule));
  }
  return rules;
}

}  // namespace dfi
