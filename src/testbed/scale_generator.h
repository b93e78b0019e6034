// Deterministic enterprise-scale binding and policy generator.
//
// The paper's testbed (testbed/enterprise.h) is 92 endpoints — the right
// shape for reproducing Fig. 4/5, three orders of magnitude short of the
// production enterprises the compact entity plane (DESIGN.md §8) is sized
// for. This generator synthesizes the *identity plane* of such an
// enterprise directly: N hosts, each with a DHCP lease (IP<->MAC), a DNS
// name (host<->IP), a primary logged-on user (user<->host), and a switch
// location — 4+ bindings and 4 fresh entities per host, so N = 250k hosts
// exercises a million-entity ERM — plus a rule population in the 100k range
// spread across PDP priorities and rule shapes the way real per-department
// policy is.
//
// Everything is a pure function of (config, index): host k's name, user,
// MAC, IP, and switch are derived arithmetically, so tests and benches can
// regenerate any single host's bindings without storing the population, and
// two runs with the same seed produce byte-identical event streams.
//
// Churn schedules model the three binding storms the issue calls out:
//   * logon storms  - morning shift: users log on/off hosts in bulk
//                     (user<->host assert/retract waves);
//   * DHCP rollover - lease expiry: a host's IP moves to the next address
//                     in its subnet (IP<->MAC retract + assert, DNS rebind);
//   * host mobility - a laptop reappears on another switch (MAC-location
//                     replacement, the no-identity-epoch-bump path).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/policy.h"
#include "net/ipv4.h"
#include "net/mac.h"
#include "services/events.h"

namespace dfi {

struct ScaleConfig {
  // Host population; entities ~ 4x this (user, host, IP, MAC per host).
  std::uint32_t hosts = 10000;
  // Hosts per access switch (drives MAC-location bindings and mobility).
  std::uint32_t hosts_per_switch = 48;
  // Secondary DNS aliases: every alias_stride-th host gets a second
  // hostname bound to its IP (exercises multi-host enrichment dedup).
  std::uint32_t alias_stride = 16;
  // Roaming users: every roam_stride-th user is also logged on to the next
  // host (exercises multi-host user lists).
  std::uint32_t roam_stride = 32;
  std::uint64_t seed = 42;
};

class ScaleGenerator {
 public:
  explicit ScaleGenerator(ScaleConfig config) : config_(config) {}

  const ScaleConfig& config() const { return config_; }

  // ---------------------------------------------------- entity derivation
  // All pure: host index -> that host's identifiers.
  std::string host_name(std::uint32_t host) const;
  std::string alias_name(std::uint32_t host) const;  // secondary DNS name
  std::string user_name(std::uint32_t host) const;
  Ipv4Address ip_of(std::uint32_t host) const;
  MacAddress mac_of(std::uint32_t host) const;
  Dpid switch_of(std::uint32_t host) const;
  PortNo port_of(std::uint32_t host) const;

  // ------------------------------------------------------- initial state
  // Emit the full initial binding population, in host order, to `sink`:
  // per host ip<->mac, host<->ip, (alias<->ip), user<->host, (roaming
  // user<->host), mac-location. Streams — never materializes the
  // population.
  void emit_initial_bindings(const std::function<void(const BindingEvent&)>& sink) const;

  // Number of events emit_initial_bindings produces (for reserve()).
  std::size_t initial_binding_count() const;

  // ----------------------------------------------------------- churn
  // One logon storm: `count` users starting at `first` log off their host
  // and a shifted user population logs on (2 events per user).
  void emit_logon_storm(std::uint32_t first, std::uint32_t count, std::uint32_t shift,
                        const std::function<void(const BindingEvent&)>& sink) const;

  // One DHCP rollover wave: `count` hosts starting at `first` move to their
  // alternate lease (IP changes within the host's subnet; 4 events per
  // host: retract old ip<->mac and host<->ip, assert both for the new IP).
  void emit_dhcp_rollover(std::uint32_t first, std::uint32_t count, bool to_alternate,
                          const std::function<void(const BindingEvent&)>& sink) const;

  // One mobility wave: `count` hosts starting at `first` reappear on the
  // next switch (1 MAC-location assertion per host).
  void emit_host_mobility(std::uint32_t first, std::uint32_t count, std::uint32_t hop,
                          const std::function<void(const BindingEvent&)>& sink) const;

  // ----------------------------------------------------------- policy
  // Deterministic rule population: `count` rules cycling through eight
  // shapes (src/dst IP, src MAC, src/dst user, src/dst host, or only a
  // destination L4 port; each also names EtherType IPv4), naming entities
  // of this generator's population so queries actually hit rules. Callers
  // spread PDP priorities at insert time (rules carry no priority of their
  // own).
  std::vector<PolicyRule> make_rules(std::uint32_t count) const;

  // The host each rule of make_rules(count) targets, in rule order (rule i
  // names an identifier of host rule_targets(count)[i]; port-only wildcard
  // rules still draw a target to keep the streams aligned). Benches draw
  // probe flows from this so the fraction of flows that match a rule is
  // population-invariant — at a constant rule count, random flows over N
  // hosts get ~rules/N matches each, which would compare a hit-heavy small
  // point against a miss-heavy large one instead of measuring the entity
  // plane.
  std::vector<std::uint32_t> rule_targets(std::uint32_t count) const;

 private:
  Ipv4Address lease_ip(std::uint32_t host, bool alternate) const;

  ScaleConfig config_;
};

}  // namespace dfi
