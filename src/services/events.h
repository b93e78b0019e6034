// Event and binding types exchanged over the message bus.
//
// Figure 3 of the paper maps each identifier binding to its authoritative
// source: DHCP for IP<->MAC, DNS for hostname<->IP, system event logs (via
// the SIEM) for username<->hostname, and Packet-in events for MAC<->switch
// port. Services publish raw service events on `service.*` topics; the
// identifier-binding sensors translate them to BindingEvents on
// `erm.bindings`, which the Entity Resolution Manager consumes. PDPs that
// react to authentication subscribe to `siem.sessions`.
#pragma once

#include <string>

#include "common/sim_time.h"
#include "common/types.h"
#include "net/ipv4.h"
#include "net/mac.h"

namespace dfi {

// ------------------------------------------------------------- bus topics

namespace topics {
inline const std::string kDhcpEvents = "service.dhcp";
inline const std::string kDnsEvents = "service.dns";
inline const std::string kSiemSessions = "siem.sessions";
inline const std::string kErmBindings = "erm.bindings";
inline const std::string kPolicyCommands = "policy.commands";
inline const std::string kRuleFlush = "pcp.flush";
inline const std::string kHealthHeartbeats = "health.heartbeats";
}  // namespace topics

// --------------------------------------------------------- service events

// DHCP lease granted/renewed or released (authoritative IP<->MAC source).
struct DhcpLeaseEvent {
  MacAddress mac;
  Ipv4Address ip;
  bool released = false;
  SimTime at{};
};

// DNS A record added or removed (authoritative hostname<->IP source).
struct DnsRecordEvent {
  Hostname host;
  Ipv4Address ip;
  bool removed = false;
  SimTime at{};
};

// User session established or ended on a host, as determined by the SIEM's
// process-count aggregation (paper Section IV-A).
struct SessionEvent {
  Username user;
  Hostname host;
  bool logged_on = false;
  SimTime at{};
};

// One liveness beat from a supervised component (a sensor feed, a PDP, a
// shard worker watchdog). The HealthMonitor (core/health_monitor.h) tracks
// the latest beat per component name; a component whose beat is older than
// the configured deadline degrades the control plane.
struct HeartbeatEvent {
  std::string component;
};

// ----------------------------------------------------------- ERM bindings

enum class BindingKind {
  kUserHost,     // username <-> hostname   (SIEM)
  kHostIp,       // hostname <-> IP         (DNS)
  kIpMac,        // IP <-> MAC              (DHCP)
  kMacLocation,  // MAC <-> (switch, port)  (Packet-in, via the PCP)
};

std::string to_string(BindingKind kind);

// One binding asserted or retracted by a sensor. Only the fields relevant
// to `kind` are meaningful.
struct BindingEvent {
  BindingKind kind = BindingKind::kUserHost;
  bool retracted = false;
  Username user;
  Hostname host;
  Ipv4Address ip;
  MacAddress mac;
  Dpid dpid;
  PortNo port;
};

}  // namespace dfi
