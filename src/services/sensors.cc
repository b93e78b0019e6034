#include "services/sensors.h"

namespace dfi {

namespace {

// One liveness beat per translated source event: the HealthMonitor's view
// of "this feed is alive" tracks the feed actually delivering data.
void maybe_beat(MessageBus& bus, const std::string& component) {
  if (component.empty()) return;
  bus.publish(topics::kHealthHeartbeats, HeartbeatEvent{component});
}

}  // namespace

std::string to_string(BindingKind kind) {
  switch (kind) {
    case BindingKind::kUserHost: return "user-host";
    case BindingKind::kHostIp: return "host-ip";
    case BindingKind::kIpMac: return "ip-mac";
    case BindingKind::kMacLocation: return "mac-location";
  }
  return "?";
}

IpMacSensor::IpMacSensor(MessageBus& bus)
    : bus_(bus),
      subscription_(bus.subscribe<DhcpLeaseEvent>(
          topics::kDhcpEvents, [this](const DhcpLeaseEvent& event) {
            maybe_beat(bus_, heartbeat_component_);
            BindingEvent binding;
            binding.kind = BindingKind::kIpMac;
            binding.retracted = event.released;
            binding.ip = event.ip;
            binding.mac = event.mac;
            bus_.publish(topics::kErmBindings, binding);
          })) {}

HostIpSensor::HostIpSensor(MessageBus& bus)
    : bus_(bus),
      subscription_(bus.subscribe<DnsRecordEvent>(
          topics::kDnsEvents, [this](const DnsRecordEvent& event) {
            maybe_beat(bus_, heartbeat_component_);
            BindingEvent binding;
            binding.kind = BindingKind::kHostIp;
            binding.retracted = event.removed;
            binding.host = event.host;
            binding.ip = event.ip;
            bus_.publish(topics::kErmBindings, binding);
          })) {}

UserHostSensor::UserHostSensor(MessageBus& bus)
    : bus_(bus),
      subscription_(bus.subscribe<SessionEvent>(
          topics::kSiemSessions, [this](const SessionEvent& event) {
            maybe_beat(bus_, heartbeat_component_);
            BindingEvent binding;
            binding.kind = BindingKind::kUserHost;
            binding.retracted = !event.logged_on;
            binding.user = event.user;
            binding.host = event.host;
            bus_.publish(topics::kErmBindings, binding);
          })) {}

}  // namespace dfi
