// DHCP server surrogate: authoritative source of IP<->MAC bindings.
//
// Assigns addresses from a configured pool, tracks leases, and publishes a
// DhcpLeaseEvent on every grant/renew/release so the IP-MAC binding sensor
// can feed the Entity Resolution Manager (paper Figure 3).
#pragma once

#include <cstdint>
#include <map>
#include <optional>

#include "bus/message_bus.h"
#include "common/result.h"
#include "common/sim_time.h"
#include "net/ipv4.h"
#include "net/mac.h"
#include "services/events.h"

namespace dfi {

class DhcpServer {
 public:
  // Pool is [base, base + pool_size) within one subnet.
  DhcpServer(MessageBus& bus, ClockFn clock, Ipv4Address pool_base,
             std::uint32_t pool_size);

  // Grant (or renew) a lease for `mac`. A renewing client keeps its address;
  // a new client gets the lowest free one. Optionally a specific address can
  // be requested (static reservations for servers).
  Result<Ipv4Address> lease(MacAddress mac,
                            std::optional<Ipv4Address> requested = std::nullopt);

  // Release the lease held by `mac` (no-op if none).
  void release(MacAddress mac);

  std::optional<Ipv4Address> lookup(MacAddress mac) const;
  std::optional<MacAddress> reverse_lookup(Ipv4Address ip) const;
  std::size_t active_leases() const { return by_mac_.size(); }

 private:
  void publish(MacAddress mac, Ipv4Address ip, bool released);

  MessageBus& bus_;
  ClockFn clock_;
  Ipv4Address pool_base_;
  std::uint32_t pool_size_;
  std::map<MacAddress, Ipv4Address> by_mac_;
  std::map<Ipv4Address, MacAddress> by_ip_;
};

}  // namespace dfi
