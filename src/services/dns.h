// DNS server surrogate: authoritative source of hostname<->IP bindings.
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "bus/message_bus.h"
#include "common/sim_time.h"
#include "common/types.h"
#include "net/ipv4.h"
#include "services/events.h"

namespace dfi {

class DnsServer {
 public:
  DnsServer(MessageBus& bus, ClockFn clock);

  // Add/replace an A record (dynamic DNS update on DHCP lease). A host may
  // hold several addresses (multiple NICs — paper Section III-B).
  void register_record(const Hostname& host, Ipv4Address ip);
  void remove_record(const Hostname& host, Ipv4Address ip);
  void remove_host(const Hostname& host);

  std::vector<Ipv4Address> resolve(const Hostname& host) const;
  std::optional<Hostname> reverse(Ipv4Address ip) const;
  std::size_t record_count() const;

 private:
  MessageBus& bus_;
  ClockFn clock_;
  std::map<Hostname, std::set<Ipv4Address>> forward_;
  std::map<Ipv4Address, Hostname> reverse_;
};

}  // namespace dfi
