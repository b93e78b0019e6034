// SIEM surrogate (Splunk): derives log-on/log-off from endpoint process events.
//
// The paper's sensor (Section IV-A) does not trust any single Windows
// authentication event type; instead it counts running processes per
// (user, host) from endpoint process-creation/termination logs. A user is
// logged on while their process count is positive. The 0->1 transition
// publishes a logged-on SessionEvent; 1->0 publishes logged-off.
#pragma once

#include <functional>
#include <map>
#include <utility>
#include <vector>

#include "bus/message_bus.h"
#include "common/sim_time.h"
#include "common/types.h"
#include "services/events.h"

namespace dfi {

class SiemService {
 public:
  SiemService(MessageBus& bus, ClockFn clock);

  // Endpoint collectors forward process lifecycle events here.
  void process_created(const Username& user, const Hostname& host);
  void process_terminated(const Username& user, const Hostname& host);

  bool is_logged_on(const Username& user, const Hostname& host) const;
  int process_count(const Username& user, const Hostname& host) const;

  // All hosts `user` currently has sessions on.
  std::vector<Hostname> sessions_of(const Username& user) const;
  // All users with a session on `host`.
  std::vector<Username> users_on(const Hostname& host) const;

 private:
  using Key = std::pair<Username, Hostname>;

  MessageBus& bus_;
  ClockFn clock_;
  std::map<Key, int> process_counts_;
};

}  // namespace dfi
