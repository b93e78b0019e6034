// Deterministic discrete-event simulator.
//
// The paper evaluates DFI on a VMware testbed in real time; we reproduce the
// experiments on a discrete-event engine so runs are deterministic and take
// seconds instead of business days. Events fire in (time, insertion-order)
// order; handlers may schedule further events. All component latencies
// (queries, proxy processing, link delays) are modeled as scheduled delays.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "common/sim_time.h"

namespace dfi {

class Simulator {
 public:
  using Handler = std::function<void()>;

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime now() const { return now_; }
  // This simulator's time as a ClockFn, for components that keep deadlines
  // or stamp events (common/sim_time.h).
  ClockFn clock() const {
    return [this] { return now_; };
  }

  // Schedule `handler` to run at absolute time `at` (clamped to now).
  void schedule_at(SimTime at, Handler handler);

  // Schedule `handler` to run `delay` after the current time.
  void schedule_after(SimDuration delay, Handler handler);

  // Run until the event queue is empty or the given horizon is reached.
  // Returns the number of events executed.
  std::uint64_t run();
  std::uint64_t run_until(SimTime horizon);

  bool empty() const { return queue_.empty(); }
  std::size_t pending() const { return queue_.size(); }
  std::uint64_t executed() const { return executed_; }

 private:
  struct Event {
    SimTime at;
    std::uint64_t seq;  // tiebreaker: FIFO among simultaneous events
    Handler handler;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  std::priority_queue<Event, std::vector<Event>, Later> queue_;
  SimTime now_{};
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
};

}  // namespace dfi
