// Control-plane time.
//
// Time is integer microseconds. SimTime is an absolute instant; SimDuration
// a signed difference. Components that keep deadlines or stamp events read
// the time through a ClockFn: simulated compositions hand them the
// discrete-event simulator's clock (microseconds from the start of the
// scenario), the socket path hands them monotonic_now(). Helpers convert
// to/from the units the paper reports (milliseconds, seconds, hours of the
// business day).
#pragma once

#include <compare>
#include <cstdint>
#include <functional>
#include <string>

namespace dfi {

struct SimDuration {
  std::int64_t us = 0;

  constexpr double to_ms() const { return static_cast<double>(us) / 1e3; }
  constexpr double to_seconds() const { return static_cast<double>(us) / 1e6; }

  friend constexpr SimDuration operator+(SimDuration a, SimDuration b) {
    return SimDuration{a.us + b.us};
  }
  friend constexpr SimDuration operator-(SimDuration a, SimDuration b) {
    return SimDuration{a.us - b.us};
  }
  friend constexpr SimDuration operator*(SimDuration a, std::int64_t k) {
    return SimDuration{a.us * k};
  }
  friend constexpr auto operator<=>(const SimDuration&, const SimDuration&) = default;
};

struct SimTime {
  std::int64_t us = 0;

  friend constexpr SimTime operator+(SimTime t, SimDuration d) {
    return SimTime{t.us + d.us};
  }
  friend constexpr SimTime operator-(SimTime t, SimDuration d) {
    return SimTime{t.us - d.us};
  }
  friend constexpr SimDuration operator-(SimTime a, SimTime b) {
    return SimDuration{a.us - b.us};
  }
  friend constexpr auto operator<=>(const SimTime&, const SimTime&) = default;
};

// The one clock seam: whatever a component reads "now" from.
using ClockFn = std::function<SimTime()>;

// Wall time on the monotonic clock the event loop's timer wheel reads
// (src/net/asyncio/event_loop.h), in microseconds from an arbitrary epoch.
SimTime monotonic_now();

constexpr SimDuration microseconds(std::int64_t n) { return SimDuration{n}; }
constexpr SimDuration milliseconds(double n) {
  return SimDuration{static_cast<std::int64_t>(n * 1e3)};
}
constexpr SimDuration seconds(double n) {
  return SimDuration{static_cast<std::int64_t>(n * 1e6)};
}
constexpr SimDuration minutes(double n) { return seconds(n * 60.0); }
constexpr SimDuration hours(double n) { return seconds(n * 3600.0); }

// Instant at HH:MM of the simulated business day (day starts at t = 0 =
// midnight). The worm experiments condition on foothold hour (Fig. 5b).
constexpr SimTime clock_time(int hour, int minute = 0) {
  return SimTime{} + hours(hour) + minutes(minute);
}

// "HH:MM:SS" rendering of an instant within the simulated day.
std::string format_clock(SimTime t);

// "12.34ms" style rendering of a duration.
std::string format_duration(SimDuration d);

}  // namespace dfi
