#include "common/sim_time.h"

#include <chrono>
#include <cstdio>

namespace dfi {

SimTime monotonic_now() {
  const auto since_epoch = std::chrono::steady_clock::now().time_since_epoch();
  return SimTime{
      std::chrono::duration_cast<std::chrono::microseconds>(since_epoch).count()};
}

std::string format_clock(SimTime t) {
  std::int64_t total_seconds = t.us / 1000000;
  if (total_seconds < 0) total_seconds = 0;
  const int hh = static_cast<int>((total_seconds / 3600) % 24);
  const int mm = static_cast<int>((total_seconds / 60) % 60);
  const int ss = static_cast<int>(total_seconds % 60);
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%02d:%02d:%02d", hh, mm, ss);
  return buf;
}

std::string format_duration(SimDuration d) {
  char buf[32];
  if (d.us < 1000) {
    std::snprintf(buf, sizeof(buf), "%lldus", static_cast<long long>(d.us));
  } else if (d.us < 1000000) {
    std::snprintf(buf, sizeof(buf), "%.2fms", d.to_ms());
  } else {
    std::snprintf(buf, sizeof(buf), "%.2fs", d.to_seconds());
  }
  return buf;
}

}  // namespace dfi
