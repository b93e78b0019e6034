#include "host.h"

#include <sched.h>
#include <time.h>

#include <fstream>
#include <sstream>

namespace e2e {

namespace {

std::int64_t clock_ns(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

}  // namespace

std::int64_t wall_ns() { return clock_ns(CLOCK_MONOTONIC); }

std::int64_t thread_cpu_ns() { return clock_ns(CLOCK_THREAD_CPUTIME_ID); }

int pin_to_last_allowed_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return -1;
  int cpu = -1;
  for (int i = 0; i < CPU_SETSIZE; ++i) {
    if (CPU_ISSET(i, &allowed)) cpu = i;
  }
  if (cpu < 0) return -1;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  return sched_setaffinity(0, sizeof(one), &one) == 0 ? cpu : -1;
}

std::uint64_t steal_ticks(int cpu) {
  if (cpu < 0) return 0;
  std::ifstream in("/proc/stat");
  const std::string want = "cpu" + std::to_string(cpu);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string name;
    fields >> name;
    if (name != want) continue;
    // user nice system idle iowait irq softirq steal
    std::uint64_t value = 0;
    for (int i = 0; i < 8 && (fields >> value); ++i) {
    }
    return value;
  }
  return 0;
}

std::uint64_t proc_status_kib(const std::string& field) {
  std::ifstream in("/proc/self/status");
  const std::string want = field + ":";
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(want, 0) == 0) return std::stoull(line.substr(want.size()));
  }
  return 0;
}

}  // namespace e2e
