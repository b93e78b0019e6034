// Clocks, CPU pinning and /proc readings for the end-to-end benchmark.
#pragma once

#include <cstdint>
#include <string>

namespace e2e {

// Monotonic wall clock, nanoseconds.
std::int64_t wall_ns();

// CPU time consumed by the calling thread (CLOCK_THREAD_CPUTIME_ID),
// nanoseconds. With paravirtual steal accounting this excludes time the
// hypervisor ran someone else on our vCPU.
std::int64_t thread_cpu_ns();

// Pin the calling thread to the highest-numbered CPU it may run on.
// Returns that CPU, or -1 when pinning failed.
int pin_to_last_allowed_cpu();

// Steal ticks (USER_HZ) of one CPU from /proc/stat; 0 if unreadable.
std::uint64_t steal_ticks(int cpu);

// A "Vm...:" field of /proc/self/status in KiB (VmRSS, VmHWM); 0 if absent.
std::uint64_t proc_status_kib(const std::string& field);

}  // namespace e2e
