// Failover macro-benchmark (DESIGN.md §6.3).
//
// Two measurements anchor the replicated control plane:
//
//   - Failover drill (sim time, TTFB-style): a warm primary/standby pair
//     exchanges heartbeats on simulator timers; the primary is killed
//     silently (network split, no RST — the worst detection case) and the
//     drill measures kill -> promotion (heartbeat-timeout detection +
//     fence bump) and verifies the first post-promotion FlowMod: the
//     promoted standby re-runs the Table-0 resync and decides a fresh
//     Packet-in, exactly the DfiSystem recovery path. The drill also
//     closes the split-brain loop: healed, the deposed primary's first
//     heartbeat is fence-rejected and it stands down.
//
//   - Steady-state replication overhead (wall time): journaled policy
//     ops/s with no replication, with an in-memory-linked synced standby
//     (ship + ingest + cumulative ack per record), and with the real
//     ReplTransport over loopback TCP through the epoll event loop. The
//     committed floors keep the socket figure tied to PR 9's
//     BENCH_socket_datapath c1 floors (see the baseline comment): a
//     replication record is one small frame on the same datapath.
//
// Every mode asserts correctness in-binary: the standby is byte-identical
// after each throughput run, promotion never fires before the failover
// deadline, at least one FlowMod follows promotion, and the deposed
// primary ends fenced/stood-down.
//
// Flags:
//   --smoke                  bounded run for CI (fewer ops/drills)
//   --check-baseline <path>  compare against committed floors; exit 1 on breach.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bus/message_bus.h"
#include "common/rng.h"
#include "core/health_monitor.h"
#include "core/journal.h"
#include "core/pcp.h"
#include "core/persistence.h"
#include "net/asyncio/conman.h"
#include "net/asyncio/event_loop.h"
#include "net/packet.h"
#include "openflow/messages.h"
#include "replication/repl_transport.h"
#include "replication/replica.h"
#include "sim/simulator.h"

namespace dfi {
namespace {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

PolicyRule make_rule(std::uint8_t octet, PolicyAction action) {
  PolicyRule rule;
  rule.action = action;
  rule.properties.ether_type = 0x0800;
  rule.source.ip = Ipv4Address(10, 0, 0, octet);
  rule.source.user = Username{"user" + std::to_string(octet)};
  rule.destination.l4_port = static_cast<std::uint16_t>(1000 + octet);
  return rule;
}

// One replica node: store + journal + state plane + Replica endpoint.
struct Node {
  explicit Node(std::uint64_t seed, HealthMonitor* health = nullptr,
                ReplicaConfig config = {})
      : manager(bus), erm(bus) {
    config.seed = seed;
    journal = std::make_unique<Journal>(store);
    manager.attach_journal(journal.get());
    erm.attach_journal(journal.get());
    replica = std::make_unique<Replica>(config, *journal, manager, erm, health);
  }

  std::string image() const {
    return save_policies(manager) + "=== " + save_bindings(erm);
  }

  InMemoryJournalStore store;
  MessageBus bus;
  PolicyManager manager;
  EntityResolutionManager erm;
  std::unique_ptr<Journal> journal;
  std::unique_ptr<Replica> replica;
};

// Queued in-memory byte link (same shape as the replication tests):
// sends enqueue, pump() delivers FIFO, partition() silently eats bytes.
struct Link {
  Link(Replica& a, Replica& b) : a_(&a), b_(&b) {
    a.set_send([this](const std::string& bytes) { enqueue(1, bytes); });
    b.set_send([this](const std::string& bytes) { enqueue(0, bytes); });
  }

  void enqueue(int dest, const std::string& bytes) {
    if (partitioned) return;
    queue.emplace_back(dest, bytes);
  }

  void partition() {
    partitioned = true;
    queue.clear();
  }
  void heal() { partitioned = false; }

  void pump() {
    while (!queue.empty()) {
      auto [dest, bytes] = std::move(queue.front());
      queue.pop_front();
      Replica* target = dest == 0 ? a_ : b_;
      target->on_bytes(reinterpret_cast<const std::uint8_t*>(bytes.data()),
                       bytes.size());
    }
  }

  Replica* a_;
  Replica* b_;
  std::deque<std::pair<int, std::string>> queue;
  bool partitioned = false;
};

// The steady-state workload: one iteration = insert + revoke = two
// journal records, so state stays bounded while the journal streams.
void workload_op(Node& node, std::size_t i) {
  const auto octet = static_cast<std::uint8_t>(1 + (i % 200));
  const PolicyRuleId id = node.manager.insert(
      make_rule(octet, PolicyAction::kAllow), PdpPriority{10}, "pdp-bench");
  node.manager.revoke(id);
}

// ---------------------------------------------------- replication overhead

struct ThroughputResult {
  double records_per_s = 0.0;
  std::uint64_t records = 0;
};

ThroughputResult baseline_throughput(std::size_t iters) {
  Node solo(101);
  for (std::size_t i = 0; i < 64; ++i) workload_op(solo, i);  // warm
  const std::uint64_t start = now_ns();
  for (std::size_t i = 0; i < iters; ++i) workload_op(solo, i);
  const double elapsed_s = static_cast<double>(now_ns() - start) * 1e-9;
  ThroughputResult result;
  result.records = 2 * iters;
  result.records_per_s = static_cast<double>(result.records) / elapsed_s;
  return result;
}

bool inmem_throughput(std::size_t iters, ThroughputResult* out) {
  Node a(11);
  Node b(22);
  Link link(*a.replica, *b.replica);
  a.replica->become_primary();
  b.replica->become_standby();
  link.pump();
  for (std::size_t i = 0; i < 64; ++i) workload_op(a, i);  // warm
  link.pump();
  const std::uint64_t applied_before = b.replica->stats().records_applied;
  const std::uint64_t start = now_ns();
  for (std::size_t i = 0; i < iters; ++i) {
    workload_op(a, i);
    link.pump();  // ship + standby ingest + cumulative ack, every record
  }
  const double elapsed_s = static_cast<double>(now_ns() - start) * 1e-9;
  const std::uint64_t applied =
      b.replica->stats().records_applied - applied_before;
  if (applied != 2 * iters) {
    std::fprintf(stderr, "FAIL: in-memory standby applied %llu of %llu records\n",
                 static_cast<unsigned long long>(applied),
                 static_cast<unsigned long long>(2 * iters));
    return false;
  }
  if (b.image() != a.image()) {
    std::fprintf(stderr, "FAIL: in-memory standby image diverged\n");
    return false;
  }
  out->records = applied;
  out->records_per_s = static_cast<double>(applied) / elapsed_s;
  return true;
}

bool socket_throughput(std::size_t iters, ThroughputResult* out) {
  net::EventLoop loop;
  net::ConnectionManager conman_a(loop, {});
  net::ConnectionManager conman_b(loop, {});
  Node a(31);
  Node b(32);
  ReplTransport transport_a(loop, conman_a, *a.replica, /*heartbeat_ms=*/50);
  ReplTransport transport_b(loop, conman_b, *b.replica, /*heartbeat_ms=*/50);

  auto bound = transport_a.listen("127.0.0.1", 0);
  if (!bound.ok()) {
    std::fprintf(stderr, "FAIL: listen: %s\n", bound.error().message.c_str());
    return false;
  }
  a.replica->become_primary();
  transport_b.dial("127.0.0.1", bound.value());

  const auto pump_until = [&](auto cond) {
    const std::uint64_t deadline = now_ns() + std::uint64_t{60} * 1000000000ull;
    while (!cond()) {
      if (now_ns() > deadline) {
        std::fprintf(stderr, "FAIL: socket replication stalled\n");
        return false;
      }
      loop.run_once(10);
    }
    return true;
  };
  if (!pump_until([&] { return b.replica->stats().snapshots_installed == 1; }))
    return false;

  for (std::size_t i = 0; i < 64; ++i) workload_op(a, i);  // warm: 128 records
  if (!pump_until([&] { return b.replica->stats().records_applied >= 128; }))
    return false;

  const std::uint64_t applied_before = b.replica->stats().records_applied;
  const std::uint64_t start = now_ns();
  for (std::size_t i = 0; i < iters; ++i) {
    workload_op(a, i);
    loop.run_once(0);  // drain egress + deliver standby ingress
  }
  if (!pump_until([&] {
        return b.replica->stats().records_applied - applied_before >= 2 * iters;
      }))
    return false;
  const double elapsed_s = static_cast<double>(now_ns() - start) * 1e-9;
  if (b.image() != a.image()) {
    std::fprintf(stderr, "FAIL: socket standby image diverged\n");
    return false;
  }
  out->records = 2 * iters;
  out->records_per_s = static_cast<double>(out->records) / elapsed_s;
  return true;
}

// ----------------------------------------------------------- failover drill

struct DrillResult {
  double detect_ms = 0.0;    // sim time: kill -> promotion (fence bumped)
  double promote_us = 0.0;   // wall time of the promote() machinery itself
  std::uint64_t post_promotion_flowmods = 0;
};

bool run_drill(std::uint64_t seed, DrillResult* out) {
  Simulator sim;
  HealthConfig hconfig;  // failover_deadline: 2 s, the committed default
  MessageBus hbus_a;
  MessageBus hbus_b;
  HealthMonitor health_a(sim.clock(), hbus_a, hconfig, Rng(seed));
  HealthMonitor health_b(sim.clock(), hbus_b, hconfig, Rng(seed ^ 1));
  Node a(seed ^ 0xa, &health_a);
  Node b(seed ^ 0xb, &health_b);
  Link link(*a.replica, *b.replica);

  bool promoted = false;
  SimTime t_promote{};
  double promote_us = 0.0;
  health_a.enable_failover(ReplicaRole::kPrimary, nullptr);
  health_b.enable_failover(ReplicaRole::kStandby, [&] {
    t_promote = sim.now();
    const std::uint64_t start = now_ns();
    b.replica->promote();
    promote_us = static_cast<double>(now_ns() - start) * 1e-3;
    promoted = true;
  });

  a.replica->become_primary();
  b.replica->become_standby();
  link.pump();
  for (std::size_t i = 0; i < 16; ++i) workload_op(a, i);  // warm workload
  link.pump();
  const std::string image_at_kill = a.image();

  // Heartbeats every 100 ms while the primary lives; the standby polls its
  // failover clock every 50 ms until it promotes. Both stop themselves, so
  // sim.run() terminates exactly when the promotion lands.
  bool primary_alive = true;
  SimTime t_kill{};
  std::function<void()> beat = [&] {
    if (!primary_alive) return;
    a.replica->tick_heartbeat();
    link.pump();
    sim.schedule_after(milliseconds(100), beat);
  };
  std::function<void()> poll = [&] {
    if (promoted) return;
    health_b.poll();
    sim.schedule_after(milliseconds(50), poll);
  };
  sim.schedule_after(milliseconds(100), beat);
  sim.schedule_after(milliseconds(50), poll);
  // The kill: a silent split just after a beat — the worst case for the
  // heartbeat-timeout detector (no RST to shortcut via promote_now).
  sim.schedule_after(milliseconds(501), [&] {
    primary_alive = false;
    link.partition();
    t_kill = sim.now();
  });
  sim.run();

  if (!promoted || !b.replica->is_primary()) {
    std::fprintf(stderr, "FAIL: drill %llu: standby never promoted\n",
                 static_cast<unsigned long long>(seed));
    return false;
  }
  out->detect_ms = static_cast<double>(t_promote.us - t_kill.us) * 1e-3;
  out->promote_us = promote_us;
  const double deadline_ms =
      static_cast<double>(hconfig.failover_deadline.us) * 1e-3;
  if (out->detect_ms < deadline_ms) {
    std::fprintf(stderr, "FAIL: drill %llu: promoted %.1f ms after kill, "
                 "before the %.1f ms failover deadline\n",
                 static_cast<unsigned long long>(seed), out->detect_ms,
                 deadline_ms);
    return false;
  }
  if (b.image() != image_at_kill) {
    std::fprintf(stderr, "FAIL: drill %llu: survivor image diverged\n",
                 static_cast<unsigned long long>(seed));
    return false;
  }

  // First post-promotion FlowMod: the promoted plane re-runs the Table-0
  // resync (cookie-masked clears) and decides a fresh Packet-in — the
  // DfiSystem path out of the promotion's degraded window.
  PcpConfig pcp_config;
  PolicyCompilationPoint pcp(b.bus, b.erm, b.manager, pcp_config);
  std::uint64_t flowmods = 0;
  pcp.register_switch(Dpid{1}, [&](const OfMessage&) { ++flowmods; });
  pcp.resync_all();
  PacketInMsg msg;
  msg.table_id = 0;
  msg.in_port = PortNo{1};
  msg.data = make_tcp_packet(MacAddress::from_u64(0xa001),
                             MacAddress::from_u64(0xa002),
                             Ipv4Address(10, 0, 0, 1), Ipv4Address(10, 0, 0, 2),
                             1500, 1001)
                 .serialize();
  (void)pcp.decide(Dpid{1}, msg);
  if (flowmods == 0) {
    std::fprintf(stderr, "FAIL: drill %llu: no FlowMod after promotion\n",
                 static_cast<unsigned long long>(seed));
    return false;
  }
  out->post_promotion_flowmods = flowmods;

  // Close the split-brain loop: healed, the deposed primary's heartbeat
  // carries the stale fence, is rejected, and it stands down.
  link.heal();
  a.replica->tick_heartbeat();
  link.pump();
  if (a.replica->is_primary()) {
    std::fprintf(stderr, "FAIL: drill %llu: deposed primary did not stand down\n",
                 static_cast<unsigned long long>(seed));
    return false;
  }
  if (b.journal->fence_epoch() == 0) {
    std::fprintf(stderr, "FAIL: drill %llu: promotion did not bump the fence\n",
                 static_cast<unsigned long long>(seed));
    return false;
  }
  return true;
}

// ---------------------------------------------------------------- reporting

struct BenchResults {
  ThroughputResult baseline;
  ThroughputResult inmem;
  ThroughputResult socket;
  double inmem_ratio = 0.0;
  double socket_ratio = 0.0;
  double detect_ms_mean = 0.0;
  double detect_ms_max = 0.0;
  double promote_us_mean = 0.0;
  std::uint64_t drills = 0;
};

void write_json(const char* path, const BenchResults& r) {
  std::ofstream out(path);
  out << "{\n"
      << "  \"baseline_records_per_s\": " << r.baseline.records_per_s << ",\n"
      << "  \"inmem_records_per_s\": " << r.inmem.records_per_s << ",\n"
      << "  \"socket_records_per_s\": " << r.socket.records_per_s << ",\n"
      << "  \"inmem_overhead_ratio\": " << r.inmem_ratio << ",\n"
      << "  \"socket_overhead_ratio\": " << r.socket_ratio << ",\n"
      << "  \"detect_ms_mean\": " << r.detect_ms_mean << ",\n"
      << "  \"detect_ms_max\": " << r.detect_ms_max << ",\n"
      << "  \"promote_us_mean\": " << r.promote_us_mean << ",\n"
      << "  \"drills\": " << r.drills << "\n"
      << "}\n";
  std::printf("wrote %s\n", path);
}

bool json_number(const std::string& json, const std::string& key, double* out) {
  const auto key_pos = json.find("\"" + key + "\": ");
  if (key_pos == std::string::npos) return false;
  *out = std::strtod(json.c_str() + key_pos + key.size() + 4, nullptr);
  return true;
}

int check_baseline(const char* path, const BenchResults& r) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "FAIL: cannot read baseline %s\n", path);
    return 1;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string json = buffer.str();
  int failures = 0;
  const auto gate_min = [&](const char* key, double measured) {
    double floor = 0.0;
    if (!json_number(json, key, &floor)) return;
    if (measured < floor) {
      std::fprintf(stderr, "FAIL: %s %.3f below floor %.3f\n", key, measured,
                   floor);
      ++failures;
    } else {
      std::printf("baseline ok: %s %.3f (floor %.3f)\n", key, measured, floor);
    }
  };
  const auto gate_max = [&](const char* key, double measured) {
    double ceiling = 0.0;
    if (!json_number(json, key, &ceiling)) return;
    if (measured > ceiling) {
      std::fprintf(stderr, "FAIL: %s %.3f above ceiling %.3f\n", key, measured,
                   ceiling);
      ++failures;
    } else {
      std::printf("baseline ok: %s %.3f (ceiling %.3f)\n", key, measured,
                  ceiling);
    }
  };
  gate_min("min_baseline_records_per_s", r.baseline.records_per_s);
  gate_min("min_inmem_records_per_s", r.inmem.records_per_s);
  gate_min("min_socket_records_per_s", r.socket.records_per_s);
  gate_min("min_inmem_overhead_ratio", r.inmem_ratio);
  gate_min("min_socket_overhead_ratio", r.socket_ratio);
  gate_max("max_detect_ms", r.detect_ms_max);
  gate_max("max_promote_us", r.promote_us_mean);
  return failures == 0 ? 0 : 1;
}

int run(bool smoke, const char* baseline_path) {
  const std::size_t iters = smoke ? 4000 : 40000;
  const std::size_t drills = smoke ? 3 : 10;

  BenchResults r;
  r.baseline = baseline_throughput(iters);
  std::printf("journal only         %12.0f records/s\n",
              r.baseline.records_per_s);
  if (!inmem_throughput(iters, &r.inmem)) return 1;
  std::printf("replicated (in-mem)  %12.0f records/s\n", r.inmem.records_per_s);
  if (!socket_throughput(iters, &r.socket)) return 1;
  std::printf("replicated (socket)  %12.0f records/s\n",
              r.socket.records_per_s);
  r.inmem_ratio = r.inmem.records_per_s / r.baseline.records_per_s;
  r.socket_ratio = r.socket.records_per_s / r.baseline.records_per_s;
  std::printf("overhead ratios      in-mem %.3f   socket %.3f\n", r.inmem_ratio,
              r.socket_ratio);

  double detect_sum = 0.0;
  double promote_sum = 0.0;
  for (std::size_t i = 0; i < drills; ++i) {
    DrillResult drill;
    if (!run_drill(0xfa11 + i * 7919, &drill)) return 1;
    detect_sum += drill.detect_ms;
    promote_sum += drill.promote_us;
    r.detect_ms_max = std::max(r.detect_ms_max, drill.detect_ms);
    std::printf("drill %zu: kill -> promotion %.1f ms (sim), promote() %.1f us "
                "(wall), %llu post-promotion FlowMods\n",
                i, drill.detect_ms, drill.promote_us,
                static_cast<unsigned long long>(drill.post_promotion_flowmods));
  }
  r.drills = drills;
  r.detect_ms_mean = detect_sum / static_cast<double>(drills);
  r.promote_us_mean = promote_sum / static_cast<double>(drills);
  std::printf("failover detection   %.1f ms mean, %.1f ms max (deadline 2000 ms)\n",
              r.detect_ms_mean, r.detect_ms_max);

  write_json("BENCH_failover.json", r);
  if (baseline_path != nullptr) return check_baseline(baseline_path, r);
  return 0;
}

}  // namespace
}  // namespace dfi

int main(int argc, char** argv) {
  bool smoke = false;
  const char* baseline = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--check-baseline") == 0 && i + 1 < argc) {
      baseline = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--smoke] [--check-baseline <json>]\n",
                   argv[0]);
      return 2;
    }
  }
  return dfi::run(smoke, baseline);
}
