// Ablation: DFI control-plane scale-out (paper Sections V-A and VII:
// "Scaling up could be achieved using multiple DFI Proxy and PCP
// instances" / "running some control-plane components in parallel").
//
// PR 2 turned that deployment advice into a mechanism: the PcpShardPool
// partitions Packet-ins by canonical-flow-tuple hash over N shards, in two
// backends. PR 6 added the batched lock-free datapath: SPSC ingress and
// completion rings per shard, batch submission with one snapshot capture
// per burst, and in-order effect application on the control thread. This
// bench sweeps all of it:
//
//  * "simulated" — the cbench surrogate measures saturation throughput and
//    no-load latency in simulated time (N=1 is the paper's calibrated
//    single PCP; Table I);
//  * "threads" — std::thread workers blocking for their sampled Table II
//    service time (the production PCP blocks on IPC to the ERM / Policy
//    Manager), submitted per packet: throughput scales with in-flight
//    decisions, exactly as before the batched datapath landed;
//  * "threads_batch" — the pure-CPU decision datapath (no timing model): shard
//    count x batch size, submitted through handle_packet_in_batch. This is
//    the section that measures the ring + batching machinery itself —
//    submission, decide, completion drain, in-order apply — with no
//    blocking to hide overhead, and the section the committed baseline
//    gates.
//
// Emits BENCH_scaleout.json. Flags (the PR 4 gate pattern):
//   --smoke                  bounded run for CI: threads_batch sweep only
//   --check-baseline <path>  compare threads_batch throughput against the
//                            committed floors; exits 1 on a >10% shortfall.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/pcp.h"
#include "harness/cbench.h"
#include "harness/report.h"
#include "sim/paper_timing.h"
#include "sim/stats.h"

namespace dfi {
namespace {

constexpr std::size_t kShardSweep[] = {1, 2, 4, 8};
constexpr std::size_t kBatchSweep[] = {1, 16, 64};
constexpr std::size_t kSmokeShardSweep[] = {1, 4};
constexpr std::size_t kSmokeBatchSweep[] = {1, 64};

struct Point {
  std::size_t shards = 0;
  double throughput_fps = 0.0;
  double latency_p50_ms = 0.0;
  double latency_p99_ms = 0.0;
  std::vector<double> shard_hit_rates;
};

struct BatchPoint {
  std::string name;  // "s<shards>_b<batch>", the baseline key
  std::size_t shards = 0;
  std::size_t batch = 0;
  double throughput_fps = 0.0;
  double latency_p50_ms = 0.0;
  double latency_p99_ms = 0.0;
};

// ------------------------------------------------- simulated backend (DES)

Point run_simulated_point(std::size_t shards) {
  CbenchConfig config;
  config.dfi.pcp.shards = shards;
  config.dfi.pcp.queue_capacity = 96;
  config.seed = 0x5ca1e + shards;
  CbenchEmulator bench(config);

  Point point;
  point.shards = shards;
  const SampleStats latency = bench.run_latency_mode(300);
  point.latency_p50_ms = latency.percentile(50.0);
  point.latency_p99_ms = latency.percentile(99.0);
  point.throughput_fps = bench.find_saturation(200.0, 200.0, 14000.0, seconds(10.0));
  for (std::size_t s = 0; s < bench.dfi().pcp().shard_count(); ++s) {
    point.shard_hit_rates.push_back(bench.dfi().pcp().decision_cache_stats(s).hit_rate());
  }
  return point;
}

// -------------------------------------------------------- shared workload

// Fig. 4-style traffic: a fixed host population with flows drawn from a
// bounded tuple set, so they repeat (per-shard decision caches see hits)
// and hash across shards and ports.
std::vector<PacketInMsg> make_tuples(std::size_t count) {
  constexpr std::size_t kHosts = 64;
  std::vector<PacketInMsg> tuples;
  tuples.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t src = i % kHosts;
    const std::size_t dst = (i * 7 + 1) % kHosts;
    const Packet packet = make_tcp_packet(
        MacAddress::from_u64(src + 1), MacAddress::from_u64(dst + 1),
        Ipv4Address(static_cast<std::uint32_t>(0x0a000100 + src)),
        Ipv4Address(static_cast<std::uint32_t>(0x0a000100 + dst)),
        static_cast<std::uint16_t>(40000 + i % 16), 445);
    PacketInMsg msg;
    msg.in_port = PortNo{static_cast<std::uint32_t>(src % 8 + 1)};
    msg.table_id = 0;
    msg.data = packet.serialize();
    tuples.push_back(std::move(msg));
  }
  return tuples;
}

// ------------------------------------------- threaded backend (wall clock)

// Table II blocking workload, per-packet submission: unchanged from PR 2 so
// the section stays comparable across this bench's history.
Point run_threaded_point(std::size_t shards) {
  constexpr std::size_t kTuples = 256;
  constexpr std::size_t kPackets = 400;

  Simulator sim;
  MessageBus bus;
  EntityResolutionManager erm(bus);
  PolicyManager manager(bus);
  PcpConfig config;
  config.backend = PcpBackend::kThreads;
  config.shards = shards;
  config.queue_capacity = 64;
  PaperTiming timing(sim, shards, config.queue_capacity, 1.0, 11);
  PolicyCompilationPoint pcp(bus, erm, manager, config, &timing);
  pcp.register_switch(Dpid{1}, [](const OfMessage&) {});

  PolicyRule allow;
  allow.action = PolicyAction::kAllow;
  manager.insert(allow, PdpPriority{10}, "bench");

  const std::vector<PacketInMsg> tuples = make_tuples(kTuples);

  using Clock = std::chrono::steady_clock;
  std::vector<Clock::time_point> submitted(kPackets);
  SampleStats sojourn_ms;

  const Clock::time_point start = Clock::now();
  for (std::size_t i = 0; i < kPackets; ++i) {
    submitted[i] = Clock::now();
    const auto done = [&sojourn_ms, &submitted, i](const PcpDecision&) {
      sojourn_ms.add(std::chrono::duration<double, std::milli>(
                         Clock::now() - submitted[i])
                         .count());
    };
    // Open loop with a bounded shard queue: on rejection, release finished
    // decisions and retry. Workers are blocked in service waits, so the
    // retry loop naps instead of spinning.
    while (!pcp.handle_packet_in(Dpid{1}, tuples[i % kTuples], done)) {
      if (pcp.poll_completions() == 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    }
    pcp.poll_completions();
  }
  pcp.wait_idle();
  const double elapsed_s =
      std::chrono::duration<double>(Clock::now() - start).count();

  Point point;
  point.shards = shards;
  point.throughput_fps = static_cast<double>(kPackets) / elapsed_s;
  point.latency_p50_ms = sojourn_ms.percentile(50.0);
  point.latency_p99_ms = sojourn_ms.percentile(99.0);
  for (std::size_t s = 0; s < pcp.shard_count(); ++s) {
    point.shard_hit_rates.push_back(pcp.decision_cache_stats(s).hit_rate());
  }
  return point;
}

// --------------------------------------- batched datapath (pure CPU cost)

// The machinery measurement: without the timing model there is no modelled
// Table II blocking, so what remains is exactly the cost the batched
// datapath is built to shrink — per-decision submission, ring transfer, snapshot
// acquisition, decide, completion drain and in-order apply. Decisions/s
// here is end to end: a packet counts only once its effects have applied
// on the control thread.
BatchPoint run_threaded_batch_point(std::size_t shards, std::size_t batch,
                                    std::size_t packets) {
  constexpr std::size_t kTuples = 256;

  MessageBus bus;
  EntityResolutionManager erm(bus);
  PolicyManager manager(bus);
  PcpConfig config;
  config.backend = PcpBackend::kThreads;
  config.shards = shards;
  config.queue_capacity = 512;
  PolicyCompilationPoint pcp(bus, erm, manager, config);
  pcp.register_switch(Dpid{1}, [](const OfMessage&) {});

  PolicyRule allow;
  allow.action = PolicyAction::kAllow;
  manager.insert(allow, PdpPriority{10}, "bench");

  const std::vector<PacketInMsg> tuples = make_tuples(kTuples);

  using Clock = std::chrono::steady_clock;
  SampleStats sojourn_ms;
  std::vector<PolicyCompilationPoint::BatchItem> items;
  std::size_t sent = 0;
  std::size_t next_tuple = 0;

  const Clock::time_point start = Clock::now();
  while (sent < packets) {
    const std::size_t n = std::min(batch, packets - sent);
    items.clear();
    items.resize(n);
    const Clock::time_point burst_at = Clock::now();
    for (std::size_t i = 0; i < n; ++i) {
      items[i].input = make_decision_input(Dpid{1}, tuples[next_tuple++ % kTuples]);
      items[i].done = [&sojourn_ms, burst_at](const PcpDecision&) {
        sojourn_ms.add(std::chrono::duration<double, std::milli>(Clock::now() -
                                                                 burst_at)
                           .count());
      };
    }
    const std::size_t accepted = pcp.handle_packet_in_batch(items);
    sent += accepted;
    // Open loop under backpressure: a rejected item's message and callback
    // were consumed with the attempt (exactly like per-packet submission),
    // so the next burst regenerates instead of resubmitting; drain
    // completions to free ring space either way.
    if (pcp.poll_completions() == 0 && accepted < n) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }
  pcp.wait_idle();
  const double elapsed_s =
      std::chrono::duration<double>(Clock::now() - start).count();

  BatchPoint point;
  point.name = "s" + std::to_string(shards) + "_b" + std::to_string(batch);
  point.shards = shards;
  point.batch = batch;
  point.throughput_fps = static_cast<double>(packets) / elapsed_s;
  point.latency_p50_ms = sojourn_ms.percentile(50.0);
  point.latency_p99_ms = sojourn_ms.percentile(99.0);
  return point;
}

// ----------------------------------------------------------------- report

void append_json(std::ofstream& out, const char* backend,
                 const std::vector<Point>& points) {
  out << "  \"" << backend << "\": [\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const Point& p = points[i];
    out << "    {\"shards\": " << p.shards
        << ", \"throughput_fps\": " << p.throughput_fps
        << ", \"latency_p50_ms\": " << p.latency_p50_ms
        << ", \"latency_p99_ms\": " << p.latency_p99_ms << ", \"shard_hit_rates\": [";
    for (std::size_t s = 0; s < p.shard_hit_rates.size(); ++s) {
      out << (s > 0 ? ", " : "") << p.shard_hit_rates[s];
    }
    out << "]}" << (i + 1 < points.size() ? "," : "") << "\n";
  }
  out << "  ]";
}

void append_batch_json(std::ofstream& out, const std::vector<BatchPoint>& points) {
  out << "  \"threads_batch\": [\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const BatchPoint& p = points[i];
    out << "    {\"point\": \"" << p.name << "\", \"shards\": " << p.shards
        << ", \"batch\": " << p.batch
        << ", \"throughput_fps\": " << p.throughput_fps
        << ", \"latency_p50_ms\": " << p.latency_p50_ms
        << ", \"latency_p99_ms\": " << p.latency_p99_ms << "}"
        << (i + 1 < points.size() ? "," : "") << "\n";
  }
  out << "  ]";
}

void print_report(const char* title, const std::vector<Point>& points) {
  Report report(title);
  report.columns({"shards", "throughput (flows/s)", "latency p50 (ms)",
                  "latency p99 (ms)", "scaling vs 1 shard"});
  const double base = points.empty() ? 0.0 : points.front().throughput_fps;
  for (const Point& p : points) {
    report.row({std::to_string(p.shards), Report::fmt(p.throughput_fps, 0),
                Report::fmt(p.latency_p50_ms), Report::fmt(p.latency_p99_ms),
                Report::fmt(base > 0 ? p.throughput_fps / base : 0.0, 1) + "x"});
  }
  report.print();
}

void print_batch_report(const std::vector<BatchPoint>& points) {
  Report report("Batched datapath: decisions/s (no timing model, pure CPU cost)");
  report.columns({"shards", "batch", "decisions/s", "latency p50 (ms)",
                  "latency p99 (ms)"});
  for (const BatchPoint& p : points) {
    report.row({std::to_string(p.shards), std::to_string(p.batch),
                Report::fmt(p.throughput_fps, 0), Report::fmt(p.latency_p50_ms),
                Report::fmt(p.latency_p99_ms)});
  }
  report.print();
}

// ----------------------------------------------------------- baseline gate

// Minimal extractor for our own baseline shape: the value following
// `"point": "<name>" ... "throughput_fps": `.
bool baseline_floor(const std::string& json, const std::string& point, double* out) {
  const auto point_pos = json.find("\"point\": \"" + point + "\"");
  if (point_pos == std::string::npos) return false;
  const auto key_pos = json.find("\"throughput_fps\": ", point_pos);
  if (key_pos == std::string::npos) return false;
  *out = std::strtod(json.c_str() + key_pos + std::strlen("\"throughput_fps\": "),
                     nullptr);
  return true;
}

int check_baseline(const char* path, const std::vector<BatchPoint>& points) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "FAIL: cannot read baseline %s\n", path);
    return 1;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string json = buffer.str();
  int failures = 0;
  for (const BatchPoint& p : points) {
    double floor = 0.0;
    if (!baseline_floor(json, p.name, &floor)) {
      std::fprintf(stderr, "FAIL: baseline %s has no point \"%s\"\n", path,
                   p.name.c_str());
      ++failures;
      continue;
    }
    // The committed floors are already conservative for shared CI machines;
    // >10% below one is a datapath regression.
    if (p.throughput_fps < 0.9 * floor) {
      std::fprintf(stderr,
                   "FAIL: point %s %.0f decisions/s regressed >10%% below "
                   "baseline floor %.0f\n",
                   p.name.c_str(), p.throughput_fps, floor);
      ++failures;
    } else {
      std::printf("baseline ok: %-8s %10.0f decisions/s (floor %.0f)\n",
                  p.name.c_str(), p.throughput_fps, floor);
    }
  }
  return failures == 0 ? 0 : 1;
}

int run(bool smoke, const char* baseline_path) {
  std::printf("DFI reproduction — ablation: sharded PCP scale-out%s\n",
              smoke ? " (smoke)" : "");

  std::vector<Point> simulated;
  std::vector<Point> threaded;
  if (!smoke) {
    for (const std::size_t shards : kShardSweep) {
      simulated.push_back(run_simulated_point(shards));
      std::printf("simulated shards=%zu: %.0f flows/s\n", shards,
                  simulated.back().throughput_fps);
    }
    for (const std::size_t shards : kShardSweep) {
      threaded.push_back(run_threaded_point(shards));
      std::printf("threads   shards=%zu: %.0f flows/s\n", shards,
                  threaded.back().throughput_fps);
    }
  }

  const std::size_t batch_packets = smoke ? 6000 : 24000;
  std::vector<BatchPoint> batched;
  const auto shard_sweep = smoke ? std::vector<std::size_t>(std::begin(kSmokeShardSweep),
                                                            std::end(kSmokeShardSweep))
                                 : std::vector<std::size_t>(std::begin(kShardSweep),
                                                            std::end(kShardSweep));
  const auto batch_sweep = smoke ? std::vector<std::size_t>(std::begin(kSmokeBatchSweep),
                                                            std::end(kSmokeBatchSweep))
                                 : std::vector<std::size_t>(std::begin(kBatchSweep),
                                                            std::end(kBatchSweep));
  for (const std::size_t shards : shard_sweep) {
    for (const std::size_t batch : batch_sweep) {
      batched.push_back(run_threaded_batch_point(shards, batch, batch_packets));
      std::printf("batch     shards=%zu batch=%-3zu: %.0f decisions/s\n", shards,
                  batch, batched.back().throughput_fps);
    }
  }

  if (!smoke) {
    print_report("Simulated backend: saturation throughput vs shards (DES)",
                 simulated);
    print_report("Thread backend: wall-clock throughput vs shards (Table II "
                 "blocking)",
                 threaded);
  }
  print_batch_report(batched);

  std::ofstream out("BENCH_scaleout.json");
  out << "{\n";
  if (!smoke) {
    append_json(out, "simulated", simulated);
    out << ",\n";
    append_json(out, "threads", threaded);
    out << ",\n";
  }
  append_batch_json(out, batched);
  out << "\n}\n";
  std::printf("wrote BENCH_scaleout.json\n");

  if (!smoke && threaded.size() >= 3 && threaded[0].throughput_fps > 0) {
    std::printf("thread backend scaling at 4 shards: %.2fx\n",
                threaded[2].throughput_fps / threaded[0].throughput_fps);
  }
  if (baseline_path != nullptr) return check_baseline(baseline_path, batched);
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
      std::fprintf(stderr, "usage: %s [--smoke] [--check-baseline <json>]\n", argv[0]);
      return 2;
    }
  }
  return dfi::run(smoke, baseline);
}
