// Policy-engine micro-benchmark: linear scan vs the tuple-space classifier,
// and the PCP decision-cache hit rate under a Fig. 4-style repeated-flow
// workload.
//
// Two outputs:
//   * google-benchmark timings (BM_*) for interactive use;
//   * BENCH_policy_index.json — machine-readable scan-vs-index latency at
//     10/100/1k/10k rules plus the decision-cache counters, written before
//     the google-benchmark run so CI can consume it cheaply.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <random>
#include <vector>

#include "bus/message_bus.h"
#include "common/rng.h"
#include "core/pcp.h"
#include "core/policy_manager.h"

namespace dfi {
namespace {

// Identifier pools scale with the rule count so each value names few rules
// (an enterprise policy names many distinct endpoints, not one): the index
// win comes from pruning, not from a degenerate layout where every rule
// shares one key.
struct Pools {
  std::vector<Ipv4Address> ips;
  std::vector<Username> users;

  explicit Pools(std::size_t rule_count) {
    const std::size_t ip_count = std::max<std::size_t>(8, rule_count / 8);
    const std::size_t user_count = std::max<std::size_t>(4, rule_count / 16);
    ips.reserve(ip_count);
    for (std::size_t i = 0; i < ip_count; ++i) {
      ips.push_back(Ipv4Address(static_cast<std::uint32_t>(0x0a000000 + i + 1)));
    }
    users.reserve(user_count);
    for (std::size_t i = 0; i < user_count; ++i) {
      users.push_back(Username{"user" + std::to_string(i)});
    }
  }
};

void fill_rules(PolicyManager& manager, std::size_t count, const Pools& pools,
                std::mt19937& rng) {
  std::uniform_int_distribution<std::size_t> pick_ip(0, pools.ips.size() - 1);
  std::uniform_int_distribution<std::size_t> pick_user(0, pools.users.size() - 1);
  std::uniform_int_distribution<int> pick_priority(1, 4);
  for (std::size_t i = 0; i < count; ++i) {
    PolicyRule rule;
    rule.action = (i % 3 == 0) ? PolicyAction::kDeny : PolicyAction::kAllow;
    if (i % 20 == 0) {
      rule.destination.l4_port = 445;  // port-only rule (no address or name)
    } else if (i % 2 == 0) {
      rule.source.ip = pools.ips[pick_ip(rng)];
      if (i % 4 == 0) rule.destination.l4_port = 80;
    } else {
      rule.source.user = pools.users[pick_user(rng)];
    }
    manager.insert(rule,
                   PdpPriority{static_cast<std::uint32_t>(pick_priority(rng) * 10)},
                   "bench");
  }
}

std::vector<FlowView> make_flows(std::size_t count, const Pools& pools,
                                 std::mt19937& rng) {
  std::uniform_int_distribution<std::size_t> pick_ip(0, pools.ips.size() - 1);
  std::uniform_int_distribution<std::size_t> pick_user(0, pools.users.size() - 1);
  std::vector<FlowView> flows;
  flows.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    FlowView flow;
    flow.ether_type = 0x0800;
    flow.ip_proto = 6;
    flow.src.ip = pools.ips[pick_ip(rng)];
    flow.src.mac = MacAddress::from_u64(i + 1);
    flow.src.usernames = {pools.users[pick_user(rng)]};
    flow.dst.ip = pools.ips[pick_ip(rng)];
    flow.dst.l4_port = (i % 2 == 0) ? 445 : 80;
    flows.push_back(std::move(flow));
  }
  return flows;
}

// ---------------------------------------------------- google-benchmark

void BM_PolicyQueryLinear(benchmark::State& state) {
  MessageBus bus;
  PolicyManager manager(bus);
  std::mt19937 rng(1);
  const Pools pools(static_cast<std::size_t>(state.range(0)));
  fill_rules(manager, static_cast<std::size_t>(state.range(0)), pools, rng);
  const auto flows = make_flows(256, pools, rng);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(manager.query_linear(flows[i++ % flows.size()]));
  }
}
BENCHMARK(BM_PolicyQueryLinear)->Arg(10)->Arg(100)->Arg(1000)->Arg(10000);

void BM_PolicyQueryIndexed(benchmark::State& state) {
  MessageBus bus;
  PolicyManager manager(bus);
  std::mt19937 rng(1);
  const Pools pools(static_cast<std::size_t>(state.range(0)));
  fill_rules(manager, static_cast<std::size_t>(state.range(0)), pools, rng);
  const auto flows = make_flows(256, pools, rng);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(manager.query(flows[i++ % flows.size()]));
  }
}
BENCHMARK(BM_PolicyQueryIndexed)->Arg(10)->Arg(100)->Arg(1000)->Arg(10000);

void BM_DecisionCacheHit(benchmark::State& state) {
  DecisionCache<int> cache(1024);
  const Packet packet =
      make_tcp_packet(MacAddress::from_u64(0xa), MacAddress::from_u64(0xb),
                      Ipv4Address(10, 0, 0, 1), Ipv4Address(10, 0, 0, 2), 1000, 445);
  const FlowKey key = FlowKey::from_packet(Dpid{1}, PortNo{5}, packet);
  cache.store(key, 1, 1, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.lookup(key, 1, 1));
  }
}
BENCHMARK(BM_DecisionCacheHit);

// ------------------------------------------------- JSON report (manual)

struct ScanPoint {
  std::size_t rules = 0;
  double linear_ns = 0.0;
  double indexed_ns = 0.0;
  double speedup = 0.0;
};

template <typename QueryFn>
double measure_ns_per_query(const std::vector<FlowView>& flows, QueryFn query) {
  using Clock = std::chrono::steady_clock;
  // Warm up once, then repeat whole passes until enough wall time has
  // accumulated for a stable per-query figure.
  for (const FlowView& flow : flows) benchmark::DoNotOptimize(query(flow));
  const auto start = Clock::now();
  std::size_t queries = 0;
  double elapsed_ns = 0.0;
  do {
    for (const FlowView& flow : flows) benchmark::DoNotOptimize(query(flow));
    queries += flows.size();
    elapsed_ns = std::chrono::duration<double, std::nano>(Clock::now() - start).count();
  } while (elapsed_ns < 5e7 && queries < 5'000'000);
  return elapsed_ns / static_cast<double>(queries);
}

ScanPoint measure_scan_point(std::size_t rule_count) {
  MessageBus bus;
  PolicyManager manager(bus);
  std::mt19937 rng(42);
  const Pools pools(rule_count);
  fill_rules(manager, rule_count, pools, rng);
  const auto flows = make_flows(512, pools, rng);
  ScanPoint point;
  point.rules = rule_count;
  point.linear_ns = measure_ns_per_query(
      flows, [&](const FlowView& flow) { return manager.query_linear(flow); });
  point.indexed_ns = measure_ns_per_query(
      flows, [&](const FlowView& flow) { return manager.query(flow); });
  point.speedup = point.indexed_ns > 0 ? point.linear_ns / point.indexed_ns : 0.0;
  return point;
}

// Fig. 4-style workload through the full PCP decision path: a fixed host
// population with warmed identity bindings, traffic drawn from a bounded
// set of flow tuples (flows repeat, as TTFB measurement traffic does), and
// periodic policy churn that invalidates the cache through the epoch.
DecisionCacheStats run_cache_workload(std::uint64_t* packet_ins) {
  constexpr std::size_t kHosts = 64;
  constexpr std::size_t kTuples = 512;
  constexpr std::size_t kPacketIns = 40'000;
  constexpr std::size_t kChurnEvery = 8'000;

  MessageBus bus;
  EntityResolutionManager erm(bus);
  PolicyManager manager(bus);
  PcpConfig config;
  PolicyCompilationPoint pcp(bus, erm, manager, config);
  pcp.register_switch(Dpid{1}, [](const OfMessage&) {});

  std::vector<Ipv4Address> ips;
  for (std::size_t i = 0; i < kHosts; ++i) {
    const auto ip = Ipv4Address(static_cast<std::uint32_t>(0x0a000100 + i));
    ips.push_back(ip);
    BindingEvent host_ip;
    host_ip.kind = BindingKind::kHostIp;
    host_ip.host = Hostname{"host" + std::to_string(i)};
    host_ip.ip = ip;
    erm.apply(host_ip);
    BindingEvent user_host;
    user_host.kind = BindingKind::kUserHost;
    user_host.user = Username{"user" + std::to_string(i % 16)};
    user_host.host = Hostname{"host" + std::to_string(i)};
    erm.apply(user_host);
  }
  for (std::size_t u = 0; u < 16; u += 2) {
    PolicyRule allow;
    allow.action = PolicyAction::kAllow;
    allow.source.user = Username{"user" + std::to_string(u)};
    manager.insert(allow, PdpPriority{10}, "bench");
  }

  // The bounded tuple set, pre-serialized once.
  std::mt19937 rng(9);
  std::uniform_int_distribution<std::size_t> pick_host(0, kHosts - 1);
  std::vector<PacketInMsg> tuples;
  tuples.reserve(kTuples);
  for (std::size_t i = 0; i < kTuples; ++i) {
    const std::size_t src = pick_host(rng);
    const std::size_t dst = (src + 1 + i % (kHosts - 1)) % kHosts;
    const Packet packet = make_tcp_packet(
        MacAddress::from_u64(src + 1), MacAddress::from_u64(dst + 1), ips[src],
        ips[dst], static_cast<std::uint16_t>(40000 + i % 8), 445);
    PacketInMsg msg;
    msg.in_port = PortNo{static_cast<std::uint32_t>(src % 8 + 1)};
    msg.table_id = 0;
    msg.data = packet.serialize();
    tuples.push_back(std::move(msg));
  }

  std::uniform_int_distribution<std::size_t> pick_tuple(0, kTuples - 1);
  for (std::size_t i = 0; i < kPacketIns; ++i) {
    if (i > 0 && i % kChurnEvery == 0) {
      // Policy churn: one insert+revoke pair, bumping the policy epoch.
      PolicyRule deny;
      deny.action = PolicyAction::kDeny;
      deny.destination.l4_port = 23;
      const PolicyRuleId id = manager.insert(deny, PdpPriority{20}, "churn");
      manager.revoke(id);
    }
    pcp.decide(Dpid{1}, tuples[pick_tuple(rng)]);
  }
  *packet_ins = kPacketIns;
  return pcp.decision_cache_stats();
}

void write_json_report(const char* path) {
  std::vector<ScanPoint> points;
  for (const std::size_t rules : {10u, 100u, 1000u, 10000u}) {
    points.push_back(measure_scan_point(rules));
    std::printf("rules=%5zu  linear=%10.1f ns  indexed=%8.1f ns  speedup=%6.1fx\n",
                points.back().rules, points.back().linear_ns,
                points.back().indexed_ns, points.back().speedup);
  }
  std::uint64_t packet_ins = 0;
  const DecisionCacheStats cache = run_cache_workload(&packet_ins);
  std::printf("decision cache: %llu packet-ins, %llu hits, hit rate %.3f\n",
              static_cast<unsigned long long>(packet_ins),
              static_cast<unsigned long long>(cache.hits), cache.hit_rate());

  std::ofstream out(path);
  out << "{\n  \"scan_vs_index\": [\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    out << "    {\"rules\": " << points[i].rules
        << ", \"linear_ns\": " << points[i].linear_ns
        << ", \"indexed_ns\": " << points[i].indexed_ns
        << ", \"speedup\": " << points[i].speedup << "}"
        << (i + 1 < points.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"decision_cache\": {\n"
      << "    \"packet_ins\": " << packet_ins << ",\n"
      << "    \"hits\": " << cache.hits << ",\n"
      << "    \"misses\": " << cache.misses << ",\n"
      << "    \"stale_policy\": " << cache.stale_policy << ",\n"
      << "    \"stale_binding\": " << cache.stale_binding << ",\n"
      << "    \"evictions\": " << cache.evictions << ",\n"
      << "    \"hit_rate\": " << cache.hit_rate() << "\n  }\n}\n";
  std::printf("wrote %s\n", path);
}

}  // namespace
}  // namespace dfi

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  dfi::write_json_report("BENCH_policy_index.json");
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
