#include "workload.h"

#include "common/rng.h"
#include "net/packet.h"
#include "openflow/wire.h"

namespace e2e {

namespace {

dfi::ScaleConfig population(std::uint64_t seed) {
  dfi::ScaleConfig config;
  config.hosts = kHosts;
  // Every host sits behind one of the four emulated switches.
  config.hosts_per_switch = kHosts / kSwitches;
  config.seed = seed;
  return config;
}

// Distinct flows per switch. warm_hits and churn cycle a few hundred;
// cold_misses cycles more than twice the decision cache's 8192 entries.
std::size_t flows_per_switch(WorkloadKind kind) {
  return kind == WorkloadKind::kColdMisses ? 5120 : 64;
}

std::uint64_t mix(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdull;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ull;
  x ^= x >> 33;
  return x;
}

}  // namespace

bool parse_workload(const std::string& name, WorkloadKind* out) {
  if (name == "warm_hits") {
    *out = WorkloadKind::kWarmHits;
  } else if (name == "cold_misses") {
    *out = WorkloadKind::kColdMisses;
  } else if (name == "churn") {
    *out = WorkloadKind::kChurn;
  } else {
    return false;
  }
  return true;
}

const char* workload_name(WorkloadKind kind) {
  switch (kind) {
    case WorkloadKind::kWarmHits: return "warm_hits";
    case WorkloadKind::kColdMisses: return "cold_misses";
    case WorkloadKind::kChurn: return "churn";
  }
  return "?";
}

Workload::Workload(WorkloadKind kind_in, std::uint64_t seed_in)
    : kind(kind_in), seed(seed_in), gen(population(seed_in)) {
  const std::size_t quota = flows_per_switch(kind);
  const std::vector<std::uint32_t> targets = gen.rule_targets(kRules);
  dfi::Rng rng(seed ^ 0x5eedf10ull);
  flows.reserve(quota * kSwitches);
  std::array<std::size_t, kSwitches> filled{};
  std::size_t done = 0;
  while (done < kSwitches) {
    // Each flow is built to match rule j (one rule in five denies): its
    // target host is the pivot endpoint, or its port for the port-only
    // rules, exactly as bench_erm_scale draws probe flows.
    const auto j = static_cast<std::uint32_t>(rng.uniform_int(0, kRules - 1));
    const std::uint32_t target = targets[j];
    auto other = static_cast<std::uint32_t>(rng.uniform_int(0, kHosts - 1));
    if (other == target) other = (other + 1) % kHosts;
    const std::uint32_t pivot = j % 8;
    const bool target_is_dst = pivot == 1 || pivot == 4 || pivot == 6;
    Flow flow;
    flow.src_host = target_is_dst ? other : target;
    flow.dst_host = target_is_dst ? target : other;
    flow.sw = static_cast<std::uint8_t>(gen.switch_of(flow.src_host).value - 1);
    if (filled[flow.sw] == quota) continue;
    if (++filled[flow.sw] == quota) ++done;
    flow.sport = static_cast<std::uint16_t>(1024 + flows.size() % 64000);
    flow.dport = pivot == 7 ? static_cast<std::uint16_t>(1024 + j % 40000) : 445;
    flow.in_port = gen.port_of(flow.src_host).value;
    flow.ip_src = gen.ip_of(flow.src_host).value();
    flow.ip_dst = gen.ip_of(flow.dst_host).value();
    by_switch[flow.sw].push_back(static_cast<std::uint32_t>(flows.size()));
    flows.push_back(flow);
  }
  for (std::uint32_t i = 0; i < flows.size(); ++i) {
    const std::vector<std::uint8_t> frame = dfi::encode(dfi::OfMessage{0, packet_in(i)});
    flows[i].frame_offset = static_cast<std::uint32_t>(frames.size());
    flows[i].frame_size = static_cast<std::uint32_t>(frame.size());
    frames.insert(frames.end(), frame.begin(), frame.end());
  }
  for (const Flow& flow : flows) {
    if (churn_hosts.size() == 64) break;
    bool seen = false;
    for (const std::uint32_t h : churn_hosts) seen = seen || h == flow.src_host;
    if (!seen) churn_hosts.push_back(flow.src_host);
  }
}

std::vector<dfi::PolicyRule> Workload::rules() const { return gen.make_rules(kRules); }

std::uint32_t Workload::rule_priority(std::uint32_t index) {
  // Highest priority first, as bench_erm_scale inserts them: the overlap
  // sweep looks only at strictly-lower buckets, still empty in this order.
  return kPriorityLevels - (index * kPriorityLevels) / kRules;
}

dfi::PolicyRule Workload::churn_rule(std::uint64_t m) const {
  const auto a = static_cast<std::uint32_t>(mix(seed * 0x9e3779b97f4a7c15ull + 2 * m) % kHosts);
  auto b = static_cast<std::uint32_t>(mix(seed * 0x9e3779b97f4a7c15ull + 2 * m + 1) % kHosts);
  if (b == a) b = (b + 1) % kHosts;
  dfi::PolicyRule rule;
  rule.action = m % 2 == 0 ? dfi::PolicyAction::kAllow : dfi::PolicyAction::kDeny;
  rule.properties.ether_type = 0x0800;
  rule.properties.ip_proto = 6;
  rule.source.ip = gen.ip_of(a);
  rule.source.mac = gen.mac_of(a);
  rule.source.user = dfi::Username{gen.user_name(a)};
  rule.source.host = dfi::Hostname{gen.host_name(a)};
  rule.destination.ip = gen.ip_of(b);
  rule.destination.user = dfi::Username{gen.user_name(b)};
  rule.destination.host = dfi::Hostname{gen.host_name(b)};
  rule.destination.l4_port = 22;
  return rule;
}

dfi::BindingEvent Workload::churn_binding(std::uint64_t k) const {
  const std::uint32_t h = churn_hosts[(k / 2) % churn_hosts.size()];
  dfi::BindingEvent event;
  event.kind = dfi::BindingKind::kUserHost;
  event.retracted = k % 2 == 0;  // logged on in the population: log off first
  event.user = dfi::Username{gen.user_name(h)};
  event.host = dfi::Hostname{gen.host_name(h)};
  return event;
}

dfi::PacketInMsg Workload::packet_in(std::uint32_t index) const {
  const Flow& flow = flows[index];
  const dfi::Packet packet = dfi::make_tcp_packet(
      gen.mac_of(flow.src_host), gen.mac_of(flow.dst_host), gen.ip_of(flow.src_host),
      gen.ip_of(flow.dst_host), flow.sport, flow.dport);
  dfi::PacketInMsg msg;
  msg.in_port = dfi::PortNo{flow.in_port};
  msg.table_id = 0;
  msg.data = packet.serialize();
  msg.total_len = static_cast<std::uint16_t>(msg.data.size());
  return msg;
}

}  // namespace e2e
