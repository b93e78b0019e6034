// Million-entity ERM / 100k-rule policy plane scale bench (DESIGN.md §8,
// EXPERIMENTS.md erm_scale).
//
// Sweeps the synthetic enterprise population (testbed/scale_generator.h)
// across entity counts and, per point, measures what the compact entity
// plane promises to keep flat:
//   * decision latency   - decide_on_snapshots() throughput with the
//                          decision cache off (every decision pays spoof
//                          validation, enrichment and the policy query);
//   * snapshot publish   - apply one binding event + snapshot_view(), i.e.
//                          the O(changed) incremental-publication path;
//   * memory             - VmRSS growth per binding during the load.
//
// The rule population is held constant across points so the sweep isolates
// entity-count scaling from rule-count scaling. A second, smaller sweep
// varies the rule count instead:
//   * policy query       - PolicySnapshot::query() throughput on enriched
//                          flows that each match a rule, spread over every
//                          rule shape: what a decision-cache miss pays the
//                          tuple-space classifier (DESIGN.md §3);
//   * policy publication - one revoke plus one insert at the priority
//                          holding half the rules, then PolicyManager::
//                          snapshot_view(): what a PDP write costs before
//                          the next decision can run (the copy-on-write
//                          policy index, DESIGN.md §8).
//
// Every throughput figure is the best of 7 rounds, with the points' rounds
// interleaved, so a drift in the host's speed between a quiet and a slower
// state slows every point alike instead of whichever point it falls on.
//
// Gates (the acceptance criteria, enforced in-process):
//   * decisions/s at the largest point >= half the smallest point (latency
//     stays within 2x from 10k to 1M entities);
//   * publishes/s at the largest point >= a tenth of the smallest point
//     (publication is O(changed), not O(total));
//   * policy publications/s at the largest rule count >= a quarter of the
//     smallest (a rebuild per publication grows linearly instead);
//   * policy queries/s at the largest rule count >= half the next smaller
//     point's (a query that scans a list growing with the rules fails it);
//   * at every entity point, the nodes cloned over each round's binding
//     publishes == the nodes on their writes' tree paths, exactly (a
//     count, so host speed cannot move it);
// plus committed per-point floors via --check-baseline.
//
// Usage:
//   bench_erm_scale                          full sweep (to 1M entities,
//                                            1k, 10k and 100k rules)
//   bench_erm_scale --smoke                  CI-bounded sweep (to 50k
//                                            entities, 1k and 10k rules)
//   bench_erm_scale --check-baseline <json>  also gate against floors
// Env:
//   DFI_SCALE_ENTITIES=<n>  cap the sweep at the largest standard point
//                           with at most n entities (50000 on PR CI,
//                           1000000 nightly).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bus/message_bus.h"
#include "core/decision_cache.h"
#include "core/entity_resolution.h"
#include "core/pcp_decide.h"
#include "core/policy_manager.h"
#include "core/policy_snapshot.h"
#include "net/packet.h"
#include "testbed/scale_generator.h"

namespace dfi {
namespace {

using Clock = std::chrono::steady_clock;

// Timed rounds per throughput figure; each figure keeps its best round.
constexpr int kRounds = 7;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Current resident set size in bytes (Linux /proc; 0 if unreadable).
std::size_t rss_bytes() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::strtoull(line.c_str() + 6, nullptr, 10) * 1024;
    }
  }
  return 0;
}

// What an entity point's timed rounds reuse: the loaded ERM and rules, and
// the Packet-ins with the snapshot pair they are decided on.
struct EntityWorld {
  explicit EntityWorld(const ScaleConfig& config) : gen(config), erm(bus), manager(bus) {}

  ScaleGenerator gen;
  MessageBus bus;
  EntityResolutionManager erm;
  PolicyManager manager;
  std::vector<DecisionInput> inputs;
  DecisionSnapshots snapshots;
};

struct ScalePoint {
  std::string name;
  std::uint32_t hosts = 0;
  std::size_t entities = 0;   // nominal: 4 per host
  std::size_t bindings = 0;
  double load_s = 0;
  double decisions_per_sec = 0;
  double publish_per_sec = 0;
  double rss_per_binding_bytes = 0;
  // Nodes cloned by one round's publishes; a round that differs from the
  // expected count is the one recorded.
  std::uint64_t cow_page_copies = 0;
  std::uint64_t publishes = 0;        // per round
  std::uint64_t expected_clones = 0;  // what cow_page_copies must read
  std::unique_ptr<EntityWorld> world;
};

// Nodes on one write's path through a CowRadixMap holding the ids below
// `ids`: a leaf plus h inner levels, where a root at height h covers the
// ids below 32^(h + 1) and a non-empty tree has one.
std::uint64_t radix_path_nodes(std::uint64_t ids) {
  std::uint64_t nodes = 2;
  for (std::uint64_t covered = 32 * 32; covered < ids; covered *= 32) ++nodes;
  return nodes;
}

// Nodes of `table` that retracting one id from the list under `key` frees:
// none while the list keeps another id; else its leaf, and each inner node
// above it, while `key` is the only key under that node. `table` must hold
// another key.
std::uint64_t nodes_freed(const CowRadixMap<PostingListPtr>& table, EntityId key) {
  if (list_of(table, key)->size() > 1) return 0;
  std::uint64_t freed = 0;
  for (std::uint64_t span = 32;; span *= 32, ++freed) {
    const std::uint64_t first = key.value / span * span;
    for (std::uint64_t k = first; k < first + span; ++k) {
      if (k != key.value && table.find(k) != nullptr) return freed;
    }
  }
}

// Load one entity point and build what time_entity_points times. The
// point stays loaded until every point's rounds are done.
ScalePoint load_point(std::uint32_t hosts, std::uint32_t rules, bool smoke) {
  ScaleConfig config;
  config.hosts = hosts;

  ScalePoint point;
  point.name = "h" + std::to_string(hosts);
  point.hosts = hosts;
  point.entities = std::size_t{hosts} * 4;

  const std::size_t rss_before = rss_bytes();
  point.world = std::make_unique<EntityWorld>(config);
  EntityWorld& world = *point.world;
  const ScaleGenerator& gen = world.gen;
  EntityResolutionManager& erm = world.erm;
  PolicyManager& manager = world.manager;

  // ------------------------------------------------------------- load
  const Clock::time_point load_start = Clock::now();
  gen.emit_initial_bindings([&](const BindingEvent& event) { erm.apply(event); });
  point.load_s = seconds_since(load_start);
  point.bindings = erm.binding_count();
  const std::size_t rss_after = rss_bytes();
  point.rss_per_binding_bytes =
      point.bindings == 0
          ? 0
          : static_cast<double>(rss_after - rss_before) / point.bindings;

  // Constant rule population across points. Highest priority first: the
  // insert-time overlap sweep looks only at strictly-lower rules, of which
  // there are none in this order, so load time measures indexing, not the
  // (separately benched) consistency sweep.
  const std::vector<PolicyRule> rule_pop = gen.make_rules(rules);
  constexpr std::uint32_t kPriorityLevels = 8;
  for (std::uint32_t i = 0; i < rule_pop.size(); ++i) {
    const std::uint32_t level =
        kPriorityLevels - (i * kPriorityLevels) / static_cast<std::uint32_t>(rule_pop.size());
    manager.insert(rule_pop[i], PdpPriority{level}, "scale-bench");
  }

  // ------------------------------------------------- decision latency
  // Pre-built Packet-in population; cache off, so every decision runs
  // spoof validation + enrichment + the policy query. Flow i is built to
  // match a top-priority rule j (its endpoint is the rule's target host, or
  // its port for the port-only rules), so every flow's query does the same
  // work at every population size and the sweep isolates entity-count
  // scaling. Random flows would instead give the small point ~rules/hosts
  // (incidental) matches per flow and the large point almost none —
  // comparing a hit-heavy workload against a miss-heavy one, a rule-density
  // artifact, not an entity-plane cost.
  const std::vector<std::uint32_t> targets = gen.rule_targets(rules);
  constexpr std::size_t kTuples = 512;
  std::vector<DecisionInput>& inputs = world.inputs;
  inputs.reserve(kTuples);
  const std::uint32_t top_level = rules / kPriorityLevels;  // level-8 rules
  for (std::size_t i = 0; i < kTuples; ++i) {
    const std::uint32_t j = static_cast<std::uint32_t>((i * 16001u) % top_level);
    const std::uint32_t t = targets[j];
    const std::uint32_t other = targets[(j + 1) % rules];
    const std::uint32_t kind = j % 8;
    // Kinds 1/4/6 name the destination endpoint; 7 only its port.
    const bool target_is_dst = kind == 1 || kind == 4 || kind == 6;
    const std::uint32_t src = target_is_dst ? other : t;
    const std::uint32_t dst = target_is_dst ? t : other;
    const std::uint16_t dport =
        kind == 7 ? static_cast<std::uint16_t>(1024 + j % 40000) : 445;
    const Packet packet = make_tcp_packet(
        gen.mac_of(src), gen.mac_of(dst), gen.ip_of(src), gen.ip_of(dst),
        static_cast<std::uint16_t>(40000 + i % 1024), dport);
    PacketInMsg msg;
    msg.in_port = gen.port_of(src);
    msg.table_id = 0;
    msg.data = packet.serialize();
    DecisionInput input = make_decision_input(gen.switch_of(src), msg);
    input.prior_src_location = gen.port_of(src);
    inputs.push_back(std::move(input));
  }
  world.snapshots = DecisionSnapshots{erm.snapshot_view(), manager.snapshot_view()};

  // --------------------------------------------- incremental publication
  // One binding event, one publication, repeatedly: the cost under test is
  // exactly what a log-on between two Packet-in bursts costs the control
  // thread. Alternates retract/assert so every event is a real change.
  const std::size_t publishes = smoke ? 2000 : 10000;
  // The clone count this must cost. After a publication a write clones
  // every node on its path that exists: one per level of user_to_hosts
  // (keyed by user ids) and of host_to_users (keyed by host ids). A
  // retraction that empties a key alone under a node frees the node, and
  // the assertion after it creates the node instead of cloning it. Every
  // retract/assert pair starts from the loaded state, and so does every
  // round (it makes an even number of writes).
  point.publishes = publishes;
  {
    const ErmSnapshot loaded = erm.snapshot_view();
    const EntityInterner& names = erm.interner();
    point.expected_clones = publishes * (radix_path_nodes(names.users().size()) +
                                         radix_path_nodes(names.hosts().size()));
    for (std::size_t pair = 0; pair < publishes / 2; ++pair) {
      const std::uint32_t h = static_cast<std::uint32_t>(pair % hosts);
      point.expected_clones -= nodes_freed(loaded.tables().user_to_hosts,
                                           names.users().find(gen.user_name(h)));
      point.expected_clones -= nodes_freed(loaded.tables().host_to_users,
                                           names.hosts().find(gen.host_name(h)));
    }
  }
  point.cow_page_copies = point.expected_clones;
  return point;
}

// Decision and incremental-publication throughput per entity point, the
// best of kRounds interleaved rounds; every round's publishes must clone
// exactly the expected nodes.
void time_entity_points(std::vector<ScalePoint>& points, bool smoke) {
  PcpConfig pcp_config;
  pcp_config.decision_cache_capacity = 0;
  DecisionCache<PcpDecision> cache(0);
  const std::size_t decisions = smoke ? 20000 : 100000;
  std::vector<std::size_t> allowed(points.size());
  for (int round = 0; round < kRounds; ++round) {
    for (std::size_t k = 0; k < points.size(); ++k) {
      ScalePoint& point = points[k];
      EntityWorld& world = *point.world;
      const std::vector<DecisionInput>& inputs = world.inputs;

      allowed[k] = 0;
      const Clock::time_point decide_start = Clock::now();
      for (std::size_t i = 0; i < decisions; ++i) {
        const DecisionEffects effects = decide_on_snapshots(
            inputs[i % inputs.size()], world.snapshots, cache, pcp_config);
        allowed[k] += effects.decision.allow ? 1 : 0;
      }
      point.decisions_per_sec =
          std::max(point.decisions_per_sec,
                   static_cast<double>(decisions) / seconds_since(decide_start));

      const std::uint64_t cow_before = world.erm.cow_stats().page_copies;
      const Clock::time_point publish_start = Clock::now();
      for (std::size_t i = 0; i < point.publishes; ++i) {
        BindingEvent event;
        event.kind = BindingKind::kUserHost;
        event.retracted = (i % 2 == 0);
        const std::uint32_t h = static_cast<std::uint32_t>((i / 2) % point.hosts);
        event.user = Username{world.gen.user_name(h)};
        event.host = Hostname{world.gen.host_name(h)};
        world.erm.apply(event);
        const ErmSnapshot snap = world.erm.snapshot_view();
        if (snap.epoch() == 0) std::abort();  // keep the loop un-elidable
      }
      point.publish_per_sec =
          std::max(point.publish_per_sec,
                   static_cast<double>(point.publishes) / seconds_since(publish_start));
      const std::uint64_t clones = world.erm.cow_stats().page_copies - cow_before;
      if (clones != point.expected_clones) point.cow_page_copies = clones;
    }
  }
  for (std::size_t k = 0; k < points.size(); ++k) {
    const ScalePoint& point = points[k];
    std::printf(
        "%-8s %9zu entities %9zu bindings  load %6.2fs  %9.0f decisions/s "
        "(%zu allowed)  %8.0f publishes/s  %5.0f B/binding  %llu nodes cloned\n",
        point.name.c_str(), point.entities, point.bindings, point.load_s,
        point.decisions_per_sec, allowed[k], point.publish_per_sec,
        point.rss_per_binding_bytes,
        static_cast<unsigned long long>(point.cow_page_copies));
  }
}

// What a policy point's publication rounds reuse: the loaded manager, the
// rules the timed writes revoke and re-insert (with their current ids), and
// the publication a PCP would hold.
struct PolicyWorld {
  PolicyWorld() : manager(bus) {}

  MessageBus bus;
  PolicyManager manager;
  std::vector<PolicyRule> pop;
  std::vector<std::pair<PolicyRuleId, std::uint32_t>> victims;
  std::shared_ptr<const PolicySnapshot> held;
};

struct PolicyPoint {
  std::string name;
  std::uint32_t rules = 0;
  double query_per_sec = 0;
  double publish_per_sec = 0;
  double clones_per_publish = 0;  // copy-on-write nodes per revoke+insert
  // The loaded rules, frozen before the publication rounds, and flows that
  // each match one of them: what time_queries times.
  std::shared_ptr<const PolicySnapshot> snapshot;
  std::vector<FlowView> flows;
  std::unique_ptr<PolicyWorld> world;
};

// The enriched flow the ERM hands the policy query for a Packet-in built
// to match rule j of make_rules (as load_point builds its Packet-ins): the
// rule's target host is the endpoint the rule names, or the flow carries
// the rule's port for the port-only rules.
FlowView rule_flow(const ScaleGenerator& gen, const std::vector<std::uint32_t>& targets,
                   std::uint32_t j) {
  const std::uint32_t t = targets[j];
  const std::uint32_t other = targets[(j + 1) % targets.size()];
  const std::uint32_t kind = j % 8;
  const bool target_is_dst = kind == 1 || kind == 4 || kind == 6;
  const std::uint32_t src = target_is_dst ? other : t;
  const std::uint32_t dst = target_is_dst ? t : other;
  const auto endpoint = [&gen](std::uint32_t host, EndpointView& view) {
    view.mac = gen.mac_of(host);
    view.ip = gen.ip_of(host);
    view.switch_port = gen.port_of(host);
    view.hostnames = {Hostname{gen.host_name(host)}};
    view.usernames = {Username{gen.user_name(host)}};
  };
  FlowView flow;
  flow.ether_type = 0x0800;
  flow.ip_proto = 6;
  endpoint(src, flow.src);
  endpoint(dst, flow.dst);
  flow.src.dpid = gen.switch_of(src);
  flow.src.l4_port = static_cast<std::uint16_t>(40000 + j % 1024);
  flow.dst.l4_port = kind == 7 ? static_cast<std::uint16_t>(1024 + j % 40000) : 445;
  return flow;
}

// Load one policy point; time_policy_publication and time_queries time it.
PolicyPoint load_policy_point(std::uint32_t rules) {
  ScaleConfig config;
  config.hosts = rules;  // distinct rule values, like an enterprise policy
  ScaleGenerator gen(config);
  auto world = std::make_unique<PolicyWorld>();
  PolicyManager& manager = world->manager;

  // Half the rules sit at the lowest priority, the PDP whose writes are
  // timed; the rest spread over seven levels above it. Loaded highest
  // level first, so each insert's consistency sweep finds nothing below
  // (as in load_point), and the timed writes at the lowest level have no
  // lower rule to sweep either: the loop times the write and the
  // publication, not the (separately benched) sweep.
  world->pop = gen.make_rules(rules);
  const std::vector<PolicyRule>& pop = world->pop;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> order;  // (level, rule)
  for (std::uint32_t i = 0; i < rules; ++i) {
    order.emplace_back(i % 2 == 0 ? 1 : 2 + (i / 2) % 7, i);
  }
  std::stable_sort(order.begin(), order.end(),
                   [](const auto& a, const auto& b) { return a.first > b.first; });
  for (const auto& [level, i] : order) {
    const PolicyRuleId id = manager.insert(pop[i], PdpPriority{level}, "scale-bench");
    if (level == 1) world->victims.emplace_back(id, i);
  }

  PolicyPoint point;
  point.name = "r" + std::to_string(rules);
  point.rules = rules;
  // Query probes: flows matching rules at every priority, of every shape.
  const std::vector<std::uint32_t> targets = gen.rule_targets(rules);
  for (std::uint32_t f = 0; f < 512; ++f) {
    point.flows.push_back(rule_flow(
        gen, targets, static_cast<std::uint32_t>((std::uint64_t{f} * 16001u) % rules)));
  }
  point.snapshot = manager.snapshot_view();
  // The previous snapshot stays held, as a PCP holds it until its next
  // decision, so every write path-copies against a live publication.
  world->held = manager.snapshot_view();
  point.world = std::move(world);
  return point;
}

// Policy publication throughput per point (one revoke plus one insert at
// the lowest priority, then snapshot_view()), the best of kRounds
// interleaved rounds; clones_per_publish averages every round.
void time_policy_publication(std::vector<PolicyPoint>& points, bool smoke) {
  const std::size_t writes = smoke ? 2000 : 10000;
  std::vector<std::uint64_t> clones(points.size());
  for (int round = 0; round < kRounds; ++round) {
    for (std::size_t k = 0; k < points.size(); ++k) {
      PolicyWorld& world = *points[k].world;
      const CowTableStats before = world.manager.cow_stats();
      const Clock::time_point start = Clock::now();
      for (std::size_t w = 0; w < writes; ++w) {
        auto& [id, i] = world.victims[(w * 7919) % world.victims.size()];
        if (!world.manager.revoke(id)) std::abort();
        id = world.manager.insert(world.pop[i], PdpPriority{1}, "scale-bench");
        world.held = world.manager.snapshot_view();
      }
      points[k].publish_per_sec = std::max(
          points[k].publish_per_sec, static_cast<double>(writes) / seconds_since(start));
      const CowTableStats after = world.manager.cow_stats();
      clones[k] += after.page_copies - before.page_copies + after.root_copies -
                   before.root_copies;
    }
  }
  for (std::size_t k = 0; k < points.size(); ++k) {
    points[k].clones_per_publish =
        static_cast<double>(clones[k]) / static_cast<double>(writes * kRounds);
  }
}

// PolicySnapshot::query() throughput per point, the best of kRounds
// interleaved rounds. Every probe flow must match a rule.
void time_queries(std::vector<PolicyPoint>& points, bool smoke) {
  const std::size_t per_round = smoke ? 20000 : 50000;
  for (int round = 0; round < kRounds; ++round) {
    for (PolicyPoint& p : points) {
      std::size_t unmatched = 0;
      const Clock::time_point start = Clock::now();
      for (std::size_t q = 0; q < per_round; ++q) {
        unmatched += p.snapshot->query(p.flows[q % p.flows.size()]).default_deny ? 1 : 0;
      }
      const double rate = static_cast<double>(per_round) / seconds_since(start);
      if (unmatched != 0) {
        std::fprintf(stderr, "FAIL: %s: %zu of %zu probe flows matched no rule\n",
                     p.name.c_str(), unmatched, per_round);
        std::abort();
      }
      p.query_per_sec = std::max(p.query_per_sec, rate);
    }
  }
  for (const PolicyPoint& p : points) {
    std::printf("%-8s %9u rules  %9.0f queries/s  %8.0f revoke+insert+publish/s  "
                "%5.1f nodes cloned each\n",
                p.name.c_str(), p.rules, p.query_per_sec, p.publish_per_sec,
                p.clones_per_publish);
  }
}

void write_json(const char* path, const std::vector<ScalePoint>& points,
                const std::vector<PolicyPoint>& policy_points, double decision_ratio,
                double publish_ratio, double policy_ratio, double query_ratio) {
  std::ofstream out(path);
  out << "{\n  \"bench\": \"erm_scale\",\n  \"points\": [\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const ScalePoint& p = points[i];
    out << "    {\"point\": \"" << p.name << "\", \"hosts\": " << p.hosts
        << ", \"entities\": " << p.entities << ", \"bindings\": " << p.bindings
        << ", \"load_s\": " << p.load_s
        << ", \"decisions_per_sec\": " << p.decisions_per_sec
        << ", \"publish_per_sec\": " << p.publish_per_sec
        << ", \"rss_per_binding_bytes\": " << p.rss_per_binding_bytes
        << ", \"cow_page_copies\": " << p.cow_page_copies << "}"
        << (i + 1 < points.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"policy_points\": [\n";
  for (std::size_t i = 0; i < policy_points.size(); ++i) {
    const PolicyPoint& p = policy_points[i];
    out << "    {\"point\": \"" << p.name << "\", \"rules\": " << p.rules
        << ", \"policy_query_per_sec\": " << p.query_per_sec
        << ", \"policy_publish_per_sec\": " << p.publish_per_sec
        << ", \"clones_per_publish\": " << p.clones_per_publish << "}"
        << (i + 1 < policy_points.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"gates\": {\"decision_ratio\": " << decision_ratio
      << ", \"publish_ratio\": " << publish_ratio
      << ", \"policy_publish_ratio\": " << policy_ratio
      << ", \"policy_query_ratio\": " << query_ratio << "}\n}\n";
}

// Minimal scan: the numeric value of `key` inside the baseline object whose
// "point" equals `point`.
bool baseline_value(const std::string& json, const std::string& point,
                    const char* key, double* out) {
  const std::string anchor = "\"point\": \"" + point + "\"";
  std::size_t at = json.find(anchor);
  if (at == std::string::npos) return false;
  const std::size_t end = json.find('}', at);
  const std::string want = std::string("\"") + key + "\":";
  const std::size_t k = json.find(want, at);
  if (k == std::string::npos || k > end) return false;
  *out = std::strtod(json.c_str() + k + want.size(), nullptr);
  return true;
}

int check_baseline(const char* path, const std::vector<ScalePoint>& points,
                   const std::vector<PolicyPoint>& policy_points) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "FAIL: cannot read baseline %s\n", path);
    return 1;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string json = buffer.str();
  int failures = 0;
  for (const ScalePoint& p : points) {
    double decide_floor = 0, publish_floor = 0, rss_ceiling = 0;
    if (!baseline_value(json, p.name, "decisions_per_sec_floor", &decide_floor) ||
        !baseline_value(json, p.name, "publish_per_sec_floor", &publish_floor) ||
        !baseline_value(json, p.name, "rss_per_binding_ceiling", &rss_ceiling)) {
      std::fprintf(stderr, "FAIL: baseline %s lacks point \"%s\"\n", path,
                   p.name.c_str());
      ++failures;
      continue;
    }
    // Floors are committed far below quiet-machine measurements; >10%
    // under one is a scaling regression, not noise.
    if (p.decisions_per_sec < 0.9 * decide_floor) {
      std::fprintf(stderr, "FAIL: %s %.0f decisions/s under floor %.0f\n",
                   p.name.c_str(), p.decisions_per_sec, decide_floor);
      ++failures;
    }
    if (p.publish_per_sec < 0.9 * publish_floor) {
      std::fprintf(stderr, "FAIL: %s %.0f publishes/s under floor %.0f\n",
                   p.name.c_str(), p.publish_per_sec, publish_floor);
      ++failures;
    }
    if (rss_ceiling > 0 && p.rss_per_binding_bytes > rss_ceiling) {
      std::fprintf(stderr, "FAIL: %s %.0f B/binding over ceiling %.0f\n",
                   p.name.c_str(), p.rss_per_binding_bytes, rss_ceiling);
      ++failures;
    }
    if (failures == 0) {
      std::printf("baseline ok: %-8s %9.0f decisions/s  %8.0f publishes/s  "
                  "%5.0f B/binding\n",
                  p.name.c_str(), p.decisions_per_sec, p.publish_per_sec,
                  p.rss_per_binding_bytes);
    }
  }
  for (const PolicyPoint& p : policy_points) {
    double publish_floor = 0, query_floor = 0;
    if (!baseline_value(json, p.name, "policy_publish_per_sec_floor", &publish_floor) ||
        !baseline_value(json, p.name, "policy_query_per_sec_floor", &query_floor)) {
      std::fprintf(stderr, "FAIL: baseline %s lacks point \"%s\"\n", path,
                   p.name.c_str());
      ++failures;
      continue;
    }
    bool ok = true;
    if (p.query_per_sec < 0.9 * query_floor) {
      std::fprintf(stderr, "FAIL: %s %.0f policy queries/s under floor %.0f\n",
                   p.name.c_str(), p.query_per_sec, query_floor);
      ok = false;
    }
    if (p.publish_per_sec < 0.9 * publish_floor) {
      std::fprintf(stderr, "FAIL: %s %.0f policy publishes/s under floor %.0f\n",
                   p.name.c_str(), p.publish_per_sec, publish_floor);
      ok = false;
    }
    if (ok) {
      std::printf("baseline ok: %-8s %9.0f policy queries/s  %9.0f policy publishes/s\n",
                  p.name.c_str(), p.query_per_sec, p.publish_per_sec);
    } else {
      ++failures;
    }
  }
  return failures == 0 ? 0 : 1;
}

int run(bool smoke, const char* baseline_path) {
  // Standard points (entities = 4x hosts). Smoke tops out at 50k entities,
  // the full sweep at 1M; DFI_SCALE_ENTITIES caps either.
  std::vector<std::uint32_t> hosts =
      smoke ? std::vector<std::uint32_t>{2500, 12500}
            : std::vector<std::uint32_t>{2500, 25000, 250000};
  std::size_t cap = smoke ? 50000 : 1000000;
  if (const char* env = std::getenv("DFI_SCALE_ENTITIES")) {
    cap = std::strtoull(env, nullptr, 10);
  }
  while (hosts.size() > 1 && std::size_t{hosts.back()} * 4 > cap) hosts.pop_back();

  const std::uint32_t rules = smoke ? 5000 : 100000;
  std::vector<ScalePoint> points;
  for (const std::uint32_t h : hosts) points.push_back(load_point(h, rules, smoke));
  time_entity_points(points, smoke);

  std::vector<PolicyPoint> policy_points;
  const std::vector<std::uint32_t> rule_counts =
      smoke ? std::vector<std::uint32_t>{1000, 10000}
            : std::vector<std::uint32_t>{1000, 10000, 100000};
  for (const std::uint32_t n : rule_counts) {
    policy_points.push_back(load_policy_point(n));
  }
  time_policy_publication(policy_points, smoke);
  time_queries(policy_points, smoke);

  const ScalePoint& small = points.front();
  const ScalePoint& large = points.back();
  const double decision_ratio =
      large.decisions_per_sec > 0 ? small.decisions_per_sec / large.decisions_per_sec : 1e9;
  const double publish_ratio =
      large.publish_per_sec > 0 ? small.publish_per_sec / large.publish_per_sec : 1e9;
  const double policy_ratio =
      policy_points.back().publish_per_sec > 0
          ? policy_points.front().publish_per_sec / policy_points.back().publish_per_sec
          : 1e9;
  // The query gate compares the two largest rule counts (10x apart).
  const PolicyPoint& query_small = policy_points[policy_points.size() - 2];
  const PolicyPoint& query_large = policy_points.back();
  const double query_ratio = query_large.query_per_sec > 0
                                 ? query_small.query_per_sec / query_large.query_per_sec
                                 : 1e9;
  write_json("BENCH_erm_scale.json", points, policy_points, decision_ratio, publish_ratio,
             policy_ratio, query_ratio);

  int failures = 0;
  if (points.size() > 1) {
    // Acceptance gates: decision latency flat within 2x, publication cost
    // within 10x, from the smallest point to the largest.
    if (decision_ratio > 2.0) {
      std::fprintf(stderr,
                   "FAIL: decisions/s degraded %.2fx from %s to %s (gate: 2x)\n",
                   decision_ratio, small.name.c_str(), large.name.c_str());
      ++failures;
    }
    if (publish_ratio > 10.0) {
      std::fprintf(stderr,
                   "FAIL: publish rate degraded %.2fx from %s to %s (gate: 10x)\n",
                   publish_ratio, small.name.c_str(), large.name.c_str());
      ++failures;
    }
    if (failures == 0) {
      std::printf("gates ok: decision ratio %.2fx (<=2x), publish ratio %.2fx (<=10x)\n",
                  decision_ratio, publish_ratio);
    }
  }
  // Binding publication is O(changed), counted: each publish clones the
  // nodes on its write's tree paths and nothing else, in every round.
  for (const ScalePoint& p : points) {
    if (p.cow_page_copies != p.expected_clones) {
      std::fprintf(stderr,
                   "FAIL: %s cloned %llu nodes over %llu publishes in a round (gate: "
                   "exactly %llu)\n",
                   p.name.c_str(), static_cast<unsigned long long>(p.cow_page_copies),
                   static_cast<unsigned long long>(p.publishes),
                   static_cast<unsigned long long>(p.expected_clones));
      ++failures;
    } else {
      std::printf("gates ok: %s cloned exactly %llu nodes over %llu publishes\n",
                  p.name.c_str(), static_cast<unsigned long long>(p.cow_page_copies),
                  static_cast<unsigned long long>(p.publishes));
    }
  }
  // Policy publication is O(changed): from 1k rules to 10k (smoke) or 100k
  // (full) it may slow by cache effects, not by the rule count.
  if (policy_ratio > 4.0) {
    std::fprintf(stderr,
                 "FAIL: policy publication degraded %.2fx from %s to %s (gate: 4x)\n",
                 policy_ratio, policy_points.front().name.c_str(),
                 policy_points.back().name.c_str());
    ++failures;
  } else {
    std::printf("gates ok: policy publication ratio %.2fx (<=4x)\n", policy_ratio);
  }
  // The policy query costs one probe per rule shape: ten times the rules
  // may slow it by cache effects, not by the rule count.
  if (query_ratio > 2.0) {
    std::fprintf(stderr, "FAIL: policy query degraded %.2fx from %s to %s (gate: 2x)\n",
                 query_ratio, query_small.name.c_str(), query_large.name.c_str());
    ++failures;
  } else {
    std::printf("gates ok: policy query ratio %.2fx (<=2x) from %s to %s\n", query_ratio,
                query_small.name.c_str(), query_large.name.c_str());
  }
  if (baseline_path != nullptr) {
    failures += check_baseline(baseline_path, points, policy_points);
  }
  return failures == 0 ? 0 : 1;
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
