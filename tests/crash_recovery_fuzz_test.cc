// Crash-recovery fuzz campaign (DESIGN.md §6).
//
// Hundreds of seeded kill/restart schedules against the journaled control
// plane: each schedule runs several "process lifetimes" of random policy
// inserts/revokes, binding events and compactions against a journal whose
// store is armed with a FaultPlan crash point, kills the process mid-durable
// -operation, restarts, and recovers. After every recovery the restored
// state must be byte-identical to a never-crashed oracle:
//
//   * save_policies/save_bindings text equal (rule ids, PDP ownership,
//     priorities, binding sets),
//   * policy and binding epochs and next_id equal,
//   * random policy queries, enrichments and spoof validations equal
//     (differential check through the public query API),
//   * compiled Table-0 rules byte-identical on the wire for a shared
//     packet workload (cookies cite rule ids, so this pins id recovery).
//
// The WAL boundary op is genuinely ambiguous: a crash during append can
// leave the record fully durable (tear == 1.0, or the kill landed on the
// sync after the append) even though the dying process never applied it in
// memory. Recovery then correctly replays an operation the crashed process
// never saw complete. The oracle accepts either world — the recovered state
// must match the oracle *without* the boundary op or the oracle *with* it,
// and the campaign continues from whichever matched. Anything else is a
// violation.
//
// Every fourth schedule additionally drives a degraded window through a
// full DfiSystem proxy session and asserts invariant I1: with fail-secure
// gating, no Packet-in reaches the controller (or the PCP) while the window
// is open, and Table 0 is resynced wholesale on recovery.
//
// Reproduction mirrors the invariant fuzzer: DFI_FUZZ_SEED=<seed> (or
// --seed=<seed>) replays one schedule; DFI_FUZZ_SCHEDULES=<n> (or
// --schedules=<n>) bounds the campaign (CI's sanitizer stages use this).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <deque>
#include <utility>

#include "bus/message_bus.h"
#include "common/logging.h"
#include "core/dfi_system.h"
#include "core/health_monitor.h"
#include "core/journal.h"
#include "core/pcp.h"
#include "core/persistence.h"
#include "fault/fault_plan.h"
#include "openflow/wire.h"
#include "replication/replica.h"
#include "sim/simulator.h"

namespace dfi {
namespace {

std::optional<std::uint64_t> g_seed_override;
std::size_t g_total_schedules = 600;

// ----------------------------------------------------------- op vocabulary

// One logical control-plane mutation. Schedules record every *committed* op
// so the oracle can be reconstructed at any process boundary by replaying
// the list into a fresh plane.
struct CrashOp {
  enum class Kind { kInsert, kRevoke, kBinding, kCompact };
  Kind kind = Kind::kInsert;
  PolicyRule rule;           // kInsert
  std::uint32_t priority = 0;
  std::string pdp;
  PolicyRuleId revoke_id{};  // kRevoke
  BindingEvent event;        // kBinding
};

struct Plane {
  Plane() : manager(bus), erm(bus) {}
  MessageBus bus;
  PolicyManager manager;
  EntityResolutionManager erm;
};

PolicyRule random_rule(Rng& rng) {
  PolicyRule rule;
  rule.action = rng.chance(0.5) ? PolicyAction::kAllow : PolicyAction::kDeny;
  if (rng.chance(0.6)) rule.properties.ether_type = 0x0800;
  if (rng.chance(0.4)) rule.properties.ip_proto = rng.chance(0.5) ? 6 : 17;
  const auto endpoint = [&rng](EndpointSpec& spec) {
    if (rng.chance(0.3)) spec.user = Username{"user" + std::to_string(rng.uniform_int(0, 5))};
    if (rng.chance(0.3)) spec.host = Hostname{"host" + std::to_string(rng.uniform_int(0, 5))};
    if (rng.chance(0.4)) {
      spec.ip = Ipv4Address(10, 0, 0, static_cast<std::uint8_t>(rng.uniform_int(1, 30)));
    }
    if (rng.chance(0.3)) spec.l4_port = static_cast<std::uint16_t>(rng.uniform_int(1, 2000));
  };
  endpoint(rule.source);
  endpoint(rule.destination);
  return rule;
}

BindingEvent random_binding(Rng& rng) {
  BindingEvent event;
  event.kind = static_cast<BindingKind>(rng.uniform_int(0, 3));
  event.retracted = rng.chance(0.25);
  event.user = Username{"user" + std::to_string(rng.uniform_int(0, 5))};
  event.host = Hostname{"host" + std::to_string(rng.uniform_int(0, 5))};
  event.ip = Ipv4Address(10, 0, 0, static_cast<std::uint8_t>(rng.uniform_int(1, 30)));
  event.mac = MacAddress::from_u64(static_cast<std::uint64_t>(rng.uniform_int(1, 40)));
  event.dpid = Dpid{static_cast<std::uint64_t>(rng.uniform_int(1, 3))};
  event.port = PortNo{static_cast<std::uint32_t>(rng.uniform_int(1, 24))};
  return event;
}

CrashOp draw_op(Rng& rng, const PolicyManager& manager) {
  CrashOp op;
  const double roll = rng.uniform_real(0.0, 1.0);
  if (roll < 0.35) {
    op.kind = CrashOp::Kind::kInsert;
    op.rule = random_rule(rng);
    op.priority = static_cast<std::uint32_t>(rng.uniform_int(1, 5));
    op.pdp = "pdp" + std::to_string(rng.uniform_int(0, 2));
  } else if (roll < 0.55) {
    const auto rules = manager.rules();
    if (rules.empty()) {
      op.kind = CrashOp::Kind::kInsert;
      op.rule = random_rule(rng);
      op.priority = static_cast<std::uint32_t>(rng.uniform_int(1, 5));
      op.pdp = "pdp" + std::to_string(rng.uniform_int(0, 2));
    } else {
      op.kind = CrashOp::Kind::kRevoke;
      op.revoke_id =
          rules[static_cast<std::size_t>(rng.uniform_int(
                    0, static_cast<std::int64_t>(rules.size()) - 1))]
              .id;
    }
  } else if (roll < 0.92) {
    op.kind = CrashOp::Kind::kBinding;
    op.event = random_binding(rng);
  } else {
    op.kind = CrashOp::Kind::kCompact;
  }
  return op;
}

// Apply one op to a plane. `journal` is only consulted for compaction (the
// oracle replays with journal == nullptr, where compaction is a no-op — it
// never changes logical state). May throw CrashException when the plane's
// journal store has an armed crash point.
void apply_op(Plane& plane, Journal* journal, const CrashOp& op) {
  switch (op.kind) {
    case CrashOp::Kind::kInsert:
      plane.manager.insert(op.rule, PdpPriority{op.priority}, op.pdp);
      break;
    case CrashOp::Kind::kRevoke:
      plane.manager.revoke(op.revoke_id);
      break;
    case CrashOp::Kind::kBinding:
      plane.erm.apply(op.event);
      break;
    case CrashOp::Kind::kCompact:
      if (journal != nullptr) {
        const Status status = journal->compact(plane.manager, plane.erm);
        ASSERT_TRUE(status.ok()) << status.error().message;
      }
      break;
  }
}

std::unique_ptr<Plane> replay_oracle(const std::vector<CrashOp>& ops) {
  auto plane = std::make_unique<Plane>();
  for (const CrashOp& op : ops) apply_op(*plane, nullptr, op);
  return plane;
}

// ------------------------------------------------------------- comparisons

std::string describe_mismatch(const Plane& a, const Plane& b) {
  std::string out;
  if (save_policies(a.manager) != save_policies(b.manager)) out += " policies";
  if (save_bindings(a.erm) != save_bindings(b.erm)) out += " bindings";
  if (a.manager.epoch() != b.manager.epoch()) out += " policy-epoch";
  if (a.erm.epoch() != b.erm.epoch()) out += " binding-epoch";
  if (a.manager.next_id() != b.manager.next_id()) out += " next-id";
  return out;
}

bool state_equal(const Plane& a, const Plane& b) {
  return describe_mismatch(a, b).empty();
}

// Interned-state oracle: a recovered ERM rebuilt its interner and paged
// tables from WAL text, so every binding its canonical export names must
// resolve through the interned lookup path and answer identically via the
// live query APIs. Catches recovery bugs where the text state is right but
// the id-keyed tables (or the interner itself) diverged.
void check_interned_state(const Plane& recovered,
                          std::vector<std::string>& violations) {
  const EntityInterner& interner = recovered.erm.interner();
  for (const BindingEvent& event : recovered.erm.snapshot()) {
    switch (event.kind) {
      case BindingKind::kUserHost: {
        if (!interner.users().find(event.user.value).valid() ||
            !interner.hosts().find(event.host.value).valid()) {
          violations.push_back("interned oracle: un-interned user/host " +
                               event.user.value + "/" + event.host.value);
          return;
        }
        const auto hosts = recovered.erm.hosts_of_user(event.user);
        if (std::find(hosts.begin(), hosts.end(), event.host) == hosts.end()) {
          violations.push_back("interned oracle: hosts_of_user(" +
                               event.user.value + ") lacks " + event.host.value);
          return;
        }
        break;
      }
      case BindingKind::kHostIp: {
        const auto hosts = recovered.erm.hosts_of_ip(event.ip);
        if (std::find(hosts.begin(), hosts.end(), event.host) == hosts.end()) {
          violations.push_back("interned oracle: hosts_of_ip(" +
                               event.ip.to_string() + ") lacks " +
                               event.host.value);
          return;
        }
        break;
      }
      case BindingKind::kIpMac: {
        if (recovered.erm.mac_of_ip(event.ip) != event.mac) {
          violations.push_back("interned oracle: mac_of_ip(" +
                               event.ip.to_string() + ") != " +
                               event.mac.to_string());
          return;
        }
        break;
      }
      case BindingKind::kMacLocation: {
        const auto port = recovered.erm.location_of_mac(event.dpid, event.mac);
        if (!port.has_value() || *port != event.port) {
          violations.push_back("interned oracle: location_of_mac mismatch for " +
                               event.mac.to_string());
          return;
        }
        break;
      }
    }
  }
}

// Differential check through the query APIs: recovered and oracle planes
// must answer identically, not just serialize identically.
void check_queries(Rng& rng, const Plane& recovered, const Plane& oracle,
                   std::vector<std::string>& violations) {
  for (int i = 0; i < 6; ++i) {
    FlowView flow;
    flow.ether_type = rng.chance(0.7) ? 0x0800 : 0x0806;
    if (rng.chance(0.5)) flow.ip_proto = rng.chance(0.5) ? 6 : 17;
    const auto endpoint = [&rng](EndpointView& view) {
      if (rng.chance(0.6)) {
        view.ip = Ipv4Address(10, 0, 0, static_cast<std::uint8_t>(rng.uniform_int(1, 30)));
      }
      if (rng.chance(0.5)) view.l4_port = static_cast<std::uint16_t>(rng.uniform_int(1, 2000));
      if (rng.chance(0.4)) view.hostnames.push_back(Hostname{"host" + std::to_string(rng.uniform_int(0, 5))});
      if (rng.chance(0.4)) view.usernames.push_back(Username{"user" + std::to_string(rng.uniform_int(0, 5))});
    };
    endpoint(flow.src);
    endpoint(flow.dst);
    const PolicyDecision got = recovered.manager.query(flow);
    const PolicyDecision want = oracle.manager.query(flow);
    if (got.action != want.action || got.rule_id != want.rule_id ||
        got.default_deny != want.default_deny) {
      violations.push_back("query divergence: recovered rule " +
                           std::to_string(got.rule_id.value) + " vs oracle " +
                           std::to_string(want.rule_id.value));
      return;
    }
  }
  for (int i = 0; i < 6; ++i) {
    const Ipv4Address ip(10, 0, 0, static_cast<std::uint8_t>(rng.uniform_int(1, 30)));
    const auto mac = MacAddress::from_u64(static_cast<std::uint64_t>(rng.uniform_int(1, 40)));
    if (recovered.erm.hosts_of_ip(ip) != oracle.erm.hosts_of_ip(ip) ||
        recovered.erm.mac_of_ip(ip) != oracle.erm.mac_of_ip(ip)) {
      violations.push_back("erm enrichment divergence at ip " + ip.to_string());
      return;
    }
    const SpoofCheck got = recovered.erm.validate(mac, ip, std::nullopt, std::nullopt);
    const SpoofCheck want = oracle.erm.validate(mac, ip, std::nullopt, std::nullopt);
    if (got.spoofed != want.spoofed) {
      violations.push_back("spoof validation divergence at ip " + ip.to_string());
      return;
    }
  }
}

// Wire-level Table-0 differential: identical Packet-in workloads through
// untimed PCPs over both planes must emit byte-identical FlowMods
// (cookie == deciding rule id, so this pins exact id recovery).
void check_table0(Rng& rng, Plane& recovered, Plane& oracle,
                  std::vector<std::string>& violations) {
  Simulator sim_a;
  Simulator sim_b;
  const PcpConfig config;
  PolicyCompilationPoint pcp_a(sim_a, recovered.bus, recovered.erm,
                               recovered.manager, config);
  PolicyCompilationPoint pcp_b(sim_b, oracle.bus, oracle.erm, oracle.manager,
                               config);
  std::vector<std::uint8_t> wire_a;
  std::vector<std::uint8_t> wire_b;
  const auto capture = [](std::vector<std::uint8_t>& wire) {
    return [&wire](const OfMessage& message) {
      const std::vector<std::uint8_t> bytes = encode(message);
      wire.insert(wire.end(), bytes.begin(), bytes.end());
    };
  };
  pcp_a.register_switch(Dpid{1}, capture(wire_a));
  pcp_b.register_switch(Dpid{1}, capture(wire_b));

  for (int i = 0; i < 8; ++i) {
    const Packet packet = make_tcp_packet(
        MacAddress::from_u64(static_cast<std::uint64_t>(rng.uniform_int(1, 40))),
        MacAddress::from_u64(static_cast<std::uint64_t>(rng.uniform_int(1, 40))),
        Ipv4Address(10, 0, 0, static_cast<std::uint8_t>(rng.uniform_int(1, 30))),
        Ipv4Address(10, 0, 0, static_cast<std::uint8_t>(rng.uniform_int(1, 30))),
        static_cast<std::uint16_t>(rng.uniform_int(1, 2000)),
        static_cast<std::uint16_t>(rng.uniform_int(1, 2000)));
    PacketInMsg msg;
    msg.table_id = 0;
    msg.in_port = PortNo{static_cast<std::uint32_t>(rng.uniform_int(1, 24))};
    msg.data = packet.serialize();
    const PcpDecision a = pcp_a.decide(Dpid{1}, msg);
    const PcpDecision b = pcp_b.decide(Dpid{1}, msg);
    if (a.allow != b.allow || a.policy.rule_id != b.policy.rule_id) {
      violations.push_back("table0 decision divergence: rule " +
                           std::to_string(a.policy.rule_id.value) + " vs " +
                           std::to_string(b.policy.rule_id.value));
      return;
    }
  }
  if (wire_a != wire_b) {
    violations.push_back("table0 wire divergence: " + std::to_string(wire_a.size()) +
                         " vs " + std::to_string(wire_b.size()) + " bytes");
  }
}

// ------------------------------------------------- degraded-window I1 check

// Drive a full DfiSystem proxy session through a fail-secure degraded
// window: every table-0 Packet-in inside the window must be suppressed
// (nothing to the controller, nothing to the PCP — invariant I1), and
// recovery must clear Table 0 wholesale.
void check_degraded_window(std::uint64_t seed, Rng& rng,
                           std::vector<std::string>& violations) {
  Simulator sim;
  MessageBus bus;
  DfiConfig config = DfiConfig::functional();
  config.seed = seed;
  config.health.enabled = true;
  config.health.degraded_mode = DegradedMode::kFailSecure;
  config.health.recovering_hold = seconds(0.0);
  DfiSystem system(sim, bus, config);

  std::vector<std::vector<std::uint8_t>> to_controller;
  std::vector<std::vector<std::uint8_t>> to_switch;
  DfiProxy::Session& session = system.proxy().create_session(
      [&to_switch](const std::vector<std::uint8_t>& bytes) { to_switch.push_back(bytes); },
      [&to_controller](const std::vector<std::uint8_t>& bytes) {
        to_controller.push_back(bytes);
      });

  FeaturesReplyMsg features;
  features.datapath_id = Dpid{9};
  features.n_tables = 4;
  session.from_switch(encode(OfMessage{1, features}));
  sim.run();

  const auto send_miss = [&](std::uint16_t src_port) {
    PacketInMsg msg;
    msg.table_id = 0;
    msg.in_port = PortNo{3};
    msg.data = make_tcp_packet(MacAddress::from_u64(1), MacAddress::from_u64(2),
                               Ipv4Address(10, 0, 0, 1), Ipv4Address(10, 0, 0, 2),
                               src_port, 80)
                   .serialize();
    session.from_switch(encode(OfMessage{2, msg}));
    sim.run();
  };

  system.health().enter_degraded("fuzz-window");
  const std::size_t controller_before = to_controller.size();
  const std::uint64_t pcp_before = system.pcp().stats().packet_ins;
  const int packets = static_cast<int>(rng.uniform_int(1, 5));
  for (int i = 0; i < packets; ++i) {
    send_miss(static_cast<std::uint16_t>(3000 + i));
  }
  if (to_controller.size() != controller_before) {
    violations.push_back("I1 violated: Packet-in reached the controller in a degraded window");
  }
  if (system.pcp().stats().packet_ins != pcp_before) {
    violations.push_back("I1 violated: Packet-in reached the PCP in a degraded window");
  }
  if (system.proxy().stats().degraded_suppressed !=
      static_cast<std::uint64_t>(packets)) {
    violations.push_back("degraded gate miscounted suppressions");
  }
  system.health().exit_degraded("fuzz-window");
  sim.run();
  if (system.pcp().stats().resync_clears < 1) {
    violations.push_back("no Table-0 resync after the degraded window closed");
  }
}

// ------------------------------------------------------------ one schedule

struct ScheduleResult {
  std::vector<std::string> violations;
  std::string trace;
  std::uint64_t crashes = 0;
  std::uint64_t torn_tails = 0;
  std::uint64_t adoptions = 0;   // durable boundary ops replayed by recovery
  std::uint64_t discards = 0;    // boundary ops lost to the crash
  std::uint64_t compactions = 0;
  std::uint64_t snapshots_loaded = 0;
  std::uint64_t records_replayed = 0;
  std::uint64_t recoveries = 0;
  std::uint64_t i1_windows = 0;
};

ScheduleResult run_schedule(std::uint64_t seed) {
  ScheduleResult result;
  FaultPlan plan(seed);
  Rng& rng = plan.rng();
  InMemoryJournalStore store;
  std::vector<CrashOp> committed;
  std::optional<CrashOp> pending;  // boundary op of the previous lifetime

  const int lifetimes = static_cast<int>(rng.uniform_int(3, 6));
  for (int life = 0; life < lifetimes; ++life) {
    auto sut = std::make_unique<Plane>();
    Journal journal(store);
    const Result<JournalRecovery> recovery =
        journal.recover(sut->manager, sut->erm);
    if (!recovery.ok()) {
      result.violations.push_back("recovery failed at lifetime " +
                                  std::to_string(life) + ": " +
                                  recovery.error().message);
      break;
    }
    ++result.recoveries;
    result.records_replayed += recovery.value().records_replayed;
    if (recovery.value().tail_truncated) ++result.torn_tails;
    if (recovery.value().snapshot_loaded) ++result.snapshots_loaded;

    // Resolve the WAL boundary: the recovered state must match the oracle
    // without the crashed op, or — when its record went fully durable —
    // with it. Adopt whichever world the bytes chose.
    std::unique_ptr<Plane> oracle = replay_oracle(committed);
    if (pending.has_value()) {
      const bool without = state_equal(*sut, *oracle);
      std::vector<CrashOp> with_ops = committed;
      with_ops.push_back(*pending);
      std::unique_ptr<Plane> oracle_with = replay_oracle(with_ops);
      const bool with = state_equal(*sut, *oracle_with);
      if (with) {
        committed = std::move(with_ops);
        oracle = std::move(oracle_with);
        ++result.adoptions;
        plan.note("boundary op durable: adopted");
      } else if (without) {
        ++result.discards;
        plan.note("boundary op torn: discarded");
      } else {
        result.violations.push_back(
            "lifetime " + std::to_string(life) +
            ": recovered state matches neither oracle (without:" +
            describe_mismatch(*sut, *oracle) + ") (with:" +
            describe_mismatch(*sut, *oracle_with) + ")");
        break;
      }
      pending.reset();
    } else if (!state_equal(*sut, *oracle)) {
      result.violations.push_back("lifetime " + std::to_string(life) +
                                  ": recovered state diverged:" +
                                  describe_mismatch(*sut, *oracle));
      break;
    }
    check_queries(rng, *sut, *oracle, result.violations);
    check_interned_state(*sut, result.violations);
    if (!result.violations.empty()) break;

    // Final lifetime: no further mutations — run the wire-level epilogue on
    // the fully recovered plane and stop.
    if (life + 1 == lifetimes) {
      check_table0(rng, *sut, *oracle, result.violations);
      break;
    }

    // Run a random op burst with a seeded kill armed. Each journaled op
    // costs two durable store ops (append + sync), compaction two more, so
    // the crash point window covers the whole burst with room to miss —
    // lifetimes that outlive their kill shut down cleanly.
    sut->manager.attach_journal(&journal);
    sut->erm.attach_journal(&journal);
    const int budget = static_cast<int>(rng.uniform_int(4, 16));
    store.arm_crash(plan.draw_crash_point(
        static_cast<std::uint64_t>(2 * budget + 2)));
    bool crashed = false;
    for (int i = 0; i < budget && !crashed; ++i) {
      const CrashOp op = draw_op(rng, sut->manager);
      try {
        apply_op(*sut, &journal, op);
        if (op.kind == CrashOp::Kind::kCompact) {
          ++result.compactions;
        } else {
          committed.push_back(op);
        }
      } catch (const CrashException&) {
        crashed = true;
        ++result.crashes;
        plan.note("crash at lifetime " + std::to_string(life) + " op " +
                  std::to_string(i));
        // A compaction crash has no logical boundary op: the store holds
        // either the old or the new image of the same state.
        if (op.kind != CrashOp::Kind::kCompact) pending = op;
      }
    }
    if (!crashed) store.disarm();
  }

  if (seed % 4 == 0 && result.violations.empty()) {
    check_degraded_window(seed, rng, result.violations);
    ++result.i1_windows;
  }
  result.trace = plan.trace();
  return result;
}

// ===================================================================
// Two-replica campaign: warm-standby pair under seeded kills on EITHER
// side, link faults (partitions, torn chunking, frame corruption), fenced
// failover and byte-identical promotion (DESIGN.md §6.3).
//
// Invariants checked every schedule:
//   * after every kill, the survivor's plane is byte-identical to the
//     no-failure oracle replayed over SOME prefix of the committed ops —
//     never a mix, never a mutation the pair did not perform;
//   * the prefix never regresses below what was last verified durable;
//   * a deposed primary holding a stale fence NEVER appends: its next
//     local mutation throws FencedException and its store bytes are
//     untouched;
//   * every promotion runs inside an open degraded window (the fail-secure
//     gate that keeps I1 over the handover — the window's suppression
//     semantics are proven by check_degraded_window on the same seeds);
//   * after the pair quiesces, both nodes equal the full oracle, and the
//     epilogue differential (queries, interned state, Table-0 wire) holds.

// One machine of the pair. The store survives process deaths; the plane,
// journal and Replica are one process incarnation.
struct ReplMachine {
  ReplMachine(Simulator& sim, MessageBus& health_bus, std::uint64_t seed)
      : health(sim, health_bus, failover_config(), Rng(seed)) {}

  static HealthConfig failover_config() {
    HealthConfig config;
    config.enabled = true;
    return config;
  }

  // Start a fresh process. `recover` replays the machine's own WAL (the
  // restarted-survivor path); a rejoining standby boots empty instead and
  // re-seeds from the primary's snapshot.
  void boot(bool recover, std::uint64_t replica_seed,
            std::vector<std::string>& violations) {
    kill();
    plane = std::make_unique<Plane>();
    journal = std::make_unique<Journal>(store);
    if (recover) {
      const Result<JournalRecovery> recovery =
          journal->recover(plane->manager, plane->erm);
      if (!recovery.ok()) {
        violations.push_back("survivor WAL recovery failed: " +
                             recovery.error().message);
      }
    }
    plane->manager.attach_journal(journal.get());
    plane->erm.attach_journal(journal.get());
    ReplicaConfig config;
    config.seed = replica_seed;
    replica = std::make_unique<Replica>(config, *journal, plane->manager,
                                        plane->erm, &health);
  }

  void kill() {
    replica.reset();  // detaches the journal's append observer
    journal.reset();
    plane.reset();
  }

  bool alive() const { return replica != nullptr; }

  InMemoryJournalStore store;
  HealthMonitor health;
  std::unique_ptr<Plane> plane;
  std::unique_ptr<Journal> journal;
  std::unique_ptr<Replica> replica;
};

// Queued byte link between the pair: sends enqueue, pump() delivers FIFO
// in torn chunks. partition() silently eats bytes (the sender still
// believes the link is up); drop_end() is a process death (RST the peer
// observes). CrashException out of pump() is the standby's store dying
// mid-ingest.
struct ReplFuzzLink {
  void bind(int side, Replica& replica) {
    ends[side] = &replica;
    replica.set_send([this, side](const std::string& bytes) {
      if (partitioned) return;
      queue.emplace_back(1 - side, bytes);
    });
  }

  void drop_end(int side) {
    queue.clear();
    ends[side] = nullptr;
    if (ends[1 - side] != nullptr) ends[1 - side]->on_link_down();
  }

  void partition() {
    partitioned = true;
    queue.clear();
  }
  void heal() { partitioned = false; }

  // RST both ends observe (poisoned-decoder teardown).
  void bounce() {
    queue.clear();
    for (Replica* end : ends) {
      if (end != nullptr) end->on_link_down();
    }
  }

  void pump(Rng& chunker) {
    while (!queue.empty()) {
      auto [dest, bytes] = std::move(queue.front());
      queue.pop_front();
      Replica* target = ends[dest];
      if (target == nullptr) continue;  // destination process is dead
      const auto* data = reinterpret_cast<const std::uint8_t*>(bytes.data());
      std::size_t off = 0;
      while (off < bytes.size()) {
        const auto want = static_cast<std::size_t>(chunker.uniform_int(1, 512));
        const std::size_t take = std::min(want, bytes.size() - off);
        target->on_bytes(data + off, take);
        off += take;
      }
    }
  }

  Replica* ends[2] = {nullptr, nullptr};
  std::deque<std::pair<int, std::string>> queue;
  bool partitioned = false;
};

struct ReplScheduleResult {
  std::vector<std::string> violations;
  std::string trace;
  std::uint64_t primary_kills = 0;
  std::uint64_t standby_kills = 0;
  std::uint64_t promotions = 0;
  std::uint64_t wal_survivor_promotions = 0;  // standby restarted from own WAL
  std::uint64_t fence_refusals = 0;           // stale-fence appends refused
  std::uint64_t split_brains = 0;
  std::uint64_t snapshot_rejoins = 0;
  std::uint64_t tail_catchups = 0;
  std::uint64_t corruptions = 0;
  std::uint64_t lost_op_suffixes = 0;  // unreplicated ops discarded by failover
  std::uint64_t i1_windows = 0;
};

// The survivor must equal the oracle over some prefix of `committed` no
// shorter than `floor` (the last verified durable point). Returns the
// matched prefix length, or -1.
std::ptrdiff_t find_matching_prefix(const Plane& survivor,
                                    const std::vector<CrashOp>& committed,
                                    std::size_t floor) {
  for (std::size_t k = committed.size() + 1; k-- > 0;) {
    if (k < floor) break;
    const std::vector<CrashOp> prefix(committed.begin(),
                                      committed.begin() + static_cast<std::ptrdiff_t>(k));
    if (state_equal(survivor, *replay_oracle(prefix))) {
      return static_cast<std::ptrdiff_t>(k);
    }
  }
  return -1;
}

ReplScheduleResult run_replicated_schedule(std::uint64_t seed) {
  ReplScheduleResult result;
  FaultPlan plan(seed);
  Rng& rng = plan.rng();

  Simulator sim;
  MessageBus health_bus;
  ReplMachine machines[2] = {{sim, health_bus, seed ^ 0xaa},
                             {sim, health_bus, seed ^ 0xbb}};
  ReplFuzzLink link;
  std::vector<CrashOp> committed;
  std::size_t floor = 0;  // ops verified durable on the current primary chain
  int prim = 0;

  // Every promotion must happen inside an open degraded window: the
  // fail-secure gate is what holds I1 over the handover.
  const auto wire_promotion = [&](int side, ReplicaRole role) {
    machines[side].health.enable_failover(role, [&, side] {
      if (machines[side].health.state() == HealthState::kHealthy) {
        result.violations.push_back("promotion ran outside a degraded window");
      }
      machines[side].replica->promote();
      ++result.promotions;
    });
  };

  machines[0].boot(false, seed ^ 0x1, result.violations);
  machines[1].boot(false, seed ^ 0x2, result.violations);
  wire_promotion(0, ReplicaRole::kPrimary);
  wire_promotion(1, ReplicaRole::kStandby);
  link.bind(0, *machines[0].replica);
  link.bind(1, *machines[1].replica);
  machines[0].replica->become_primary();
  machines[1].replica->become_standby();
  link.pump(rng);
  if (machines[1].replica->stats().snapshots_installed != 1) {
    result.violations.push_back("standby bootstrap snapshot never installed");
  }

  const auto pump_standby = [&]() -> bool {
    // Returns false when the standby's store died mid-ingest.
    try {
      link.pump(rng);
      return true;
    } catch (const CrashException&) {
      return false;
    }
  };

  const int rounds = static_cast<int>(rng.uniform_int(2, 4));
  for (int round = 0; round < rounds && result.violations.empty(); ++round) {
    const int stby = 1 - prim;
    ReplMachine& primary = machines[prim];
    ReplMachine& standby = machines[stby];

    // Rejoin a machine the previous round killed: fresh process, empty
    // plane, snapshot re-seed from the live primary.
    if (!standby.alive()) {
      standby.boot(false, seed ^ static_cast<std::uint64_t>(0x100 + round),
                   result.violations);
      standby.health.set_role(ReplicaRole::kStandby);
      link.bind(stby, *standby.replica);
      const std::uint64_t before = standby.replica->stats().snapshots_installed;
      standby.replica->become_standby();
      if (!pump_standby()) {  // ingest cannot throw here: store disarmed
        result.violations.push_back("rejoin pump crashed unexpectedly");
        break;
      }
      if (standby.replica->stats().snapshots_installed != before + 1) {
        result.violations.push_back("rejoined standby did not snapshot-seed");
        break;
      }
      ++result.snapshot_rejoins;
    }

    const double scenario = rng.uniform_real(0.0, 1.0);
    if (scenario < 0.25) {
      // ---------------------------------------------- split-brain round
      // Network split: the standby promotes while the old primary keeps
      // running, oblivious. On heal the survivor fences it.
      ++result.split_brains;
      plan.note("round " + std::to_string(round) + ": split-brain");
      link.partition();
      // Ops committed during the split ship into the void: promotion will
      // discard this unreplicated suffix (the lost-update window every
      // asynchronous-replication failover has).
      const int split_ops = static_cast<int>(rng.uniform_int(0, 3));
      for (int i = 0; i < split_ops; ++i) {
        const CrashOp op = draw_op(rng, primary.plane->manager);
        try {
          apply_op(*primary.plane, primary.journal.get(), op);
          if (op.kind != CrashOp::Kind::kCompact) committed.push_back(op);
        } catch (const CrashException&) {
          result.violations.push_back("unexpected crash during split burst");
        }
      }
      if (!result.violations.empty()) break;
      standby.health.promote_now();
      if (!standby.replica->is_primary()) {
        result.violations.push_back("promote_now did not promote the standby");
        break;
      }
      const std::ptrdiff_t k =
          find_matching_prefix(*standby.plane, committed, floor);
      if (k < 0) {
        result.violations.push_back(
            "split-brain survivor matches no committed prefix (floor " +
            std::to_string(floor) + ")");
        break;
      }
      result.lost_op_suffixes +=
          committed.size() - static_cast<std::size_t>(k);
      committed.resize(static_cast<std::size_t>(k));
      floor = committed.size();
      link.heal();

      // The deposed primary pushes one more mutation before it learns of
      // the new epoch: it applies locally and ships a stale-fenced record
      // that the survivor must reject without applying. (Compaction ships
      // nothing, so draw until we get a real mutation.)
      const auto draw_mutation = [&](const PolicyManager& manager) {
        CrashOp op = draw_op(rng, manager);
        while (op.kind == CrashOp::Kind::kCompact) op = draw_op(rng, manager);
        return op;
      };
      const CrashOp stale = draw_mutation(primary.plane->manager);
      try {
        apply_op(*primary.plane, primary.journal.get(), stale);
      } catch (const CrashException&) {
        result.violations.push_back("unexpected crash applying stale op");
        break;
      }
      // The zombie still believes it is primary, so its heartbeat fires
      // too — fence discovery must work even when the record itself never
      // shipped (an unsynced zombie buffers instead of streaming).
      primary.replica->tick_heartbeat();
      const std::string survivor_image_before =
          save_policies(standby.plane->manager) +
          save_bindings(standby.plane->erm);
      if (!pump_standby()) {
        result.violations.push_back("unexpected standby crash in fence round");
        break;
      }
      if (save_policies(standby.plane->manager) +
              save_bindings(standby.plane->erm) !=
          survivor_image_before) {
        result.violations.push_back("stale-fenced record mutated the survivor");
        break;
      }
      if (primary.replica->is_primary()) {
        result.violations.push_back("deposed primary did not stand down");
        break;
      }
      if (primary.journal->fenced_out()) {
        // Dirty plane: the node is fenced and must refuse every further
        // local append, leaving its store bytes untouched (fail-secure).
        const std::size_t store_size = primary.store.size();
        bool refused = false;
        try {
          apply_op(*primary.plane, primary.journal.get(),
                   draw_mutation(primary.plane->manager));
        } catch (const FencedException&) {
          refused = true;
        }
        if (!refused || primary.store.size() != store_size) {
          result.violations.push_back(
              "deposed primary appended with a stale fence");
          break;
        }
        ++result.fence_refusals;
      } else if (primary.journal->fence_epoch() !=
                 standby.journal->fence_epoch()) {
        // The only legitimate way out of fenced_out is a clean rejoin: the
        // deposed node's plane was still empty, so the stand-down's
        // re-hello installed the survivor's snapshot and adopted its fence.
        result.violations.push_back(
            "deposed primary escaped the fence without adopting the epoch");
        break;
      }
      // The zombie is torn down; the promoted survivor is the primary, and
      // the old machine rejoins fresh next round.
      link.drop_end(prim);
      primary.kill();
      prim = stby;
      continue;
    }

    // ------------------------------------------------- crash/fault round
    // Both stores may carry an armed kill; the link may partition or
    // corrupt a frame mid-burst. Whoever dies first ends the burst.
    const int budget = static_cast<int>(rng.uniform_int(3, 10));
    const bool arm_primary = rng.chance(0.5);
    const bool arm_standby = rng.chance(0.45);
    if (arm_primary) {
      primary.store.arm_crash(
          plan.draw_crash_point(static_cast<std::uint64_t>(2 * budget + 2)));
    }
    if (arm_standby) {
      standby.store.arm_crash(
          plan.draw_crash_point(static_cast<std::uint64_t>(2 * budget + 2)));
    }
    const int partition_at =
        rng.chance(0.3) ? static_cast<int>(rng.uniform_int(0, budget - 1)) : -1;
    const bool corrupt_one = rng.chance(0.2);
    bool primary_died = false;
    bool standby_died = false;

    for (int i = 0; i < budget; ++i) {
      if (i == partition_at) link.partition();
      const CrashOp op = draw_op(rng, primary.plane->manager);
      try {
        apply_op(*primary.plane, primary.journal.get(), op);
        if (op.kind != CrashOp::Kind::kCompact) committed.push_back(op);
      } catch (const CrashException&) {
        primary_died = true;
        plan.note("round " + std::to_string(round) + ": primary died at op " +
                  std::to_string(i));
        break;
      }
      if (corrupt_one && !link.queue.empty() && rng.chance(0.3)) {
        link.queue.front().second[0] ^= 0xff;
        ++result.corruptions;
      }
      if (!pump_standby()) {
        standby_died = true;
        plan.note("round " + std::to_string(round) + ": standby died at op " +
                  std::to_string(i));
        break;
      }
    }
    primary.store.disarm();
    if (standby.alive()) standby.store.disarm();

    if (!primary_died && !standby_died) {
      // Quiesce: heal any split, tear down any poisoned stream (the
      // supervised redial re-hellos, as the real transport's reconnect
      // does), and let the heartbeat drive gap detection + retransmit.
      link.heal();
      const std::uint64_t resyncs_before =
          standby.replica->stats().resyncs_requested;
      if (standby.replica->stats().decode_errors > 0) {
        link.bounce();
        standby.replica->become_standby();
      }
      primary.replica->tick_heartbeat();
      if (!pump_standby()) {
        result.violations.push_back("standby crashed after disarm");
        break;
      }
      if (standby.replica->stats().resyncs_requested > resyncs_before) {
        ++result.tail_catchups;
      }
      const std::unique_ptr<Plane> oracle = replay_oracle(committed);
      if (!state_equal(*primary.plane, *oracle)) {
        result.violations.push_back("round " + std::to_string(round) +
                                    ": primary diverged from oracle:" +
                                    describe_mismatch(*primary.plane, *oracle));
        break;
      }
      if (!state_equal(*standby.plane, *oracle)) {
        result.violations.push_back("round " + std::to_string(round) +
                                    ": synced standby diverged from oracle:" +
                                    describe_mismatch(*standby.plane, *oracle));
        break;
      }
      floor = committed.size();
      continue;
    }

    if (standby_died && !primary_died) {
      // Standby process death mid-ingest (possibly a torn record in its
      // WAL). The primary is authoritative and must still equal the full
      // oracle; the standby rejoins fresh next round.
      ++result.standby_kills;
      link.drop_end(stby);
      standby.kill();
      const std::unique_ptr<Plane> oracle = replay_oracle(committed);
      if (!state_equal(*primary.plane, *oracle)) {
        result.violations.push_back(
            "primary diverged after standby death:" +
            describe_mismatch(*primary.plane, *oracle));
        break;
      }
      floor = committed.size();
      continue;
    }

    // Primary process death. Two survivor shapes, both byte-identical:
    //   * the live standby promotes (HealthMonitor handover), or
    //   * the standby ALSO dies (double fault) and restarts from its own
    //     WAL — recovery truncates any torn ingest tail, then promotes.
    ++result.primary_kills;
    link.drop_end(prim);
    primary.kill();
    link.heal();
    if (rng.chance(0.35)) {
      plan.note("round " + std::to_string(round) +
                ": double fault, standby restarts from WAL");
      standby.kill();
      standby.boot(true, seed ^ static_cast<std::uint64_t>(0x200 + round),
                   result.violations);
      if (!result.violations.empty()) break;
      standby.health.set_role(ReplicaRole::kStandby);
      link.bind(stby, *standby.replica);
      ++result.wal_survivor_promotions;
    }
    standby.health.promote_now();
    if (!standby.replica->is_primary()) {
      result.violations.push_back("survivor failed to promote");
      break;
    }
    const std::ptrdiff_t k = find_matching_prefix(*standby.plane, committed, floor);
    if (k < 0) {
      result.violations.push_back(
          "survivor matches no committed prefix after primary death (floor " +
          std::to_string(floor) + ", committed " +
          std::to_string(committed.size()) + ")");
      break;
    }
    result.lost_op_suffixes += committed.size() - static_cast<std::size_t>(k);
    committed.resize(static_cast<std::size_t>(k));
    floor = committed.size();
    prim = stby;
  }

  // Epilogue: quiesce whatever survived and run the full differential
  // against the oracle (queries, interned state, Table-0 wire bytes).
  if (result.violations.empty()) {
    ReplMachine& primary = machines[prim];
    const std::unique_ptr<Plane> oracle = replay_oracle(committed);
    if (!state_equal(*primary.plane, *oracle)) {
      result.violations.push_back("final primary diverged:" +
                                  describe_mismatch(*primary.plane, *oracle));
    } else {
      check_queries(rng, *primary.plane, *oracle, result.violations);
      check_interned_state(*primary.plane, result.violations);
      check_table0(rng, *primary.plane, *oracle, result.violations);
    }
  }
  // Tie invariant I1 to these schedules: the same fail-secure degraded
  // window that wraps every promotion must suppress all Packet-ins.
  if (seed % 4 == 1 && result.violations.empty()) {
    check_degraded_window(seed, rng, result.violations);
    ++result.i1_windows;
  }
  result.trace = plan.trace();
  return result;
}

std::string replay_instructions(std::uint64_t seed) {
  return "replay: DFI_FUZZ_SEED=" + std::to_string(seed) +
         " ./crash_recovery_fuzz_test";
}

void report_violations(std::uint64_t seed,
                       const std::vector<std::string>& violations) {
  if (violations.empty()) return;
  std::string details;
  for (const std::string& violation : violations) {
    details += "  " + violation + "\n";
  }
  ADD_FAILURE() << violations.size() << " violation(s) at seed " << seed
                << ":\n"
                << details << replay_instructions(seed);
}

void expect_clean(std::uint64_t seed, const ScheduleResult& result) {
  report_violations(seed, result.violations);
}

void expect_clean(std::uint64_t seed, const ReplScheduleResult& result) {
  report_violations(seed, result.violations);
}

// ------------------------------------------------------------ the campaign

TEST(CrashRecoveryFuzz, Campaign) {
  std::size_t schedules = g_total_schedules;
  if (g_seed_override.has_value()) schedules = 1;
  ScheduleResult coverage;
  for (std::size_t i = 0; i < schedules; ++i) {
    const std::uint64_t seed =
        g_seed_override.value_or(0xc4a5ull * 1000003ull + i);
    const ScheduleResult result = run_schedule(seed);
    expect_clean(seed, result);
    coverage.crashes += result.crashes;
    coverage.torn_tails += result.torn_tails;
    coverage.adoptions += result.adoptions;
    coverage.discards += result.discards;
    coverage.compactions += result.compactions;
    coverage.snapshots_loaded += result.snapshots_loaded;
    coverage.records_replayed += result.records_replayed;
    coverage.recoveries += result.recoveries;
    coverage.i1_windows += result.i1_windows;
    if (::testing::Test::HasFailure()) break;  // first failing seed is enough
  }
  if (g_seed_override.has_value()) return;
  // The campaign must have exercised every crash class it claims to cover.
  EXPECT_GT(coverage.crashes, 0u);
  EXPECT_GT(coverage.torn_tails, 0u);        // partial tears truncated
  EXPECT_GT(coverage.adoptions, 0u);         // durable boundary ops replayed
  EXPECT_GT(coverage.discards, 0u);          // torn boundary ops lost
  EXPECT_GT(coverage.compactions, 0u);
  EXPECT_GT(coverage.snapshots_loaded, 0u);  // recovery from a compacted log
  EXPECT_GT(coverage.records_replayed, 0u);
  EXPECT_GT(coverage.recoveries, schedules);  // several lifetimes per schedule
  EXPECT_GT(coverage.i1_windows, 0u);
}

// The two-replica campaign: kill either node mid-stream under seeded
// schedules, fence every failover, and hold the survivor byte-identical.
TEST(CrashRecoveryFuzz, ReplicatedCampaign) {
  std::size_t schedules = g_total_schedules;
  if (g_seed_override.has_value()) schedules = 1;
  ReplScheduleResult coverage;
  for (std::size_t i = 0; i < schedules; ++i) {
    const std::uint64_t seed =
        g_seed_override.value_or(0x9e91ull * 1000003ull + i);
    const ReplScheduleResult result = run_replicated_schedule(seed);
    expect_clean(seed, result);
    coverage.primary_kills += result.primary_kills;
    coverage.standby_kills += result.standby_kills;
    coverage.promotions += result.promotions;
    coverage.wal_survivor_promotions += result.wal_survivor_promotions;
    coverage.fence_refusals += result.fence_refusals;
    coverage.split_brains += result.split_brains;
    coverage.snapshot_rejoins += result.snapshot_rejoins;
    coverage.tail_catchups += result.tail_catchups;
    coverage.corruptions += result.corruptions;
    coverage.lost_op_suffixes += result.lost_op_suffixes;
    coverage.i1_windows += result.i1_windows;
    if (::testing::Test::HasFailure()) break;  // first failing seed is enough
  }
  if (g_seed_override.has_value()) return;
  // The campaign must have exercised every failure class it claims.
  EXPECT_GT(coverage.primary_kills, 0u);
  EXPECT_GT(coverage.standby_kills, 0u);
  EXPECT_GT(coverage.promotions, 0u);
  EXPECT_GT(coverage.wal_survivor_promotions, 0u);  // survivor from own WAL
  EXPECT_GT(coverage.fence_refusals, 0u);   // stale fences refused appends
  EXPECT_GT(coverage.split_brains, 0u);
  EXPECT_GT(coverage.snapshot_rejoins, 0u);
  EXPECT_GT(coverage.tail_catchups, 0u);    // heartbeat-driven gap resync
  EXPECT_GT(coverage.corruptions, 0u);      // poisoned streams torn down
  EXPECT_GT(coverage.lost_op_suffixes, 0u); // unreplicated suffixes discarded
  EXPECT_GT(coverage.i1_windows, 0u);
}

// Same seed => byte-identical two-replica fault schedule and outcome.
TEST(CrashRecoveryFuzz, ReplicatedScheduleIsDeterministic) {
  const std::uint64_t seed = g_seed_override.value_or(7654321);
  const ReplScheduleResult a = run_replicated_schedule(seed);
  const ReplScheduleResult b = run_replicated_schedule(seed);
  expect_clean(seed, a);
  EXPECT_EQ(a.trace, b.trace);
  EXPECT_EQ(a.violations, b.violations);
  EXPECT_EQ(a.primary_kills, b.primary_kills);
  EXPECT_EQ(a.standby_kills, b.standby_kills);
  EXPECT_EQ(a.promotions, b.promotions);
  EXPECT_EQ(a.fence_refusals, b.fence_refusals);
  EXPECT_EQ(a.lost_op_suffixes, b.lost_op_suffixes);
}

// Same seed => byte-identical crash schedule, trace and outcome. The replay
// contract the DFI_FUZZ_SEED workflow rests on.
TEST(CrashRecoveryFuzz, ScheduleIsDeterministic) {
  const std::uint64_t seed = g_seed_override.value_or(1234567);
  const ScheduleResult a = run_schedule(seed);
  const ScheduleResult b = run_schedule(seed);
  expect_clean(seed, a);
  EXPECT_EQ(a.trace, b.trace);
  EXPECT_EQ(a.violations, b.violations);
  EXPECT_EQ(a.crashes, b.crashes);
  EXPECT_EQ(a.torn_tails, b.torn_tails);
  EXPECT_EQ(a.adoptions, b.adoptions);
  EXPECT_EQ(a.records_replayed, b.records_replayed);
}

}  // namespace
}  // namespace dfi

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  dfi::Logger::instance().set_level(dfi::LogLevel::kError);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--seed=", 0) == 0) {
      dfi::g_seed_override = std::strtoull(arg.c_str() + 7, nullptr, 10);
    } else if (arg.rfind("--schedules=", 0) == 0) {
      dfi::g_total_schedules = std::strtoull(arg.c_str() + 12, nullptr, 10);
    }
  }
  if (const char* seed = std::getenv("DFI_FUZZ_SEED")) {
    dfi::g_seed_override = std::strtoull(seed, nullptr, 10);
  }
  if (const char* schedules = std::getenv("DFI_FUZZ_SCHEDULES")) {
    dfi::g_total_schedules = std::strtoull(schedules, nullptr, 10);
  }
  return RUN_ALL_TESTS();
}
