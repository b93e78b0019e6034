// Randomized differential test for the sharded Packet-in plane (DESIGN.md
// §5): a PcpShardPool with N ∈ {1, 2, 4, 8} shards, in both the simulated
// and the std::thread backend, must produce verdicts and compiled Table-0
// rules byte-identical to the single-threaded PCP oracle (`decide()`), under
// interleaved policy inserts/revocations and identifier-binding churn.
//
// The workload is a deterministic script of batches. Each batch applies a
// few control-plane operations (policy insert/revoke, binding assert/
// retract) and then offers a burst of Packet-ins; the pool is drained
// (`sim.run()` / `wait_idle()`) before the next batch, matching the
// threaded backend's consistency contract: snapshots are captured at
// submission, so control-plane mutations take effect at drain boundaries.
// Within a batch everything is fair game — repeated flows (decision-cache
// replay), MAC moves across ports (epoch bumps mid-batch), spoofed sources,
// unparsable runts, and flows hashing to different shards and switches.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <random>
#include <sstream>
#include <string>
#include <variant>
#include <vector>

#include "bus/message_bus.h"
#include "core/pcp.h"
#include "openflow/wire.h"
#include "sim/simulator.h"

namespace dfi {
namespace {

// ------------------------------------------------------------ the script

struct InsertOp {
  PolicyRule rule;
  PdpPriority priority{1};
};
struct RevokeOp {
  std::size_t ordinal = 0;  // index into the world's insertion-order id list
};
struct BindOp {
  BindingEvent event;
};
using ControlOp = std::variant<InsertOp, RevokeOp, BindOp>;

struct PacketOp {
  Dpid dpid{1};
  PortNo port{1};
  Packet packet;
  bool runt = false;  // offer a truncated, unparsable frame instead
};

struct Batch {
  std::vector<ControlOp> control;
  std::vector<PacketOp> packets;
};

constexpr std::size_t kEntities = 8;

MacAddress mac_of(std::size_t i) {
  // 0x00.. first octet: unicast. The location-spoof check is multicast-gated
  // (for unicast sources the sensor self-asserts the location first), so
  // unicast keeps oracle and snapshot paths on the same branch.
  return MacAddress::from_u64(0xa0 + i);
}
Ipv4Address ip_of(std::size_t i) {
  return Ipv4Address(10, 0, 0, static_cast<std::uint8_t>(i + 1));
}
Hostname host_of(std::size_t i) { return Hostname{"h" + std::to_string(i)}; }
Username user_of(std::size_t i) { return Username{"u" + std::to_string(i)}; }

// Deterministic workload: ~6 control ops and 50 Packet-ins per batch drawn
// from a small entity pool so flows repeat (cache replay), collide across
// shards, and race the control-plane churn at batch boundaries.
std::vector<Batch> make_script(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };

  std::vector<Batch> script;
  std::size_t inserts_so_far = 0;
  for (int round = 0; round < 8; ++round) {
    Batch batch;
    const std::size_t n_control = 4 + pick(3);
    for (std::size_t c = 0; c < n_control; ++c) {
      const std::size_t kind = pick(10);
      if (kind < 4) {  // insert
        InsertOp op;
        op.rule.action = pick(3) != 0 ? PolicyAction::kAllow : PolicyAction::kDeny;
        switch (pick(5)) {
          case 0: op.rule.source.user = user_of(pick(kEntities / 2)); break;
          case 1: op.rule.source.ip = ip_of(pick(kEntities)); break;
          case 2: op.rule.destination.ip = ip_of(pick(kEntities)); break;
          case 3:
            op.rule.destination.l4_port =
                static_cast<std::uint16_t>(pick(2) ? 445 : 80);
            break;
          default: op.rule.properties.ip_proto = pick(2) ? 6 : 17; break;
        }
        op.priority = PdpPriority{static_cast<std::uint32_t>(1 + pick(5))};
        batch.control.push_back(op);
        ++inserts_so_far;
      } else if (kind < 6 && inserts_so_far > 0) {  // revoke (maybe repeated)
        batch.control.push_back(RevokeOp{pick(inserts_so_far)});
      } else {  // binding churn
        BindOp op;
        const std::size_t e = pick(kEntities);
        switch (pick(3)) {
          case 0:
            op.event.kind = BindingKind::kUserHost;
            op.event.user = user_of(e % (kEntities / 2));
            op.event.host = host_of(e);
            break;
          case 1:
            op.event.kind = BindingKind::kHostIp;
            op.event.host = host_of(e);
            op.event.ip = ip_of(e);
            break;
          default:
            op.event.kind = BindingKind::kIpMac;
            op.event.ip = ip_of(e);
            // Sometimes bind the ip to the "wrong" MAC: subsequent packets
            // from the canonical MAC become spoofs until rebound.
            op.event.mac = mac_of(pick(4) == 0 ? (e + 1) % kEntities : e);
            break;
        }
        op.event.retracted = pick(4) == 0;
        batch.control.push_back(op);
      }
    }

    for (int p = 0; p < 50; ++p) {
      PacketOp op;
      op.dpid = Dpid{1 + rng() % 2};
      op.port = PortNo{static_cast<std::uint32_t>(1 + pick(4))};
      const std::size_t s = pick(kEntities);
      const std::size_t d = pick(kEntities);
      // 1 in 5 packets claims an IP whose DHCP binding may name another MAC.
      const MacAddress src_mac = mac_of(pick(5) == 0 ? (s + 1) % kEntities : s);
      const std::uint16_t sport = static_cast<std::uint16_t>(1000 + 1000 * pick(3));
      const std::uint16_t dport = pick(2) ? 445 : 80;
      op.packet = pick(4) == 0
                      ? make_udp_packet(src_mac, mac_of(d), ip_of(s), ip_of(d),
                                        sport, dport)
                      : make_tcp_packet(src_mac, mac_of(d), ip_of(s), ip_of(d),
                                        sport, dport);
      op.runt = pick(25) == 0;
      batch.packets.push_back(op);
    }
    script.push_back(std::move(batch));
  }
  return script;
}

// ------------------------------------------------------------- the worlds

struct Verdict {
  bool allow = false;
  bool spoofed = false;
  bool default_deny = false;
  std::uint64_t rule_id = 0;

  friend bool operator==(const Verdict&, const Verdict&) = default;
  friend std::ostream& operator<<(std::ostream& os, const Verdict& v) {
    return os << "{allow=" << v.allow << " spoofed=" << v.spoofed
              << " default_deny=" << v.default_deny << " rule=" << v.rule_id << "}";
  }
};

// What one Packet-in produced, keyed by submission index: the verdict and
// the compiled Table-0 rule's exact wire encoding.
struct PacketResult {
  Verdict verdict;
  std::vector<std::uint8_t> rule_bytes;

  friend bool operator==(const PacketResult&, const PacketResult&) = default;
};

PacketResult result_of(const PcpDecision& decision) {
  PacketResult result;
  result.verdict = Verdict{decision.allow, decision.spoofed,
                           decision.policy.default_deny,
                           decision.policy.rule_id.value};
  result.rule_bytes = encode(OfMessage{0, decision.installed_rule});
  return result;
}

// One complete DFI control plane (bus, ERM, Policy Manager, PCP) plus the
// wire-level record of everything the PCP wrote to its two switches.
struct World {
  explicit World(const PcpConfig& config)
      : erm(bus), policy(bus), pcp(sim, bus, erm, policy, config) {
    for (std::uint64_t d : {std::uint64_t{1}, std::uint64_t{2}}) {
      pcp.register_switch(Dpid{d}, [this, d](const OfMessage& message) {
        // Tag with the receiving switch so the byte records only compare
        // equal when every message also went to the same switch.
        std::vector<std::uint8_t> tagged{static_cast<std::uint8_t>(d)};
        const std::vector<std::uint8_t> bytes = encode(message);
        tagged.insert(tagged.end(), bytes.begin(), bytes.end());
        const auto* mod = std::get_if<FlowModMsg>(&message.payload);
        if (mod != nullptr && mod->command == FlowModCommand::kDelete) {
          // Flush DELETEs are issued during control ops, outside the pool:
          // their order is submission order in every configuration.
          delete_wire.insert(delete_wire.end(), tagged.begin(), tagged.end());
        } else {
          add_writes.push_back(std::move(tagged));
        }
      });
    }
  }

  void apply(const ControlOp& op) {
    if (const auto* insert = std::get_if<InsertOp>(&op)) {
      inserted.push_back(policy.insert(insert->rule, insert->priority, "difftest"));
    } else if (const auto* revoke = std::get_if<RevokeOp>(&op)) {
      policy.revoke(inserted.at(revoke->ordinal));
    } else {
      erm.apply(std::get<BindOp>(op).event);
    }
  }

  PacketInMsg packet_in_for(const PacketOp& op) const {
    PacketInMsg msg;
    msg.in_port = op.port;
    msg.table_id = 0;
    msg.data = op.packet.serialize();
    if (op.runt) msg.data.resize(4);  // truncated frame: unparsable
    return msg;
  }

  Simulator sim;
  MessageBus bus;
  EntityResolutionManager erm;
  PolicyManager policy;
  PolicyCompilationPoint pcp;
  std::vector<std::vector<std::uint8_t>> add_writes;  // switch-tagged ADD mods
  std::vector<std::uint8_t> delete_wire;              // concatenated flush DELETEs
  std::vector<PacketResult> results;                  // by submission index
  std::vector<PolicyRuleId> inserted;
};

// Oracle: the synchronous single-threaded decision path.
void run_oracle(World& world, const std::vector<Batch>& script) {
  for (const Batch& batch : script) {
    for (const ControlOp& op : batch.control) world.apply(op);
    for (const PacketOp& packet : batch.packets) {
      world.results.push_back(
          result_of(world.pcp.decide(packet.dpid, world.packet_in_for(packet))));
    }
  }
}

// Candidate: the same script through handle_packet_in + the shard pool,
// drained at every batch boundary. Results are recorded under the packet's
// submission index: with several simulated shards, service completions may
// legitimately interleave across shards out of submission order, but each
// packet's verdict and compiled rule must still match the oracle's.
void run_pool(World& world, const std::vector<Batch>& script, PcpBackend backend) {
  for (const Batch& batch : script) {
    for (const ControlOp& op : batch.control) world.apply(op);
    for (const PacketOp& packet : batch.packets) {
      const std::size_t index = world.results.size();
      world.results.emplace_back();
      const bool accepted = world.pcp.handle_packet_in(
          packet.dpid, world.packet_in_for(packet),
          [&world, index](const PcpDecision& decision) {
            world.results[index] = result_of(decision);
          });
      ASSERT_TRUE(accepted) << "queue sized to never drop in this test";
    }
    if (backend == PcpBackend::kSimulated) {
      world.sim.run();
    } else {
      world.pcp.wait_idle();
    }
  }
}

PcpConfig base_config() {
  PcpConfig config;
  config.queue_capacity = 512;  // > batch size: no overload drops
  return config;
}

// Candidate: the same script through handle_packet_in_batch, chopping each
// round's 50 Packet-ins into submission bursts of `burst` (the last burst is
// a remainder). One burst = one snapshot capture in the threaded backend, so
// this is the path that proves "snapshot once per batch" is observationally
// identical to "snapshot per packet": control-plane mutations only happen at
// round boundaries, where the pool is drained.
void run_pool_batched(World& world, const std::vector<Batch>& script,
                      PcpBackend backend, std::size_t burst) {
  for (const Batch& batch : script) {
    for (const ControlOp& op : batch.control) world.apply(op);
    std::size_t offset = 0;
    while (offset < batch.packets.size()) {
      const std::size_t n = std::min(burst, batch.packets.size() - offset);
      std::vector<PolicyCompilationPoint::BatchItem> items(n);
      for (std::size_t i = 0; i < n; ++i) {
        const PacketOp& packet = batch.packets[offset + i];
        const std::size_t index = world.results.size();
        world.results.emplace_back();
        items[i].dpid = packet.dpid;
        items[i].msg = world.packet_in_for(packet);
        items[i].done = [&world, index](const PcpDecision& decision) {
          world.results[index] = result_of(decision);
        };
      }
      const std::size_t accepted = world.pcp.handle_packet_in_batch(items);
      ASSERT_EQ(accepted, n) << "queue sized to never drop in this test";
      for (const auto& item : items) ASSERT_TRUE(item.accepted);
      offset += n;
    }
    if (backend == PcpBackend::kSimulated) {
      world.sim.run();
    } else {
      world.pcp.wait_idle();
    }
  }
}

// ---------------------------------------------------------------- the test

TEST(ShardPoolDifferential, AllShardCountsAndBackendsMatchOracleByteForByte) {
  const std::vector<Batch> script = make_script(0xD1FF5EEDull);

  World oracle(base_config());
  run_oracle(oracle, script);
  ASSERT_FALSE(oracle.add_writes.empty());
  ASSERT_FALSE(oracle.delete_wire.empty());
  ASSERT_EQ(oracle.results.size(), 8u * 50u);

  for (const PcpBackend backend : {PcpBackend::kSimulated, PcpBackend::kThreads}) {
    for (const std::size_t shards : {std::size_t{1}, std::size_t{2},
                                     std::size_t{4}, std::size_t{8}}) {
      std::ostringstream label;
      label << (backend == PcpBackend::kSimulated ? "simulated" : "threads")
            << "/shards=" << shards;
      SCOPED_TRACE(label.str());

      PcpConfig config = base_config();
      config.backend = backend;
      config.shards = shards;
      World world(config);
      run_pool(world, script, backend);

      // Same insert sequence -> same rule-id sequence in every world.
      ASSERT_EQ(world.inserted.size(), oracle.inserted.size());
      for (std::size_t i = 0; i < world.inserted.size(); ++i) {
        EXPECT_EQ(world.inserted[i].value, oracle.inserted[i].value) << "insert " << i;
      }

      // Per-packet: verdict and compiled Table-0 rule byte-identical.
      ASSERT_EQ(world.results.size(), oracle.results.size());
      for (std::size_t i = 0; i < world.results.size(); ++i) {
        EXPECT_EQ(world.results[i].verdict, oracle.results[i].verdict)
            << "packet " << i;
        EXPECT_EQ(world.results[i].rule_bytes, oracle.results[i].rule_bytes)
            << "packet " << i;
      }

      // Flush DELETEs are emitted on the control path: byte-identical, in
      // order, in every configuration.
      EXPECT_EQ(world.delete_wire, oracle.delete_wire);

      // Installed ADDs, in order: both backends apply effects in submission
      // order — inline decisions trivially, the threaded backend through its
      // reorder buffer.
      EXPECT_EQ(world.add_writes, oracle.add_writes);

      // Outcome counters are part of the observable contract too. (Cache
      // hit/miss tallies are deliberately excluded: the threaded backend
      // may legitimately classify a replay differently, never a verdict.
      // packet_ins is a handle_packet_in counter the oracle's synchronous
      // decide() does not touch.)
      const PcpStats& got = world.pcp.stats();
      const PcpStats& want = oracle.pcp.stats();
      EXPECT_EQ(got.packet_ins, 8u * 50u);
      EXPECT_EQ(got.allowed, want.allowed);
      EXPECT_EQ(got.denied, want.denied);
      EXPECT_EQ(got.default_denied, want.default_denied);
      EXPECT_EQ(got.spoof_denied, want.spoof_denied);
      EXPECT_EQ(got.unparsable, want.unparsable);
      EXPECT_EQ(got.rules_installed, want.rules_installed);
      EXPECT_EQ(got.dropped_overload, 0u);
      EXPECT_EQ(got.mac_moves, want.mac_moves);
      EXPECT_EQ(world.erm.epoch(), oracle.erm.epoch());

      // Final policy state converged to the oracle's.
      EXPECT_EQ(world.policy.size(), oracle.policy.size());
    }
  }
}

TEST(ShardPoolDifferential, MultipleShardsActuallyShareTheLoad) {
  const std::vector<Batch> script = make_script(0xBEEFull);
  PcpConfig config = base_config();
  config.shards = 8;
  World world(config);
  run_pool(world, script, PcpBackend::kSimulated);

  std::size_t shards_used = 0;
  for (std::size_t s = 0; s < world.pcp.shard_count(); ++s) {
    if (world.pcp.decision_cache_stats(s).lookups() > 0) ++shards_used;
  }
  EXPECT_GE(shards_used, 2u) << "flow-tuple hash must spread flows over shards";
}

TEST(ShardPoolDifferential, ThreadedEffectsAreDeferredUntilPolled) {
  PcpConfig config = base_config();
  config.backend = PcpBackend::kThreads;
  config.shards = 2;
  World world(config);

  const Packet packet = make_tcp_packet(mac_of(0), mac_of(1), ip_of(0), ip_of(1),
                                        1000, 445);
  PacketOp op;
  op.packet = packet;
  int done_calls = 0;
  ASSERT_TRUE(world.pcp.handle_packet_in(
      Dpid{1}, world.packet_in_for(op),
      [&done_calls](const PcpDecision&) { ++done_calls; }));
  // The worker may already have decided, but effects (rule install, done
  // callback) only run on the control thread during poll/wait.
  EXPECT_EQ(done_calls, 0);
  EXPECT_TRUE(world.add_writes.empty());
  world.pcp.wait_idle();
  EXPECT_EQ(done_calls, 1);
  EXPECT_FALSE(world.add_writes.empty());
  EXPECT_EQ(world.pcp.stats().rules_installed, 1u);
}

// ------------------------------------------------------- batched submission
//
// ISSUE 6 satellite: batch submission (handle_packet_in_batch, one snapshot
// pair per burst, coalesced completion retirement) must be byte-identical to
// per-packet submission at every burst size, on both backends. Burst sizes
// cover the degenerate batch (1), a remainder-producing odd size (7), a
// typical chunk (64), and the full ring capacity (512) — one burst fills the
// ingress rings to the exact configured bound.

TEST(ShardPoolBatch, BatchSizesAreByteIdenticalToPerPacket) {
  const std::vector<Batch> script = make_script(0xBA7C4ull);

  // The per-packet candidate is the reference here (itself pinned to the
  // oracle by ShardPoolDifferential above): batching must not perturb any
  // observable relative to it — including install order and ERM epoch, which
  // the threaded reorder buffer pins exactly.
  PcpConfig reference_config = base_config();
  reference_config.backend = PcpBackend::kThreads;
  reference_config.shards = 4;
  World reference(reference_config);
  run_pool(reference, script, PcpBackend::kThreads);
  ASSERT_FALSE(reference.add_writes.empty());

  for (const PcpBackend backend : {PcpBackend::kSimulated, PcpBackend::kThreads}) {
    for (const std::size_t burst : {std::size_t{1}, std::size_t{7},
                                    std::size_t{64}, std::size_t{512}}) {
      std::ostringstream label;
      label << (backend == PcpBackend::kSimulated ? "simulated" : "threads")
            << "/burst=" << burst;
      SCOPED_TRACE(label.str());

      PcpConfig config = base_config();
      config.backend = backend;
      config.shards = 4;
      World world(config);
      run_pool_batched(world, script, backend, burst);

      ASSERT_EQ(world.results.size(), reference.results.size());
      for (std::size_t i = 0; i < world.results.size(); ++i) {
        EXPECT_EQ(world.results[i].verdict, reference.results[i].verdict)
            << "packet " << i;
        EXPECT_EQ(world.results[i].rule_bytes, reference.results[i].rule_bytes)
            << "packet " << i;
      }
      EXPECT_EQ(world.delete_wire, reference.delete_wire);

      // Both backends install in submission order.
      EXPECT_EQ(world.add_writes, reference.add_writes);

      const PcpStats& got = world.pcp.stats();
      const PcpStats& want = reference.pcp.stats();
      EXPECT_EQ(got.packet_ins, want.packet_ins);
      EXPECT_EQ(got.allowed, want.allowed);
      EXPECT_EQ(got.denied, want.denied);
      EXPECT_EQ(got.default_denied, want.default_denied);
      EXPECT_EQ(got.spoof_denied, want.spoof_denied);
      EXPECT_EQ(got.unparsable, want.unparsable);
      EXPECT_EQ(got.rules_installed, want.rules_installed);
      EXPECT_EQ(got.dropped_overload, 0u);
      EXPECT_EQ(got.mac_moves, want.mac_moves);
      EXPECT_EQ(world.erm.epoch(), reference.erm.epoch());
      EXPECT_EQ(world.policy.size(), reference.policy.size());
    }
  }
}

TEST(ShardPoolBatch, PartialAcceptanceMarksItemsIndividually) {
  // A burst larger than the remaining ring space must accept a prefix-per-
  // shard, flag exactly the accepted items, and count the rest as overload
  // drops — the proxy uses the per-item flag to suppress only rejected pins.
  PcpConfig config;
  config.backend = PcpBackend::kThreads;
  config.shards = 1;
  config.queue_capacity = 4;
  World world(config);
  // Stall the lone worker so nothing drains while the burst lands.
  world.pcp.set_worker_fault_probe(
      [](std::size_t, std::uint64_t) { return WorkerFault::kStall; });

  // 50 items against a 4-deep ring: every acceptance past 4 costs the
  // stalling worker 200us, so the burst always overruns by a wide margin.
  std::vector<PolicyCompilationPoint::BatchItem> items(50);
  std::atomic<int> done_calls{0};
  for (std::size_t i = 0; i < items.size(); ++i) {
    PacketOp op;
    op.packet = make_tcp_packet(mac_of(0), mac_of(1), ip_of(0), ip_of(1),
                                static_cast<std::uint16_t>(1000 + i), 445);
    items[i].dpid = Dpid{1};
    items[i].msg = world.packet_in_for(op);
    items[i].done = [&done_calls](const PcpDecision&) { ++done_calls; };
  }
  const std::size_t accepted = world.pcp.handle_packet_in_batch(items);
  // The ring holds exactly queue_capacity; the worker may have popped a few
  // before stalling, so "at least capacity, less than all" is the bound.
  EXPECT_GE(accepted, 4u);
  EXPECT_LT(accepted, items.size());
  // The per-item flag is the contract: the proxy counts a suppression for
  // exactly the items the batch could not place. (Which items land is
  // timing-dependent — the stalling worker may free a slot mid-burst — so
  // the flags, not their positions, are asserted.)
  std::size_t flagged = 0;
  for (const auto& item : items) flagged += item.accepted ? 1u : 0u;
  EXPECT_EQ(flagged, accepted);
  EXPECT_EQ(world.pcp.stats().dropped_overload, items.size() - accepted);

  world.pcp.set_worker_fault_probe(nullptr);
  world.pcp.wait_idle();
  EXPECT_EQ(done_calls.load(), static_cast<int>(accepted));
}

// ------------------------------------------- fault-injection regressions
//
// Pinned-probe regressions for behavior the invariant fuzzer exercises
// randomly (tests/support/fuzz_harness.cc, invariant I5): wait_idle must
// never wedge on a killed worker, abandoned jobs leave no effects, stranded
// queues are recovered inline in submission order, and dead shards reject
// work until respawned.

PcpConfig fault_pool_config(std::size_t shards) {
  PcpConfig config;
  config.backend = PcpBackend::kThreads;
  config.shards = shards;
  config.queue_capacity = 64;
  return config;
}

TEST(ShardPoolFaults, WaitIdleSurvivesWorkerKill) {
  Simulator sim;
  PcpShardPool pool(fault_pool_config(1));
  // Kill the worker on the last submitted job. Deterministic: the FIFO
  // worker cannot probe seq 3 before it is submitted, so seqs 0-2 are
  // always accepted and executed first.
  pool.set_worker_fault_probe([](std::size_t, std::uint64_t seq) {
    return seq == 3 ? WorkerFault::kKill : WorkerFault::kNone;
  });
  std::vector<std::uint64_t> applied;
  for (std::uint64_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(pool.submit_threaded(0, [i, &applied]() {
      return [i, &applied]() { applied.push_back(i); };
    }));
  }
  // Pre-fix this wedged forever: the abandoned seq never completed and
  // nothing woke the waiter on worker death.
  pool.wait_idle();
  EXPECT_EQ(applied, (std::vector<std::uint64_t>{0, 1, 2}));
  EXPECT_EQ(pool.jobs_abandoned(), 1u);
  EXPECT_EQ(pool.dead_workers(), 1u);
}

TEST(ShardPoolFaults, KilledShardRejectsSubmissionsUntilRespawn) {
  Simulator sim;
  PcpShardPool pool(fault_pool_config(2));
  pool.set_worker_fault_probe([](std::size_t shard, std::uint64_t seq) {
    return (shard == 0 && seq == 0) ? WorkerFault::kKill : WorkerFault::kNone;
  });
  bool killed_job_ran = false;
  ASSERT_TRUE(pool.submit_threaded(0, [&killed_job_ran]() {
    return [&killed_job_ran]() { killed_job_ran = true; };
  }));
  pool.wait_idle();
  EXPECT_FALSE(killed_job_ran);  // killed mid-decision: effects never existed
  ASSERT_EQ(pool.dead_workers(), 1u);

  // The dead shard drops work like a full queue; healthy shards are
  // unaffected.
  EXPECT_FALSE(pool.submit_threaded(0, []() { return []() {}; }));
  bool healthy_ran = false;
  ASSERT_TRUE(pool.submit_threaded(1, [&healthy_ran]() {
    return [&healthy_ran]() { healthy_ran = true; };
  }));
  pool.wait_idle();
  EXPECT_TRUE(healthy_ran);

  EXPECT_EQ(pool.respawn_dead_workers(), 1u);
  EXPECT_EQ(pool.dead_workers(), 0u);
  bool revived_ran = false;
  ASSERT_TRUE(pool.submit_threaded(0, [&revived_ran]() {
    return [&revived_ran]() { revived_ran = true; };
  }));
  pool.wait_idle();
  EXPECT_TRUE(revived_ran);
}

TEST(ShardPoolFaults, StrandedJobsRecoverInlineInSubmissionOrder) {
  Simulator sim;
  PcpShardPool pool(fault_pool_config(1));
  // Kill on the first job: everything still queued behind it is stranded on
  // the dead shard and must run inline on the control thread. How many of
  // the later submissions the dying shard still accepts races the kill, so
  // the assertions are conservation and order, not exact counts.
  pool.set_worker_fault_probe([](std::size_t, std::uint64_t seq) {
    return seq == 0 ? WorkerFault::kKill : WorkerFault::kNone;
  });
  std::vector<std::uint64_t> applied;
  std::uint64_t accepted = 0;
  for (std::uint64_t i = 0; i < 8; ++i) {
    if (pool.submit_threaded(0, [i, &applied]() {
          return [i, &applied]() { applied.push_back(i); };
        })) {
      ++accepted;
    }
  }
  pool.wait_idle();
  ASSERT_GE(accepted, 1u);
  EXPECT_EQ(pool.jobs_abandoned(), 1u);
  EXPECT_EQ(applied.size(), static_cast<std::size_t>(accepted - 1));
  for (std::size_t i = 1; i < applied.size(); ++i) {
    EXPECT_LT(applied[i - 1], applied[i]);
  }
}

TEST(ShardPoolFaults, StallsDelayButPreserveSubmissionOrder) {
  Simulator sim;
  PcpShardPool pool(fault_pool_config(2));
  // Shard 0 stalls on every job while shard 1 races ahead; the reorder
  // buffer must still release effects in global submission order.
  pool.set_worker_fault_probe([](std::size_t shard, std::uint64_t) {
    return shard == 0 ? WorkerFault::kStall : WorkerFault::kNone;
  });
  std::vector<std::uint64_t> applied;
  for (std::uint64_t i = 0; i < 16; ++i) {
    ASSERT_TRUE(pool.submit_threaded(i % 2, [i, &applied]() {
      return [i, &applied]() { applied.push_back(i); };
    }));
  }
  pool.wait_idle();
  ASSERT_EQ(applied.size(), 16u);
  for (std::uint64_t i = 0; i < 16; ++i) EXPECT_EQ(applied[i], i);
}

}  // namespace
}  // namespace dfi
