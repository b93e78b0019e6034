// Warm-standby replication tests (src/replication/): snapshot bootstrap,
// pipelined record shipping, tail retransmission after a dropped link,
// fence-epoch split-brain protection, the dirty-plane restart discipline,
// and the raw-mode socket transport over real loopback sockets.
//
// The in-memory tests wire two Replicas through a queued Link so every
// send is delivered on a later pump() — no re-entrant decoding, and the
// link can drop, corrupt, partition, or chunk bytes like a real TCP
// stream (or a real network split) would.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bus/message_bus.h"
#include "common/rng.h"
#include "core/health_monitor.h"
#include "core/journal.h"
#include "core/persistence.h"
#include "fault/fault_plan.h"
#include "net/asyncio/conman.h"
#include "net/asyncio/event_loop.h"
#include "replication/repl_frame.h"
#include "replication/repl_transport.h"
#include "replication/replica.h"
#include "sim/simulator.h"

namespace dfi {
namespace {

PolicyRule make_rule(std::uint8_t octet, PolicyAction action) {
  PolicyRule rule;
  rule.action = action;
  rule.properties.ether_type = 0x0800;
  rule.source.ip = Ipv4Address(10, 0, 0, octet);
  rule.source.user = Username{"user" + std::to_string(octet)};
  rule.destination.l4_port = static_cast<std::uint16_t>(1000 + octet);
  return rule;
}

BindingEvent make_binding(BindingKind kind, std::uint8_t octet) {
  BindingEvent event;
  event.kind = kind;
  event.user = Username{"user" + std::to_string(octet)};
  event.host = Hostname{"host" + std::to_string(octet)};
  event.ip = Ipv4Address(10, 0, 0, octet);
  event.mac = MacAddress::from_u64(0xa000 + octet);
  event.dpid = Dpid{1};
  event.port = PortNo{octet};
  return event;
}

// One replica node: store + journal + state plane + the Replica endpoint.
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

// Queued bidirectional byte link between two replicas. Sends enqueue;
// pump() delivers FIFO, so handler stacks never nest. take_down() is an
// RST both endpoints observe; partition() silently eats bytes (a network
// split: the sender keeps believing the link is up).
struct Link {
  Link(Replica& a, Replica& b) : a_(&a), b_(&b) {
    a.set_send([this](const std::string& bytes) { enqueue(1, bytes); });
    b.set_send([this](const std::string& bytes) { enqueue(0, bytes); });
  }

  void enqueue(int dest, const std::string& bytes) {
    if (!up || partitioned) return;
    queue.emplace_back(dest, bytes);
  }

  void take_down() {
    up = false;
    queue.clear();
    a_->on_link_down();
    b_->on_link_down();
  }
  void bring_up() { up = true; }

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
      const auto* data = reinterpret_cast<const std::uint8_t*>(bytes.data());
      if (chunker == nullptr) {
        target->on_bytes(data, bytes.size());
        continue;
      }
      std::size_t off = 0;  // torn delivery: 1..7 bytes at a time
      while (off < bytes.size()) {
        const auto n = static_cast<std::size_t>(chunker->uniform_int(1, 7));
        const std::size_t take = std::min(n, bytes.size() - off);
        target->on_bytes(data + off, take);
        off += take;
      }
    }
  }

  Replica* a_;
  Replica* b_;
  std::deque<std::pair<int, std::string>> queue;
  bool up = true;
  bool partitioned = false;
  Rng* chunker = nullptr;
};

// The journal_test op script, reused as the replicated workload. Ops in
// [from, upto) run; the rest are skipped (prefix/suffix oracles). Note op
// 5 (the revoke) only runs when the same invocation inserted enough rules.
std::size_t run_script(Node& node, std::size_t upto = SIZE_MAX,
                       std::size_t from = 0) {
  std::size_t op = 0;
  std::vector<PolicyRuleId> ids;
  const auto step = [&](auto&& fn) {
    if (op >= from && op < upto) fn();
    ++op;
  };
  step([&] { ids.push_back(node.manager.insert(make_rule(1, PolicyAction::kAllow), PdpPriority{10}, "pdp-a")); });
  step([&] { node.erm.apply(make_binding(BindingKind::kUserHost, 1)); });
  step([&] { ids.push_back(node.manager.insert(make_rule(2, PolicyAction::kDeny), PdpPriority{20}, "pdp-b")); });
  step([&] { node.erm.apply(make_binding(BindingKind::kHostIp, 1)); });
  step([&] { ids.push_back(node.manager.insert(make_rule(3, PolicyAction::kAllow), PdpPriority{20}, "pdp-b")); });
  step([&] {
    if (ids.size() > 1) node.manager.revoke(ids[1]);
  });
  step([&] { node.erm.apply(make_binding(BindingKind::kIpMac, 2)); });
  step([&] {
    BindingEvent retract = make_binding(BindingKind::kUserHost, 1);
    retract.retracted = true;
    node.erm.apply(retract);
  });
  step([&] { ids.push_back(node.manager.insert(make_rule(4, PolicyAction::kDeny), PdpPriority{5}, "pdp-c")); });
  step([&] { node.erm.apply(make_binding(BindingKind::kMacLocation, 2)); });
  return op;
}

void expect_converged(const Node& primary, const Node& standby) {
  EXPECT_EQ(standby.image(), primary.image());
  EXPECT_EQ(standby.manager.epoch(), primary.manager.epoch());
  EXPECT_EQ(standby.erm.epoch(), primary.erm.epoch());
  EXPECT_EQ(standby.manager.next_id(), primary.manager.next_id());
  EXPECT_EQ(standby.journal->fence_epoch(), primary.journal->fence_epoch());
}

TEST(Replication, SnapshotBootstrapThenStreamingIsByteIdentical) {
  Node a(11);
  Node b(22);
  Link link(*a.replica, *b.replica);

  a.replica->become_primary();
  b.replica->become_standby();  // fresh standby: hello -> snapshot bootstrap
  link.pump();
  EXPECT_EQ(b.replica->stats().snapshots_installed, 1u);
  EXPECT_TRUE(a.replica->standby_synced());

  const std::size_t ops = run_script(a);
  link.pump();

  expect_converged(a, b);
  EXPECT_EQ(b.replica->stats().records_applied, ops);
  EXPECT_EQ(a.replica->stats().records_shipped, ops);
  // Cumulative acks drained the retransmit buffer completely.
  EXPECT_EQ(a.replica->retransmit_buffered(), 0u);

  // WAL ordering held on the standby: its OWN journal replays to the same
  // bytes (this is what makes promotion byte-identical).
  Node recovered(33);
  Journal reader(b.store);
  const auto recovery = reader.recover(recovered.manager, recovered.erm);
  ASSERT_TRUE(recovery.ok()) << recovery.error().message;
  EXPECT_EQ(recovered.image(), a.image());
}

TEST(Replication, ChunkedDeliveryDecodesIdentically) {
  // Same workload, but every delivery is torn into 1..7-byte reads drawn
  // from a seeded FaultPlan: stream reassembly must not care.
  FaultPlan plan(0xfeed);
  Rng chunker(plan.rng().next_u64());
  Node a(11);
  Node b(22);
  Link link(*a.replica, *b.replica);
  link.chunker = &chunker;

  a.replica->become_primary();
  b.replica->become_standby();
  link.pump();
  run_script(a);
  link.pump();

  expect_converged(a, b);
  EXPECT_EQ(b.replica->stats().decode_errors, 0u);
}

TEST(Replication, BatchedShippingFlushesOnThresholdAndOnDemand) {
  ReplicaConfig batched;
  batched.flush_threshold = 1 << 20;  // nothing leaves until an explicit flush
  Node a(11, nullptr, batched);
  Node b(22);
  Link link(*a.replica, *b.replica);

  a.replica->become_primary();
  b.replica->become_standby();
  link.pump();

  run_script(a);
  link.pump();
  // Records accumulated in the batch: the standby has applied nothing yet.
  EXPECT_EQ(b.replica->stats().records_applied, 0u);

  a.replica->flush();
  link.pump();
  expect_converged(a, b);
  EXPECT_EQ(b.replica->stats().records_applied, 10u);
  // One pipelined batch; the whole batch is covered by ONE cumulative ack
  // (plus the snapshot's bootstrap ack).
  EXPECT_EQ(a.replica->stats().batches_flushed, 1u);
  EXPECT_EQ(b.replica->stats().acks_sent, 2u);
  EXPECT_EQ(a.replica->retransmit_buffered(), 0u);
}

TEST(Replication, DroppedLinkCatchesUpFromRetransmitTail) {
  Node a(11);
  Node b(22);
  Link link(*a.replica, *b.replica);

  a.replica->become_primary();
  b.replica->become_standby();
  link.pump();
  run_script(a, 5);
  link.pump();
  EXPECT_EQ(b.replica->stats().records_applied, 5u);

  // Link dies; the primary keeps appending. The new records cannot ship
  // (no link) but stay buffered for retransmission because no acks arrive.
  link.take_down();
  run_script(a, SIZE_MAX, 6);
  link.bring_up();

  // The standby detects the gap from the next heartbeat's high-water seq
  // and re-hellos; the primary retransmits the missing tail in-session.
  a.replica->tick_heartbeat();
  link.pump();

  EXPECT_EQ(a.replica->stats().retransmits, 4u);  // ops 6..9
  EXPECT_EQ(a.replica->stats().snapshots_sent, 1u);  // bootstrap only
  EXPECT_EQ(b.replica->stats().resyncs_requested, 1u);
  expect_converged(a, b);
}

TEST(Replication, CorruptStreamPoisonsDecoderThenResyncRecovers) {
  Node a(11);
  Node b(22);
  Link link(*a.replica, *b.replica);

  a.replica->become_primary();
  b.replica->become_standby();
  link.pump();
  run_script(a, 3);
  link.pump();

  run_script(a, 4, 3);  // one more record, corrupted in flight
  ASSERT_FALSE(link.queue.empty());
  link.queue.front().second[0] ^= 0xff;  // flip the magic byte
  link.pump();

  EXPECT_EQ(b.replica->stats().decode_errors, 1u);

  // The poisoned receiver dropped the link; model the TCP teardown both
  // sides see, reconnect, and let the heartbeat drive the resync.
  link.take_down();
  link.bring_up();
  a.replica->tick_heartbeat();
  link.pump();
  expect_converged(a, b);
}

TEST(Replication, StaleFencePrimaryIsRejectedFencedOutAndRefusesAppends) {
  Node a(11);
  Node b(22);
  Link link(*a.replica, *b.replica);

  a.replica->become_primary();
  b.replica->become_standby();
  link.pump();
  run_script(a, 5);
  link.pump();

  // Network split. The standby is promoted (fence bumps past everything it
  // has observed) while the old primary keeps running, oblivious.
  link.partition();
  b.replica->promote();
  EXPECT_TRUE(b.replica->is_primary());
  EXPECT_EQ(b.journal->fence_epoch(), 1u);

  // Heal the split: the deposed primary ships a record stamped with its
  // stale fence 0. The survivor answers kFenceReject; the old primary
  // observes the higher epoch, stands down, and its journal fences out.
  link.heal();
  run_script(a, 7, 6);
  const std::string b_image_before = b.image();
  link.pump();

  EXPECT_EQ(b.replica->stats().fence_rejects_sent, 1u);
  EXPECT_EQ(a.replica->stats().fence_rejects_received, 1u);
  EXPECT_FALSE(a.replica->is_primary());
  EXPECT_TRUE(a.journal->fenced_out());
  EXPECT_EQ(b.image(), b_image_before);  // the stale record changed nothing

  // Fail-secure: every further local append on the deposed node refuses.
  EXPECT_THROW(a.manager.insert(make_rule(9, PolicyAction::kAllow),
                                PdpPriority{1}, "pdp-x"),
               FencedException);
  EXPECT_GT(a.journal->stats().fenced_appends, 0u);

  // Standing down re-helloed; the survivor offered a snapshot, and the
  // deposed node's dirty plane refused it: restart required.
  EXPECT_TRUE(a.replica->needs_restart());

  // The supervisor rebuilds the deposed node as a fresh process: empty
  // plane, new journal over a clean store. The snapshot install seeds it
  // wholesale — the diverged history is discarded, and the node rejoins
  // byte-identical to the survivor, under the survivor's fence.
  Node a2(44);
  Link link2(*b.replica, *a2.replica);
  a2.replica->become_standby();
  link2.pump();
  run_script(b, 8, 6);
  link2.pump();
  EXPECT_EQ(a2.image(), b.image());
  EXPECT_EQ(a2.journal->fence_epoch(), 1u);
}

TEST(Replication, PrimaryStandsDownWhenItHearsAHigherFenceHeartbeat) {
  Node a(11);
  Node b(22);
  Link link(*a.replica, *b.replica);

  a.replica->become_primary();
  b.replica->become_standby();
  link.pump();

  link.partition();
  b.replica->promote();
  link.heal();

  // No traffic from the deposed side this time: the survivor's heartbeat
  // alone carries the higher fence and deposes it. This node's plane is
  // still EMPTY (it never applied anything), so the stand-down's re-hello
  // earns a snapshot that installs cleanly: the node rejoins as a standby
  // under the survivor's fence, and fenced_out clears because its own
  // epoch caught up to everything observed.
  b.replica->tick_heartbeat();
  link.pump();

  EXPECT_FALSE(a.replica->is_primary());
  EXPECT_EQ(a.replica->stats().snapshots_installed, 1u);
  EXPECT_EQ(a.journal->fence_epoch(), 1u);
  EXPECT_FALSE(a.journal->fenced_out());
  EXPECT_FALSE(a.replica->needs_restart());
}

TEST(Replication, OverflowedRetransmitBufferForcesSnapshotPath) {
  ReplicaConfig tiny;
  tiny.retransmit_cap = 2;
  Node a(11, nullptr, tiny);
  Node b(22);
  Link link(*a.replica, *b.replica);

  a.replica->become_primary();
  b.replica->become_standby();
  link.pump();
  run_script(a, 2);
  link.pump();
  EXPECT_EQ(b.replica->stats().records_applied, 2u);

  // Drop the link and run far past the buffer cap: the primary discards
  // the (now useless) partial tail and will answer the next hello with a
  // snapshot instead of an in-session retransmit.
  link.take_down();
  run_script(a, SIZE_MAX, 2);
  EXPECT_LT(a.replica->retransmit_buffered(), 3u);  // overflowed and cleared
  link.bring_up();
  const std::string before = b.image();
  a.replica->tick_heartbeat();
  link.pump();

  // The standby's plane is dirty (it applied records 1-2), so the snapshot
  // is refused and the restart discipline kicks in; nothing was applied
  // over the dirty plane.
  EXPECT_TRUE(b.replica->needs_restart());
  EXPECT_EQ(b.replica->stats().restarts_required, 1u);
  EXPECT_EQ(b.image(), before);

  // Restarted standby (fresh plane) bootstraps clean.
  Node b2(55);
  Link link2(*a.replica, *b2.replica);
  b2.replica->become_standby();
  link2.pump();
  expect_converged(a, b2);
}

TEST(Replication, FailoverPromotionBumpsFenceAndTakesOver) {
  // End-to-end handover through HealthMonitor: the standby's failover
  // clock runs dry, poll() runs the promotion inside a degraded window,
  // and the promoted node fences the old primary on first contact.
  Simulator sim;
  MessageBus health_bus;
  HealthConfig hc;
  hc.enabled = true;
  hc.failover_deadline = seconds(2.0);
  HealthMonitor health_a(sim.clock(), health_bus, hc, Rng(1));
  HealthMonitor health_b(sim.clock(), health_bus, hc, Rng(2));

  Node a(11, &health_a);
  Node b(22, &health_b);
  Link link(*a.replica, *b.replica);

  health_a.enable_failover(ReplicaRole::kPrimary, [&] { a.replica->promote(); });
  health_b.enable_failover(ReplicaRole::kStandby, [&] { b.replica->promote(); });
  a.replica->become_primary();
  b.replica->become_standby();
  link.pump();
  run_script(a, 5);
  link.pump();
  EXPECT_EQ(health_b.role(), ReplicaRole::kStandby);

  // Network split: no more records or beats reach the standby. Past the
  // failover deadline its monitor runs the promotion.
  link.partition();
  sim.schedule_after(seconds(3.0), [] {});
  sim.run();
  health_b.poll();

  EXPECT_EQ(health_b.role(), ReplicaRole::kPrimary);
  EXPECT_EQ(health_b.stats().promotions, 1u);
  EXPECT_TRUE(b.replica->is_primary());
  EXPECT_EQ(b.journal->fence_epoch(), 1u);
  // Promotion is byte-identical: the survivor's plane equals the deposed
  // primary's at the moment of the split (everything shipped was applied).
  EXPECT_EQ(b.image(), a.image());

  // The split heals; the oblivious old primary pushes one stale record; it
  // is fenced, stands down, and its monitor ledgers the demotion.
  link.heal();
  run_script(a, 7, 6);
  link.pump();
  EXPECT_FALSE(a.replica->is_primary());
  EXPECT_TRUE(a.journal->fenced_out());
  EXPECT_EQ(health_a.role(), ReplicaRole::kStandby);
  EXPECT_EQ(health_a.stats().demotions, 1u);
}

// ---------------------------------------------------------------- transport

template <typename Cond>
bool pump_until(net::EventLoop& loop, Cond cond, int timeout_ms = 2000) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (!cond()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    loop.run_once(5);
  }
  return true;
}

TEST(Replication, TransportStreamsOverRealLoopbackSockets) {
  net::EventLoop loop;
  net::ConnectionManager conman_a(loop, {});
  net::ConnectionManager conman_b(loop, {});

  Node a(11);
  Node b(22);
  ReplTransport transport_a(loop, conman_a, *a.replica, /*heartbeat_ms=*/5);
  ReplTransport transport_b(loop, conman_b, *b.replica, /*heartbeat_ms=*/5);

  a.replica->become_primary();
  const auto port = transport_a.listen("127.0.0.1", 0);
  ASSERT_TRUE(port.ok()) << port.error().message;
  transport_b.dial("127.0.0.1", port.value());

  ASSERT_TRUE(pump_until(loop, [&] {
    return b.replica->stats().snapshots_installed == 1;
  }));

  const std::size_t ops = run_script(a);
  ASSERT_TRUE(pump_until(loop, [&] {
    return b.replica->stats().records_applied == ops;
  }));
  expect_converged(a, b);

  // Heartbeats ride the event-loop timer wheel end to end.
  transport_a.start_heartbeats();
  ASSERT_TRUE(pump_until(loop, [&] {
    return b.replica->stats().heartbeats_received >= 3;
  }));
  // And the cumulative acks flowed back over the same socket.
  ASSERT_TRUE(pump_until(loop, [&] {
    return a.replica->retransmit_buffered() == 0;
  }));
}

// A live standby whose primary dies: its failover deadline runs on wall
// time and is evaluated on the replication link's own timer, so it
// promotes and bumps its fence with nothing running but the event loop.
TEST(Replication, TransportStandbyPromotesOnWallTimeWhenPrimaryDies) {
  constexpr std::uint64_t kHeartbeatMs = 20;
  constexpr auto kFailoverDeadline = std::chrono::milliseconds(100);
  constexpr auto kSlack = std::chrono::milliseconds(150);
  net::EventLoop loop;
  net::ConnectionManager conman_a(loop, {});
  net::ConnectionManager conman_b(loop, {});
  MessageBus health_bus;
  HealthConfig hc;
  hc.enabled = true;
  hc.failover_deadline = milliseconds(100.0);
  HealthMonitor health_b(monotonic_now, health_bus, hc, Rng(2));

  Node a(11);
  Node b(22, &health_b);
  health_b.enable_failover(ReplicaRole::kStandby, [&] { b.replica->promote(); });
  auto transport_a =
      std::make_unique<ReplTransport>(loop, conman_a, *a.replica, kHeartbeatMs);
  ReplTransport transport_b(loop, conman_b, *b.replica, kHeartbeatMs);

  a.replica->become_primary();
  const auto port = transport_a->listen("127.0.0.1", 0);
  ASSERT_TRUE(port.ok()) << port.error().message;
  transport_b.dial("127.0.0.1", port.value());
  transport_a->start_heartbeats();
  transport_b.start_heartbeats();
  ASSERT_TRUE(pump_until(loop, [&] { return b.replica->stats().snapshots_installed == 1; }));
  const std::size_t ops = run_script(a);
  ASSERT_TRUE(pump_until(loop, [&] { return b.replica->stats().records_applied == ops; }));

  // While the primary beats, three deadlines pass without a promotion.
  const auto beating_until = std::chrono::steady_clock::now() + 3 * kFailoverDeadline;
  ASSERT_TRUE(pump_until(loop, [&] { return std::chrono::steady_clock::now() > beating_until; }));
  EXPECT_EQ(health_b.role(), ReplicaRole::kStandby);
  EXPECT_EQ(health_b.stats().promotions, 0u);

  // The primary's process dies with its transport.
  const auto killed = std::chrono::steady_clock::now();
  transport_a.reset();
  ASSERT_TRUE(pump_until(loop, [&] { return health_b.role() == ReplicaRole::kPrimary; }));
  EXPECT_LE(std::chrono::steady_clock::now() - killed,
            kFailoverDeadline + std::chrono::milliseconds(kHeartbeatMs) + kSlack);
  EXPECT_EQ(health_b.stats().promotions, 1u);
  EXPECT_TRUE(b.replica->is_primary());
  EXPECT_EQ(b.journal->fence_epoch(), 1u);
  EXPECT_EQ(b.image(), a.image());
}

// A bootstrap snapshot far larger than the loopback socket buffers: the
// primary's writes hit EAGAIN, so the link only completes if the transport
// re-arms EPOLLOUT and drains the rest. conman already starts every
// connection it hands out, and a second start() used to drop the
// connection's registration — the stream then stalled for good after the
// first few megabytes.
TEST(Replication, TransportBootstrapsMultiMegabyteSnapshotOverLoopback) {
  net::EventLoop loop;
  net::ConnectionManager conman_a(loop, {});
  net::ConnectionManager conman_b(loop, {});

  Node a(11);
  Node b(22);
  a.replica->become_primary();
  for (std::uint32_t i = 0; i < 36000; ++i) {
    PolicyRule rule;
    rule.action = i % 5 == 0 ? PolicyAction::kDeny : PolicyAction::kAllow;
    rule.source.ip = Ipv4Address(0x0a000000u + i);
    rule.source.user = Username{"bootstrap-user-" + std::to_string(i)};
    rule.destination.host = Hostname{"bootstrap-host-" + std::to_string(i)};
    rule.destination.l4_port = static_cast<std::uint16_t>(1024 + i % 40000);
    a.manager.insert(rule, PdpPriority{1 + i % 8}, "bootstrap-pdp");
  }
  const std::size_t snapshot_bytes =
      Journal::snapshot_payload(a.manager, a.erm).size();
  ASSERT_GE(snapshot_bytes, std::size_t{4} << 20);

  ReplTransport transport_a(loop, conman_a, *a.replica, /*heartbeat_ms=*/5);
  ReplTransport transport_b(loop, conman_b, *b.replica, /*heartbeat_ms=*/5);
  const auto port = transport_a.listen("127.0.0.1", 0);
  ASSERT_TRUE(port.ok()) << port.error().message;
  transport_b.dial("127.0.0.1", port.value());

  ASSERT_TRUE(pump_until(loop, [&] {
    return b.replica->stats().snapshots_installed == 1;
  }, /*timeout_ms=*/20000)) << "snapshot of " << snapshot_bytes << " bytes stalled";
  expect_converged(a, b);
}

TEST(Replication, DecoderPoisonsPermanentlyOnGarbage) {
  repl::ReplFrameDecoder decoder;
  std::vector<std::uint8_t> garbage(repl::kReplHeaderSize, 0x00);  // bad magic
  decoder.feed(garbage.data(), garbage.size());
  repl::ReplFrame frame;
  EXPECT_FALSE(decoder.next(frame));
  EXPECT_TRUE(decoder.poisoned());
  // Even valid bytes after the poison never decode: the link must die.
  const std::string good = repl::encode_frame(
      {repl::FrameType::kHeartbeat, 0, 1, 1, {}});
  decoder.feed(reinterpret_cast<const std::uint8_t*>(good.data()), good.size());
  EXPECT_FALSE(decoder.next(frame));
  EXPECT_TRUE(decoder.poisoned());
  decoder.reset();
  EXPECT_FALSE(decoder.poisoned());
  decoder.feed(reinterpret_cast<const std::uint8_t*>(good.data()), good.size());
  EXPECT_TRUE(decoder.next(frame));
  EXPECT_EQ(frame.type, repl::FrameType::kHeartbeat);
}

}  // namespace
}  // namespace dfi
