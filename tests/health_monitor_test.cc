// Tests for the HealthMonitor degradation state machine, reconnect backoff
// draws, failover, and the proxy's fail-secure/fail-open degraded gate
// (DESIGN.md §6). Supervised reconnects are tested where they run, on the
// event loop (conman_test); live deadlines on wall time in
// socket_frontend_test and replication_test.
#include <gtest/gtest.h>

#include <algorithm>

#include "bus/message_bus.h"
#include "core/dfi_system.h"
#include "core/health_monitor.h"
#include "core/journal.h"
#include "sim/simulator.h"

namespace dfi {
namespace {

HealthConfig enabled_config() {
  HealthConfig config;
  config.enabled = true;
  return config;
}

class HealthMonitorTest : public ::testing::Test {
 protected:
  HealthMonitorTest() : monitor_(sim_.clock(), bus_, enabled_config(), Rng(7)) {}

  Simulator sim_;
  MessageBus bus_;
  HealthMonitor monitor_;
};

TEST_F(HealthMonitorTest, StartsHealthyAndGatesOnlyWhenEnabled) {
  EXPECT_EQ(monitor_.state(), HealthState::kHealthy);
  EXPECT_FALSE(monitor_.gating());

  HealthConfig disabled;  // enabled = false
  HealthMonitor off(sim_.clock(), bus_, disabled, Rng(7));
  off.enter_degraded("test");
  EXPECT_FALSE(off.gating());  // disabled monitoring never gates
  EXPECT_EQ(off.state(), HealthState::kDegraded);  // but still tracks state
}

TEST_F(HealthMonitorTest, DegradedWindowsAreRefCounted) {
  monitor_.enter_degraded("a");
  monitor_.enter_degraded("b");
  EXPECT_EQ(monitor_.state(), HealthState::kDegraded);
  EXPECT_TRUE(monitor_.gating());
  monitor_.exit_degraded("a");
  EXPECT_EQ(monitor_.state(), HealthState::kDegraded);  // "b" still open
  monitor_.exit_degraded("b");
  EXPECT_EQ(monitor_.state(), HealthState::kRecovering);
  EXPECT_TRUE(monitor_.gating());  // recovering still gates (dwell)
  EXPECT_EQ(monitor_.stats().degraded_entries, 1u);
  EXPECT_EQ(monitor_.stats().degraded_exits, 0u);
}

TEST_F(HealthMonitorTest, RecoveringHoldsBeforeHealthy) {
  monitor_.enter_degraded("x");
  monitor_.exit_degraded("x");
  ASSERT_EQ(monitor_.state(), HealthState::kRecovering);

  // Before the hold elapses: still recovering.
  sim_.schedule_after(milliseconds(500), [] {});
  sim_.run();
  monitor_.poll();
  EXPECT_EQ(monitor_.state(), HealthState::kRecovering);

  // Past the hold: healthy, and the exit is counted.
  sim_.schedule_after(seconds(1.0), [] {});
  sim_.run();
  monitor_.poll();
  EXPECT_EQ(monitor_.state(), HealthState::kHealthy);
  EXPECT_FALSE(monitor_.gating());
  EXPECT_EQ(monitor_.stats().degraded_exits, 1u);
}

TEST_F(HealthMonitorTest, RelapseDuringRecoveringReturnsToDegraded) {
  monitor_.enter_degraded("x");
  monitor_.exit_degraded("x");
  ASSERT_EQ(monitor_.state(), HealthState::kRecovering);
  monitor_.enter_degraded("y");
  EXPECT_EQ(monitor_.state(), HealthState::kDegraded);
  EXPECT_EQ(monitor_.stats().degraded_entries, 2u);
}

TEST_F(HealthMonitorTest, MissedHeartbeatDegradesAndResumeRecovers) {
  monitor_.watch("sensor.dhcp");
  EXPECT_EQ(monitor_.state(), HealthState::kHealthy);

  // Silence past the 3 s deadline.
  sim_.schedule_after(seconds(4.0), [] {});
  sim_.run();
  monitor_.poll();
  EXPECT_EQ(monitor_.state(), HealthState::kDegraded);
  EXPECT_GE(monitor_.stats().deadline_misses, 1u);

  // A beat over the bus clears the condition.
  bus_.publish(topics::kHealthHeartbeats, HeartbeatEvent{"sensor.dhcp"});
  EXPECT_EQ(monitor_.state(), HealthState::kRecovering);
  EXPECT_GE(monitor_.stats().heartbeats, 1u);

  sim_.schedule_after(seconds(1.5), [] {});
  sim_.run();
  // Keep beating so the deadline stays met through the dwell.
  bus_.publish(topics::kHealthHeartbeats, HeartbeatEvent{"sensor.dhcp"});
  EXPECT_EQ(monitor_.state(), HealthState::kHealthy);
}

TEST_F(HealthMonitorTest, UnwatchedComponentCannotDegrade) {
  monitor_.watch("sensor.dns");
  monitor_.unwatch("sensor.dns");
  sim_.schedule_after(seconds(10.0), [] {});
  sim_.run();
  monitor_.poll();
  EXPECT_EQ(monitor_.state(), HealthState::kHealthy);
}

TEST_F(HealthMonitorTest, DeadShardsDegradeThenRespawn) {
  std::size_t dead = 1;
  std::size_t respawned = 0;
  monitor_.watch_shards([&dead] { return dead; },
                        [&dead, &respawned] {
                          respawned += dead;
                          const std::size_t n = dead;
                          dead = 0;
                          return n;
                        });
  // watch_shards polls: the dead worker degrades the plane for that
  // evaluation, then the supervisor respawns it.
  EXPECT_EQ(monitor_.state(), HealthState::kDegraded);
  EXPECT_EQ(respawned, 1u);
  EXPECT_EQ(monitor_.stats().shard_respawns, 1u);
  monitor_.poll();
  EXPECT_EQ(monitor_.state(), HealthState::kRecovering);
}

TEST_F(HealthMonitorTest, StandbyPromotesWhenPeerGoesStale) {
  int promoted = 0;
  std::vector<std::pair<HealthState, HealthState>> transitions;
  monitor_.on_transition([&](HealthState from, HealthState to) {
    transitions.emplace_back(from, to);
  });
  monitor_.enable_failover(ReplicaRole::kStandby, [&] {
    ++promoted;
    // The handover runs inside the promotion's degraded window.
    EXPECT_EQ(monitor_.role(), ReplicaRole::kPromoting);
    EXPECT_TRUE(monitor_.degraded_refs() > 0 ||
                monitor_.state() == HealthState::kDegraded);
  });
  EXPECT_EQ(monitor_.role(), ReplicaRole::kStandby);

  // Peer beats keep the failover clock fed: no promotion.
  sim_.schedule_after(seconds(1.5), [] {});
  sim_.run();
  monitor_.peer_heartbeat();
  EXPECT_EQ(monitor_.role(), ReplicaRole::kStandby);
  EXPECT_EQ(promoted, 0);

  // Silence past the failover deadline: the next evaluation promotes.
  sim_.schedule_after(seconds(2.5), [] {});
  sim_.run();
  monitor_.poll();
  EXPECT_EQ(promoted, 1);
  EXPECT_EQ(monitor_.role(), ReplicaRole::kPrimary);
  EXPECT_EQ(monitor_.stats().promotions, 1u);
  // The handover degraded the plane (resync discipline applies on the way
  // back to healthy).
  ASSERT_FALSE(transitions.empty());
  EXPECT_EQ(transitions.front().second, HealthState::kDegraded);

  // A promoted primary never re-promotes, however long it runs.
  sim_.schedule_after(seconds(60.0), [] {});
  sim_.run();
  monitor_.poll();
  EXPECT_EQ(promoted, 1);
  EXPECT_EQ(monitor_.stats().promotions, 1u);
}

TEST_F(HealthMonitorTest, PromoteNowRunsHandoverImmediately) {
  int promoted = 0;
  monitor_.enable_failover(ReplicaRole::kStandby, [&] { ++promoted; });
  monitor_.promote_now();
  EXPECT_EQ(promoted, 1);
  EXPECT_EQ(monitor_.role(), ReplicaRole::kPrimary);

  // Idempotent: only a standby can promote.
  monitor_.promote_now();
  EXPECT_EQ(promoted, 1);
}

TEST_F(HealthMonitorTest, PrimaryNeverPromotesAndDemotionIsCounted) {
  int promoted = 0;
  monitor_.enable_failover(ReplicaRole::kPrimary, [&] { ++promoted; });
  sim_.schedule_after(seconds(30.0), [] {});
  sim_.run();
  monitor_.poll();
  EXPECT_EQ(promoted, 0);
  EXPECT_EQ(monitor_.role(), ReplicaRole::kPrimary);

  // Deposed: standing down counts and re-arms the peer clock.
  monitor_.set_role(ReplicaRole::kStandby);
  EXPECT_EQ(monitor_.stats().demotions, 1u);
  EXPECT_EQ(monitor_.role(), ReplicaRole::kStandby);
  // Freshly re-armed clock: no instant promotion despite the 30 s gap.
  monitor_.poll();
  EXPECT_EQ(promoted, 0);
  // But continued silence promotes the demoted node like any standby.
  sim_.schedule_after(seconds(3.0), [] {});
  sim_.run();
  monitor_.poll();
  EXPECT_EQ(promoted, 1);
}

TEST_F(HealthMonitorTest, FailoverDisabledMonitorIgnoresPeerMachinery) {
  monitor_.peer_heartbeat();
  monitor_.promote_now();
  sim_.schedule_after(seconds(30.0), [] {});
  sim_.run();
  monitor_.poll();
  EXPECT_EQ(monitor_.role(), ReplicaRole::kNone);
  EXPECT_EQ(monitor_.stats().promotions, 0u);
  EXPECT_EQ(monitor_.state(), HealthState::kHealthy);
}

TEST_F(HealthMonitorTest, BackoffIsCappedExponentialWithBoundedJitter) {
  const HealthConfig& config = monitor_.config();
  for (int attempt = 0; attempt < 40; ++attempt) {
    const SimDuration delay = monitor_.backoff_delay(attempt);
    const double unjittered = static_cast<double>(
        std::min(config.backoff_cap.us,
                 attempt < 30 ? config.backoff_base.us << std::min(attempt, 30)
                              : config.backoff_cap.us));
    EXPECT_GE(delay.us, 1);
    EXPECT_GE(static_cast<double>(delay.us),
              unjittered * (1.0 - config.backoff_jitter) - 1.0)
        << "attempt " << attempt;
    EXPECT_LE(static_cast<double>(delay.us),
              unjittered * (1.0 + config.backoff_jitter) + 1.0)
        << "attempt " << attempt;
  }
}

// ----------------------------------------------------- proxy degraded gate

class DegradedProxyTest : public ::testing::Test {
 protected:
  explicit DegradedProxyTest(DegradedMode mode = DegradedMode::kFailSecure)
      : system_(sim_, bus_, config_for(mode)),
        session_(system_.proxy().create_session(
            [this](const std::vector<std::uint8_t>& bytes) { collect(bytes, to_switch_); },
            [this](const std::vector<std::uint8_t>& bytes) {
              collect(bytes, to_controller_);
            })) {}

  static DfiConfig config_for(DegradedMode mode) {
    DfiConfig config = DfiConfig::functional();
    config.health.enabled = true;
    config.health.degraded_mode = mode;
    config.health.recovering_hold = seconds(0.0);  // exit resyncs immediately
    return config;
  }

  void collect(const std::vector<std::uint8_t>& bytes, std::vector<OfMessage>& sink) {
    FrameDecoder decoder;
    decoder.feed(bytes);
    for (auto& result : decoder.drain()) {
      ASSERT_TRUE(result.ok());
      sink.push_back(std::move(result).value());
    }
  }

  void complete_handshake() {
    FeaturesReplyMsg features;
    features.datapath_id = Dpid{9};
    features.n_tables = 4;
    session_.from_switch(encode(OfMessage{1, features}));
    sim_.run();
  }

  void send_table0_miss(std::uint16_t src_port) {
    PacketInMsg msg;
    msg.table_id = 0;
    msg.in_port = PortNo{3};
    msg.data = make_tcp_packet(MacAddress::from_u64(1), MacAddress::from_u64(2),
                               Ipv4Address(10, 0, 0, 1), Ipv4Address(10, 0, 0, 2),
                               src_port, 80)
                   .serialize();
    session_.from_switch(encode(OfMessage{2, msg}));
    sim_.run();
  }

  template <typename T>
  std::vector<T> of_type(const std::vector<OfMessage>& sink) const {
    std::vector<T> out;
    for (const auto& message : sink) {
      if (const T* typed = std::get_if<T>(&message.payload)) out.push_back(*typed);
    }
    return out;
  }

  Simulator sim_;
  MessageBus bus_;
  DfiSystem system_;
  DfiProxy::Session& session_;
  std::vector<OfMessage> to_switch_;
  std::vector<OfMessage> to_controller_;
};

TEST_F(DegradedProxyTest, FailSecureSuppressesPacketInsWhileDegraded) {
  complete_handshake();
  PolicyRule allow;
  allow.action = PolicyAction::kAllow;
  system_.policy_manager().insert(allow, PdpPriority{1}, "allow-all");

  // Healthy: an allowed flow's Packet-in reaches the controller.
  send_table0_miss(1000);
  EXPECT_EQ(of_type<PacketInMsg>(to_controller_).size(), 1u);

  // Degraded, fail-secure: invariant I1 by construction — the Packet-in is
  // suppressed outright; nothing reaches controller or PCP.
  system_.health().enter_degraded("test-window");
  const std::uint64_t pcp_before = system_.pcp().stats().packet_ins;
  send_table0_miss(1001);
  send_table0_miss(1002);
  EXPECT_EQ(of_type<PacketInMsg>(to_controller_).size(), 1u);  // unchanged
  EXPECT_EQ(system_.pcp().stats().packet_ins, pcp_before);
  EXPECT_EQ(system_.proxy().stats().degraded_suppressed, 2u);
  EXPECT_EQ(system_.proxy().stats().degraded_forwarded, 0u);
}

TEST_F(DegradedProxyTest, ExitingDegradedResyncsTableZero) {
  complete_handshake();
  system_.health().enter_degraded("test-window");
  const auto mods_before = of_type<FlowModMsg>(to_switch_).size();
  system_.health().exit_degraded("test-window");
  sim_.run();
  // recovering_hold is zero: the exit transitions straight to healthy and
  // the DfiSystem clears Table 0 on every registered switch.
  EXPECT_EQ(system_.health().state(), HealthState::kHealthy);
  const auto mods = of_type<FlowModMsg>(to_switch_);
  ASSERT_EQ(mods.size(), mods_before + 1);
  EXPECT_EQ(mods.back().command, FlowModCommand::kDelete);
  EXPECT_EQ(mods.back().table_id, 0);
  EXPECT_EQ(mods.back().cookie_mask.value, 0u);
  EXPECT_GE(system_.proxy().stats().resync_clears, 1u);
  EXPECT_EQ(system_.proxy().stats().degraded_entries, 1u);
  EXPECT_EQ(system_.proxy().stats().degraded_exits, 1u);
}

class FailOpenProxyTest : public DegradedProxyTest {
 protected:
  FailOpenProxyTest() : DegradedProxyTest(DegradedMode::kFailOpen) {}
};

TEST_F(FailOpenProxyTest, FailOpenForwardsUndecidedPacketIns) {
  complete_handshake();
  system_.health().enter_degraded("test-window");
  const std::uint64_t pcp_before = system_.pcp().stats().packet_ins;
  send_table0_miss(2000);
  // The Packet-in bypasses the PCP and reaches the controller undecided.
  EXPECT_EQ(of_type<PacketInMsg>(to_controller_).size(), 1u);
  EXPECT_EQ(system_.pcp().stats().packet_ins, pcp_before);
  EXPECT_EQ(system_.proxy().stats().degraded_forwarded, 1u);
  EXPECT_EQ(system_.proxy().stats().degraded_suppressed, 0u);
}

TEST(DfiSystemRecovery, RecoverFromJournalInsideDegradedWindow) {
  InMemoryJournalStore store;
  {
    // A prior process journals one policy and one binding, then "crashes".
    Simulator sim;
    MessageBus bus;
    DfiSystem writer(sim, bus, DfiConfig::functional());
    Journal journal(store);
    writer.enable_durability(journal);
    PolicyRule allow;
    allow.action = PolicyAction::kAllow;
    allow.source.user = Username{"alice"};
    writer.policy_manager().insert(allow, PdpPriority{10}, "pdp-a");
    BindingEvent event;
    event.kind = BindingKind::kUserHost;
    event.user = Username{"alice"};
    event.host = Hostname{"h1"};
    writer.erm().apply(event);
  }

  Simulator sim;
  MessageBus bus;
  DfiConfig config = DfiConfig::functional();
  config.health.enabled = true;
  DfiSystem system(sim, bus, config);
  Journal journal(store);
  const auto recovery = system.recover_from(journal);
  ASSERT_TRUE(recovery.ok()) << recovery.error().message;
  EXPECT_EQ(recovery.value().records_replayed, 2u);

  // The replay ran inside an explicit degraded window...
  EXPECT_EQ(system.proxy().stats().degraded_entries, 1u);
  // ...and the recovered state answers queries.
  EXPECT_EQ(system.policy_manager().size(), 1u);
  EXPECT_EQ(system.erm().users_of_host(Hostname{"h1"}).size(), 1u);

  // Post-recovery mutations are journaled (durability stays attached).
  PolicyRule deny;
  deny.action = PolicyAction::kDeny;
  system.policy_manager().insert(deny, PdpPriority{20}, "pdp-b");
  EXPECT_EQ(journal.stats().appends, 1u);
}

TEST(DfiSystemRecovery, SensorsHeartbeatWhenEnabled) {
  Simulator sim;
  MessageBus bus;
  DfiConfig config = DfiConfig::functional();
  config.health.enabled = true;
  DfiSystem system(sim, bus, config);
  system.sensors().enable_heartbeats();
  system.health().watch("sensor.dhcp");

  DhcpLeaseEvent lease;
  lease.mac = MacAddress::from_u64(0xa1);
  lease.ip = Ipv4Address(10, 0, 0, 1);
  lease.at = sim.now();
  bus.publish(topics::kDhcpEvents, lease);
  EXPECT_GE(system.health().stats().heartbeats, 1u);
  EXPECT_EQ(system.health().state(), HealthState::kHealthy);
}

}  // namespace
}  // namespace dfi
