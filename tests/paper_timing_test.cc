// The paper's timing model (sim/paper_timing.h): the PCP's asynchronous
// path through the modelled service stations, their overload drops, the
// Table II moments of the PCP and proxy draws, and seed determinism.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "bus/message_bus.h"
#include "core/pcp.h"
#include "sim/paper_timing.h"
#include "sim/simulator.h"

namespace dfi {
namespace {

class PaperTimedPcpTest : public ::testing::Test {
 protected:
  PaperTimedPcpTest() { rebuild({}); }

  void rebuild(PcpConfig config) {
    pcp_.reset();
    timing_ = std::make_unique<PaperTiming>(sim_, config.shards, config.queue_capacity,
                                            /*service_scale=*/1.0, /*seed=*/1);
    erm_ = std::make_unique<EntityResolutionManager>(bus_);
    manager_ = std::make_unique<PolicyManager>(bus_);
    pcp_ = std::make_unique<PolicyCompilationPoint>(bus_, *erm_, *manager_, config,
                                                    timing_.get());
    pcp_->register_switch(Dpid{1}, [](const OfMessage&) {});
  }

  static PacketInMsg sample_packet_in() {
    PacketInMsg msg;
    msg.in_port = PortNo{5};
    msg.table_id = 0;
    msg.data = make_tcp_packet(MacAddress::from_u64(0xa), MacAddress::from_u64(0xb),
                               Ipv4Address(10, 0, 0, 1), Ipv4Address(10, 0, 0, 2),
                               1000, 445)
                   .serialize();
    return msg;
  }

  Simulator sim_;
  MessageBus bus_;
  std::unique_ptr<PaperTiming> timing_;
  std::unique_ptr<EntityResolutionManager> erm_;
  std::unique_ptr<PolicyManager> manager_;
  std::unique_ptr<PolicyCompilationPoint> pcp_;
};

TEST_F(PaperTimedPcpTest, AsyncPathInvokesCallbackAfterServiceTime) {
  bool called = false;
  const bool accepted = pcp_->handle_packet_in(
      Dpid{1}, sample_packet_in(), [&called](const PcpDecision& decision) {
        called = true;
        EXPECT_FALSE(decision.allow);
      });
  EXPECT_TRUE(accepted);
  EXPECT_FALSE(called);  // not synchronous
  sim_.run();
  EXPECT_TRUE(called);
  EXPECT_GT(sim_.now().us, 0);  // simulated service time elapsed
  EXPECT_EQ(timing_->total_latency_ms().count(), 1u);
  EXPECT_GT(timing_->binding_latency_ms().mean(), 0.0);
}

TEST_F(PaperTimedPcpTest, OverloadDropsWhenQueueFull) {
  PcpConfig config;
  config.queue_capacity = 2;
  rebuild(config);

  int completions = 0;
  int accepted = 0;
  for (int i = 0; i < 12; ++i) {
    if (pcp_->handle_packet_in(Dpid{1}, sample_packet_in(),
                               [&completions](const PcpDecision&) { ++completions; })) {
      ++accepted;
    }
  }
  // 7 in service + 2 queued.
  EXPECT_EQ(accepted, static_cast<int>(PaperTiming::kWorkersPerShard) + 2);
  sim_.run();
  EXPECT_EQ(completions, accepted);
  EXPECT_EQ(pcp_->stats().dropped_overload, 3u);
}

TEST_F(PaperTimedPcpTest, LatencyBreakdownMatchesConfiguredMoments) {
  for (int i = 0; i < 2000; ++i) {
    pcp_->handle_packet_in(Dpid{1}, sample_packet_in(), [](const PcpDecision&) {});
    sim_.run();
  }
  // Paper Table II: binding 2.41, policy 2.52, other 0.39 (ms).
  EXPECT_NEAR(timing_->binding_latency_ms().mean(), 2.41, 0.15);
  EXPECT_NEAR(timing_->policy_latency_ms().mean(), 2.52, 0.15);
  EXPECT_NEAR(timing_->other_latency_ms().mean(), 0.39, 0.1);
  EXPECT_NEAR(timing_->total_latency_ms().mean(), 5.32, 0.3);
}

TEST(PaperTiming, ProxyDelayMatchesTableIIMoments) {
  Simulator sim;
  PaperTiming timing(sim, 1, 32, 1.0, 7);
  int delivered = 0;
  for (int i = 0; i < 20000; ++i) timing.delay([&delivered] { ++delivered; });
  sim.run();
  EXPECT_EQ(delivered, 20000);
  // Paper Table II: proxy 0.16 +/- 0.72 ms — a heavy-tailed log-normal.
  EXPECT_EQ(timing.proxy_latency_ms().count(), 20000u);
  EXPECT_NEAR(timing.proxy_latency_ms().mean(), 0.16, 0.02);
  EXPECT_NEAR(timing.proxy_latency_ms().stddev(), 0.72, 0.25);
}

TEST(PaperTiming, ServiceScaleMultipliesThePcpDraws) {
  Simulator sim;
  PaperTiming timing(sim, 1, 32, PaperTiming::kEndToEndServiceScale, 3);
  for (int i = 0; i < 4000; ++i) timing.draw_blocking_ms();
  EXPECT_NEAR(timing.total_latency_ms().mean(), 5.32 * 1.8, 0.5);
  EXPECT_NEAR(timing.binding_latency_ms().mean(), 2.41 * 1.8, 0.2);
}

// Replayability: the same seed gives the same draws, PCP and proxy both.
TEST(PaperTiming, SameSeedSameDraws) {
  const auto draws = [](std::uint64_t seed) {
    Simulator sim;
    PaperTiming timing(sim, 1, 32, 1.0, seed);
    std::vector<double> out;
    for (int i = 0; i < 64; ++i) {
      out.push_back(timing.draw_blocking_ms());
      timing.delay([&out, &sim] { out.push_back(static_cast<double>(sim.now().us)); });
      sim.run();
    }
    return out;
  };
  EXPECT_EQ(draws(42), draws(42));
  EXPECT_NE(draws(42), draws(43));
}

}  // namespace
}  // namespace dfi
