// Cookie-flush completeness (paper Section III-A, "Policy-Switch
// Consistency"): revoking a policy must delete every switch rule compiled
// from it — on every switch, for exact-match and wildcard-cached rules, and
// even when the revoke races Packet-in decisions still in flight on the
// threaded shard pool (the stale-completion re-decide, DESIGN.md §6 / I3).
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "bus/message_bus.h"
#include "core/pcp.h"
#include "net/packet.h"
#include "openflow/switch_device.h"
#include "openflow/wire.h"
#include "sim/paper_timing.h"
#include "sim/simulator.h"

namespace dfi {
namespace {

MacAddress mac_of(std::size_t i) { return MacAddress::from_u64(0xa0 + i); }
Ipv4Address ip_of(std::size_t i) {
  return Ipv4Address(10, 0, 0, static_cast<std::uint8_t>(i + 1));
}

PcpConfig base_config() {
  PcpConfig config;
  config.queue_capacity = 512;
  return config;
}

// PCP wired to real switch devices, so flush completeness is asserted
// against actual Table-0 contents rather than a recorded message stream.
struct FlushWorld {
  // `paper_timed`: decide through the paper's timing model, so submitted
  // decisions stay in flight in their modelled stations until drain().
  explicit FlushWorld(const PcpConfig& config, bool paper_timed = false)
      : timing(paper_timed ? std::make_unique<PaperTiming>(sim, config.shards,
                                                           config.queue_capacity,
                                                           1.0, 11)
                           : nullptr),
        erm(bus),
        policy(bus),
        pcp(bus, erm, policy, config, timing.get()) {
    for (std::uint64_t d : {std::uint64_t{1}, std::uint64_t{2}}) {
      devices.push_back(std::make_unique<SwitchDevice>(
          SwitchConfig{Dpid{d}, 4, 4096}, [this] { return sim.now(); }));
      SwitchDevice& device = *devices.back();
      device.connect_control([](const std::vector<std::uint8_t>&) {});
      pcp.register_switch(Dpid{d}, [&device](const OfMessage& message) {
        device.receive_control(encode(message));
      });
    }
  }

  void packet_in(std::uint64_t dpid, std::size_t src, std::size_t dst,
                 std::uint16_t dport) {
    PacketInMsg msg;
    msg.table_id = 0;
    msg.in_port = PortNo{1};
    msg.data = make_tcp_packet(mac_of(src), mac_of(dst), ip_of(src), ip_of(dst),
                               1000, dport)
                   .serialize();
    pcp.handle_packet_in(Dpid{dpid}, std::move(msg), [](const PcpDecision&) {});
  }

  void drain() {
    pcp.wait_idle();
    sim.run();
  }

  std::size_t count_cookie(std::size_t device_index, std::uint64_t cookie) const {
    std::size_t n = 0;
    devices[device_index]->pipeline().table(0).for_each(
        [&](const FlowRule& rule) {
          if (rule.cookie.value == cookie) ++n;
        });
    return n;
  }

  std::size_t table0_rules(std::size_t device_index) const {
    std::size_t n = 0;
    devices[device_index]->pipeline().table(0).for_each(
        [&](const FlowRule&) { ++n; });
    return n;
  }

  Simulator sim;
  MessageBus bus;
  std::unique_ptr<PaperTiming> timing;
  EntityResolutionManager erm;
  PolicyManager policy;
  PolicyCompilationPoint pcp;
  std::vector<std::unique_ptr<SwitchDevice>> devices;
};

PolicyRule allow_from(std::size_t src) {
  PolicyRule rule;
  rule.action = PolicyAction::kAllow;
  rule.source.ip = ip_of(src);
  return rule;
}

TEST(FlushTest, RevokeDeletesEveryCompiledRuleOnEverySwitch) {
  FlushWorld world(base_config());
  const PolicyRuleId revoked = world.policy.insert(allow_from(1), PdpPriority{5}, "t");
  const PolicyRuleId kept = world.policy.insert(allow_from(2), PdpPriority{5}, "t");

  for (std::uint64_t dpid : {std::uint64_t{1}, std::uint64_t{2}}) {
    world.packet_in(dpid, 1, 3, 445);
    world.packet_in(dpid, 1, 4, 80);
    world.packet_in(dpid, 2, 3, 445);
  }
  world.drain();
  ASSERT_EQ(world.count_cookie(0, revoked.value), 2u);
  ASSERT_EQ(world.count_cookie(1, revoked.value), 2u);
  ASSERT_EQ(world.count_cookie(0, kept.value), 1u);

  ASSERT_TRUE(world.policy.revoke(revoked));
  world.drain();
  EXPECT_EQ(world.count_cookie(0, revoked.value), 0u);
  EXPECT_EQ(world.count_cookie(1, revoked.value), 0u);
  // Unrelated policies' rules survive the cookie-masked delete.
  EXPECT_EQ(world.count_cookie(0, kept.value), 1u);
  EXPECT_EQ(world.count_cookie(1, kept.value), 1u);
}

TEST(FlushTest, AllowInsertFlushesCachedDefaultDenyRules) {
  FlushWorld world(base_config());
  world.packet_in(1, 1, 2, 445);
  world.packet_in(1, 3, 4, 80);
  world.drain();
  ASSERT_EQ(world.count_cookie(0, kDefaultDenyCookie.value), 2u);

  // A new Allow may now cover flows the cached default-deny rules pinned
  // down; the Policy Manager flushes the default-deny cookie on insert.
  world.policy.insert(allow_from(1), PdpPriority{5}, "t");
  world.drain();
  EXPECT_EQ(world.count_cookie(0, kDefaultDenyCookie.value), 0u);
}

TEST(FlushTest, RevokeRacingInFlightThreadedDecisionLeavesNoResidue) {
  PcpConfig config = base_config();
  config.backend = PcpBackend::kThreads;
  config.shards = 2;
  FlushWorld world(config);
  const PolicyRuleId id = world.policy.insert(allow_from(1), PdpPriority{5}, "t");

  // A burst of distinct flows, all matching the allow rule, submitted but
  // not yet applied: their snapshots predate the revoke below.
  for (std::uint16_t i = 0; i < 16; ++i) {
    world.packet_in(1, 1, 2, static_cast<std::uint16_t>(2000 + i));
  }
  // Revoke while the decisions are in flight. The flush DELETE reaches the
  // switch immediately; without the stale-completion re-decide the 16
  // in-flight allows would install *after* it and stay forever.
  ASSERT_TRUE(world.policy.revoke(id));
  world.drain();

  EXPECT_EQ(world.count_cookie(0, id.value), 0u);
  // Every completion was stale (submit-epoch != apply-epoch) and was
  // re-decided on fresh snapshots, landing as default-deny rules.
  EXPECT_EQ(world.pcp.stats().stale_redecides, 16u);
  EXPECT_EQ(world.count_cookie(0, kDefaultDenyCookie.value), 16u);
}

TEST(FlushTest, RevokeRacingInFlightSimulatedDecisionLeavesNoResidue) {
  PcpConfig config = base_config();
  config.shards = 2;
  FlushWorld world(config, /*paper_timed=*/true);
  const PolicyRuleId id = world.policy.insert(allow_from(1), PdpPriority{5}, "t");

  for (std::uint16_t i = 0; i < 16; ++i) {
    world.packet_in(1, 1, 2, static_cast<std::uint16_t>(2000 + i));
  }
  // The paper-timed kSimulated backend decides at modelled service
  // completion, inside sim.run(), so these decisions already see the
  // post-revoke database — no re-decide needed, and no revoked-cookie rule
  // may appear.
  ASSERT_TRUE(world.policy.revoke(id));
  world.drain();

  EXPECT_EQ(world.count_cookie(0, id.value), 0u);
  EXPECT_EQ(world.pcp.stats().stale_redecides, 0u);
  EXPECT_EQ(world.count_cookie(0, kDefaultDenyCookie.value), 16u);
}

// Without a timing model the same burst is decided inline, before the
// revoke: its allow rules land first and the revoke's flush deletes them.
TEST(FlushTest, RevokeAfterInlineDecisionsLeavesNoResidue) {
  PcpConfig config = base_config();
  config.shards = 2;
  FlushWorld world(config);
  const PolicyRuleId id = world.policy.insert(allow_from(1), PdpPriority{5}, "t");
  for (std::uint16_t i = 0; i < 16; ++i) {
    world.packet_in(1, 1, 2, static_cast<std::uint16_t>(2000 + i));
  }
  ASSERT_EQ(world.count_cookie(0, id.value), 16u);
  ASSERT_TRUE(world.policy.revoke(id));
  world.drain();
  EXPECT_EQ(world.count_cookie(0, id.value), 0u);
  EXPECT_EQ(world.table0_rules(0), 0u);
}

TEST(FlushTest, WildcardCachedRulesFlushOnRevoke) {
  PcpConfig config = base_config();
  config.wildcard_caching = true;
  FlushWorld world(config);
  const PolicyRuleId id = world.policy.insert(allow_from(1), PdpPriority{5}, "t");

  world.packet_in(1, 1, 2, 445);
  world.packet_in(1, 1, 3, 80);
  world.drain();
  ASSERT_GT(world.pcp.stats().wildcard_rules_installed, 0u);
  ASSERT_GT(world.count_cookie(0, id.value), 0u);

  ASSERT_TRUE(world.policy.revoke(id));
  world.drain();
  EXPECT_EQ(world.count_cookie(0, id.value), 0u);
}

}  // namespace
}  // namespace dfi
