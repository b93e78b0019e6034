// Tests for the PCP decision cache and its epoch invalidation: repeated
// identical flows replay the cached decision; any policy insert/revoke or
// effective binding change forces a full re-decision (late binding, paper
// §III-B); spoof denials are cached like any other decision; capacity 0
// disables the cache and bulk eviction bounds its size.
#include <gtest/gtest.h>

#include <memory>

#include "bus/message_bus.h"
#include "core/decision_cache.h"
#include "core/pcp.h"
#include "core/persistence.h"

namespace dfi {
namespace {

// --------------------------------------------- DecisionCache unit tests

TEST(DecisionCacheUnit, StoreLookupAndEpochStaleness) {
  DecisionCache<int> cache(8);
  FlowKey key;
  key.src_mac = 0xa;
  EXPECT_EQ(cache.lookup(key, 1, 1), nullptr);  // cold miss
  cache.store(key, 42, /*policy_epoch=*/1, /*binding_epoch=*/1);
  const int* hit = cache.lookup(key, 1, 1);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit, 42);
  // Policy epoch moved: stale, entry evicted eagerly.
  EXPECT_EQ(cache.lookup(key, 2, 1), nullptr);
  EXPECT_EQ(cache.size(), 0u);
  cache.store(key, 43, 2, 1);
  // Binding epoch moved: stale too.
  EXPECT_EQ(cache.lookup(key, 2, 2), nullptr);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().stale_policy, 1u);
  EXPECT_EQ(cache.stats().stale_binding, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);  // only the cold miss
}

TEST(DecisionCacheUnit, BulkEvictionBoundsSize) {
  DecisionCache<int> cache(4);
  for (std::uint64_t i = 0; i < 10; ++i) {
    FlowKey key;
    key.src_mac = i;
    cache.store(key, static_cast<int>(i), 1, 1);
    EXPECT_LE(cache.size(), 4u);
  }
  EXPECT_GT(cache.stats().evictions, 0u);
}

TEST(DecisionCacheUnit, ZeroCapacityDisables) {
  DecisionCache<int> cache(0);
  EXPECT_FALSE(cache.enabled());
  FlowKey key;
  cache.store(key, 7, 1, 1);
  EXPECT_EQ(cache.lookup(key, 1, 1), nullptr);
  EXPECT_EQ(cache.size(), 0u);
}

// ------------------------------------------------ PCP integration tests

class DecisionCacheTest : public ::testing::Test {
 protected:
  DecisionCacheTest() { rebuild({}); }

  void rebuild(PcpConfig config) {
    pcp_.reset();
    erm_ = std::make_unique<EntityResolutionManager>(bus_);
    manager_ = std::make_unique<PolicyManager>(bus_);
    pcp_ = std::make_unique<PolicyCompilationPoint>(bus_, *erm_, *manager_, config);
    pcp_->register_switch(Dpid{1}, [](const OfMessage&) {});
  }

  PacketInMsg packet_in_for(const Packet& packet, PortNo port = PortNo{5}) {
    PacketInMsg msg;
    msg.in_port = port;
    msg.table_id = 0;
    msg.data = packet.serialize();
    return msg;
  }

  Packet sample_packet(std::uint16_t src_port = 1000) {
    return make_tcp_packet(MacAddress::from_u64(0xa), MacAddress::from_u64(0xb),
                           Ipv4Address(10, 0, 0, 1), Ipv4Address(10, 0, 0, 2),
                           src_port, 445);
  }

  // alice@h1 reachable at 10.0.0.1: makes user-based rules apply to
  // sample_packet()'s source.
  void bind_alice() {
    BindingEvent host_ip;
    host_ip.kind = BindingKind::kHostIp;
    host_ip.host = Hostname{"h1"};
    host_ip.ip = Ipv4Address(10, 0, 0, 1);
    erm_->apply(host_ip);
    BindingEvent user_host;
    user_host.kind = BindingKind::kUserHost;
    user_host.user = Username{"alice"};
    user_host.host = Hostname{"h1"};
    erm_->apply(user_host);
  }

  PolicyRuleId insert_allow_alice() {
    PolicyRule allow;
    allow.action = PolicyAction::kAllow;
    allow.source.user = Username{"alice"};
    return manager_->insert(allow, PdpPriority{10}, "test");
  }

  MessageBus bus_;
  std::unique_ptr<EntityResolutionManager> erm_;
  std::unique_ptr<PolicyManager> manager_;
  std::unique_ptr<PolicyCompilationPoint> pcp_;
};

TEST_F(DecisionCacheTest, RepeatedIdenticalFlowReplaysDecision) {
  bind_alice();
  const PolicyRuleId id = insert_allow_alice();
  const PacketInMsg msg = packet_in_for(sample_packet());

  const PcpDecision first = pcp_->decide(Dpid{1}, msg);
  EXPECT_TRUE(first.allow);
  const std::uint64_t policy_queries = manager_->stats().queries;
  const std::uint64_t erm_queries = erm_->stats().queries;

  const PcpDecision second = pcp_->decide(Dpid{1}, msg);
  EXPECT_TRUE(second.allow);
  EXPECT_EQ(second.policy.rule_id, id);
  EXPECT_EQ(pcp_->stats().decision_cache_hits, 1u);
  EXPECT_EQ(pcp_->decision_cache_stats().hits, 1u);
  // The replay skipped enrichment and the policy query entirely.
  EXPECT_EQ(manager_->stats().queries, policy_queries);
  EXPECT_EQ(erm_->stats().queries, erm_queries);
  // The compiled rule is still (re)installed and counted.
  EXPECT_EQ(pcp_->stats().rules_installed, 2u);
  EXPECT_EQ(pcp_->stats().allowed, 2u);
}

TEST_F(DecisionCacheTest, DistinctFlowTuplesDoNotCollide) {
  const PcpDecision a = pcp_->decide(Dpid{1}, packet_in_for(sample_packet(1000)));
  const PcpDecision b = pcp_->decide(Dpid{1}, packet_in_for(sample_packet(1001)));
  EXPECT_FALSE(a.allow);
  EXPECT_FALSE(b.allow);
  EXPECT_EQ(pcp_->stats().decision_cache_hits, 0u);
  EXPECT_EQ(pcp_->decision_cache_size(), 2u);
}

TEST_F(DecisionCacheTest, PolicyInsertForcesRedecision) {
  bind_alice();
  const PacketInMsg msg = packet_in_for(sample_packet());
  EXPECT_FALSE(pcp_->decide(Dpid{1}, msg).allow);  // default deny, cached

  insert_allow_alice();  // bumps the policy epoch
  const PcpDecision after = pcp_->decide(Dpid{1}, msg);
  EXPECT_TRUE(after.allow) << "stale cached default-deny must not be replayed";
  EXPECT_EQ(pcp_->stats().decision_cache_hits, 0u);
  EXPECT_EQ(pcp_->decision_cache_stats().stale_policy, 1u);
}

TEST_F(DecisionCacheTest, PolicyRevokeForcesRedecision) {
  bind_alice();
  const PolicyRuleId id = insert_allow_alice();
  const PacketInMsg msg = packet_in_for(sample_packet());
  EXPECT_TRUE(pcp_->decide(Dpid{1}, msg).allow);

  ASSERT_TRUE(manager_->revoke(id));  // bumps the policy epoch
  const PcpDecision after = pcp_->decide(Dpid{1}, msg);
  EXPECT_FALSE(after.allow) << "stale cached allow must not outlive the rule";
  EXPECT_TRUE(after.policy.default_deny);
  EXPECT_EQ(pcp_->stats().decision_cache_hits, 0u);
}

TEST_F(DecisionCacheTest, BindingAssertionForcesRedecision) {
  insert_allow_alice();
  const PacketInMsg msg = packet_in_for(sample_packet());
  // No identity bindings yet: alice's rule cannot match.
  EXPECT_FALSE(pcp_->decide(Dpid{1}, msg).allow);

  bind_alice();  // bumps the binding epoch
  const PcpDecision after = pcp_->decide(Dpid{1}, msg);
  EXPECT_TRUE(after.allow) << "new bindings must reach the next decision (late binding)";
  EXPECT_EQ(pcp_->decision_cache_stats().stale_binding, 1u);
}

TEST_F(DecisionCacheTest, BindingRetractionForcesRedecision) {
  bind_alice();
  insert_allow_alice();
  const PacketInMsg msg = packet_in_for(sample_packet());
  EXPECT_TRUE(pcp_->decide(Dpid{1}, msg).allow);

  BindingEvent retract;  // alice logs off h1
  retract.kind = BindingKind::kUserHost;
  retract.retracted = true;
  retract.user = Username{"alice"};
  retract.host = Hostname{"h1"};
  erm_->apply(retract);

  const PcpDecision after = pcp_->decide(Dpid{1}, msg);
  EXPECT_FALSE(after.allow) << "retraction must invalidate the cached allow";
  EXPECT_EQ(pcp_->decision_cache_stats().stale_binding, 1u);
}

TEST_F(DecisionCacheTest, SpoofDenialIsCachedAndReplayed) {
  BindingEvent dhcp;  // 10.0.0.1 leased to a MAC != the packet's source
  dhcp.kind = BindingKind::kIpMac;
  dhcp.ip = Ipv4Address(10, 0, 0, 1);
  dhcp.mac = MacAddress::from_u64(0xdead);
  erm_->apply(dhcp);

  const PacketInMsg msg = packet_in_for(sample_packet());
  EXPECT_TRUE(pcp_->decide(Dpid{1}, msg).spoofed);
  EXPECT_TRUE(pcp_->decide(Dpid{1}, msg).spoofed);
  EXPECT_EQ(pcp_->stats().spoof_denied, 2u);
  EXPECT_EQ(pcp_->stats().decision_cache_hits, 1u);
}

TEST_F(DecisionCacheTest, FirstSightingOfOtherHostsDoesNotInvalidate) {
  const PacketInMsg msg_a = packet_in_for(sample_packet());
  pcp_->decide(Dpid{1}, msg_a);

  // A brand-new host shows up: its first MAC-location assertion must not
  // flush A's cached decision (deliberate epoch exception, ERM header).
  const Packet other =
      make_tcp_packet(MacAddress::from_u64(0xcc), MacAddress::from_u64(0xb),
                      Ipv4Address(10, 0, 0, 9), Ipv4Address(10, 0, 0, 2), 2000, 80);
  pcp_->decide(Dpid{1}, packet_in_for(other, PortNo{7}));

  pcp_->decide(Dpid{1}, msg_a);
  EXPECT_EQ(pcp_->stats().decision_cache_hits, 1u);
}

TEST_F(DecisionCacheTest, MacMoveBumpsBindingEpochAndRedecides) {
  const PacketInMsg at_port5 = packet_in_for(sample_packet(), PortNo{5});
  pcp_->decide(Dpid{1}, at_port5);
  const std::uint64_t epoch_before = erm_->epoch();

  // The same MAC appears at another port: the sensor retracts the old
  // location (an effective change — epoch bump) and asserts the new one.
  pcp_->decide(Dpid{1}, packet_in_for(sample_packet(), PortNo{6}));
  EXPECT_EQ(pcp_->stats().mac_moves, 1u);
  EXPECT_GT(erm_->epoch(), epoch_before);

  // The old entry is stale; the flow at port 5 is re-decided (and the move
  // back is itself observed as a MAC move).
  pcp_->decide(Dpid{1}, at_port5);
  EXPECT_EQ(pcp_->stats().decision_cache_hits, 0u);
}

TEST_F(DecisionCacheTest, ZeroCapacityDisablesCaching) {
  PcpConfig config;
  config.decision_cache_capacity = 0;
  rebuild(config);
  const PacketInMsg msg = packet_in_for(sample_packet());
  pcp_->decide(Dpid{1}, msg);
  pcp_->decide(Dpid{1}, msg);
  EXPECT_EQ(pcp_->stats().decision_cache_hits, 0u);
  EXPECT_EQ(pcp_->decision_cache_size(), 0u);
}

TEST_F(DecisionCacheTest, CapacityBoundsHeldUnderManyFlows) {
  PcpConfig config;
  config.decision_cache_capacity = 4;
  rebuild(config);
  for (std::uint16_t port = 1000; port < 1012; ++port) {
    pcp_->decide(Dpid{1}, packet_in_for(sample_packet(port)));
    EXPECT_LE(pcp_->decision_cache_size(), 4u);
  }
  EXPECT_GT(pcp_->decision_cache_stats().evictions, 0u);
}

// Regression for the reload epoch-aliasing hole: a decision cached before
// a crash is stamped with the pre-crash policy epoch. A plain reload
// replays only surviving rules and restarts the epoch counter *behind*
// that stamp; enough later inserts march it back onto the stamped value —
// against a different policy database — and the stale verdict replays.
// Reloading with epoch_floor (what Journal::recover does via
// advance_epoch_to) keeps every post-reload epoch strictly beyond any
// pre-crash stamp.
TEST(DecisionCacheUnit, ReloadEpochFloorKeepsPreCrashStampsStale) {
  MessageBus bus;
  PolicyManager manager(bus);
  PolicyRule allow;
  allow.action = PolicyAction::kAllow;
  const PolicyRuleId doomed =
      manager.insert(allow, PdpPriority{10}, "pdp-a");  // epoch 1
  PolicyRule deny;
  deny.action = PolicyAction::kDeny;
  deny.destination.l4_port = 22;
  manager.insert(deny, PdpPriority{20}, "pdp-b");  // epoch 2
  manager.revoke(doomed);                          // epoch 3

  // A verdict cached pre-crash, stamped with the live epochs.
  DecisionCache<int> cache(8);
  FlowKey key;
  key.src_mac = 0xa11ce;
  cache.store(key, 42, manager.epoch(), /*binding_epoch=*/0);
  const std::string snapshot = save_policies(manager);

  // Restart without the floor: the replayed database sits at epoch 1; two
  // unrelated inserts later the counter reads 3 again and the pre-crash
  // stamp validates against a database it never saw.
  MessageBus bus2;
  PolicyManager plain(bus2);
  ASSERT_TRUE(load_policies(plain, snapshot).ok());
  ASSERT_LT(plain.epoch(), manager.epoch());
  plain.insert(allow, PdpPriority{30}, "pdp-c");
  plain.insert(deny, PdpPriority{40}, "pdp-d");
  ASSERT_EQ(plain.epoch(), manager.epoch());
  EXPECT_NE(cache.lookup(key, plain.epoch(), 0), nullptr);  // the bug

  // Restart with the floor: the same two inserts land at epochs 4 and 5 —
  // no post-reload epoch can ever equal a pre-crash stamp.
  MessageBus bus3;
  PolicyManager floored(bus3);
  ASSERT_TRUE(load_policies(floored, snapshot, manager.epoch()).ok());
  EXPECT_EQ(floored.epoch(), manager.epoch());
  floored.insert(allow, PdpPriority{30}, "pdp-c");
  floored.insert(deny, PdpPriority{40}, "pdp-d");
  EXPECT_GT(floored.epoch(), manager.epoch());
  EXPECT_EQ(cache.lookup(key, floored.epoch(), 0), nullptr);
}

TEST_F(DecisionCacheTest, UnparsableTrafficIsNotCached) {
  PacketInMsg msg;
  msg.in_port = PortNo{5};
  msg.table_id = 0;
  msg.data = {0x01, 0x02};  // too short for an Ethernet header
  pcp_->decide(Dpid{1}, msg);
  pcp_->decide(Dpid{1}, msg);
  EXPECT_EQ(pcp_->stats().unparsable, 2u);
  EXPECT_EQ(pcp_->decision_cache_size(), 0u);
  EXPECT_EQ(pcp_->stats().decision_cache_hits, 0u);
}

}  // namespace
}  // namespace dfi
