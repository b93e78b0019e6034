// Tests for the wildcard rule-caching extension (core/rule_cache.h):
// safe generalization, safety-gate fallbacks, PCP integration, and
// binding-invalidation flushing.
#include <gtest/gtest.h>

#include "bus/message_bus.h"
#include "core/pcp.h"
#include "core/rule_cache.h"

namespace dfi {
namespace {

FlowView tcp_flow(Ipv4Address src, Ipv4Address dst, std::uint16_t dst_port,
                  const char* src_host = nullptr) {
  FlowView flow;
  flow.ether_type = static_cast<std::uint16_t>(EtherType::kIpv4);
  flow.ip_proto = static_cast<std::uint8_t>(IpProto::kTcp);
  flow.src.ip = src;
  flow.src.l4_port = 50000;
  flow.dst.ip = dst;
  flow.dst.l4_port = dst_port;
  if (src_host != nullptr) flow.src.hostnames = {Hostname{src_host}};
  return flow;
}

class RuleCacheTest : public ::testing::Test {
 protected:
  RuleCacheTest() : manager_(bus_) {}

  PolicyDecision decide(const FlowView& flow) { return manager_.query(flow); }

  MessageBus bus_;
  PolicyManager manager_;
};

TEST_F(RuleCacheTest, IpPolicyGeneralizesToIpPair) {
  PolicyRule rule;
  rule.action = PolicyAction::kAllow;
  rule.source.ip = Ipv4Address(10, 0, 0, 1);
  rule.destination.ip = Ipv4Address(10, 0, 0, 2);
  manager_.insert(rule, PdpPriority{10}, "t");

  const FlowView flow = tcp_flow(Ipv4Address(10, 0, 0, 1), Ipv4Address(10, 0, 0, 2), 80);
  const auto cached = compile_wildcard(manager_, decide(flow), flow);
  ASSERT_TRUE(cached.has_value());
  EXPECT_FALSE(cached->identity_derived);
  EXPECT_EQ(cached->match.ipv4_src, Ipv4Address(10, 0, 0, 1));
  EXPECT_EQ(cached->match.ipv4_dst, Ipv4Address(10, 0, 0, 2));
  // Ports stay wildcarded: the one rule covers every flow between the pair.
  EXPECT_FALSE(cached->match.tcp_src.has_value());
  EXPECT_FALSE(cached->match.tcp_dst.has_value());
  // Covers another flow between the same endpoints, other ports.
  const Packet probe =
      make_tcp_packet(MacAddress::from_u64(1), MacAddress::from_u64(2),
                      Ipv4Address(10, 0, 0, 1), Ipv4Address(10, 0, 0, 2), 61000, 22);
  EXPECT_TRUE(cached->match.matches(probe, PortNo{4}));
}

TEST_F(RuleCacheTest, IdentityPolicyNarrowsToObservedIp) {
  PolicyRule rule;
  rule.action = PolicyAction::kAllow;
  rule.source.host = Hostname{"h1"};
  manager_.insert(rule, PdpPriority{10}, "t");

  FlowView flow = tcp_flow(Ipv4Address(10, 0, 0, 7), Ipv4Address(10, 0, 0, 9), 445, "h1");
  const auto cached = compile_wildcard(manager_, decide(flow), flow);
  ASSERT_TRUE(cached.has_value());
  EXPECT_TRUE(cached->identity_derived);
  EXPECT_EQ(cached->match.ipv4_src, Ipv4Address(10, 0, 0, 7));
  EXPECT_FALSE(cached->match.ipv4_dst.has_value());
}

TEST_F(RuleCacheTest, PortScopedPolicyPinsProtoAndPort) {
  PolicyRule rule;
  rule.action = PolicyAction::kAllow;
  rule.destination.l4_port = 445;
  manager_.insert(rule, PdpPriority{10}, "t");

  const FlowView flow = tcp_flow(Ipv4Address(1, 1, 1, 1), Ipv4Address(2, 2, 2, 2), 445);
  const auto cached = compile_wildcard(manager_, decide(flow), flow);
  ASSERT_TRUE(cached.has_value());
  EXPECT_EQ(cached->match.ip_proto, static_cast<std::uint8_t>(IpProto::kTcp));
  EXPECT_EQ(cached->match.tcp_dst, 445);
  EXPECT_FALSE(cached->match.ipv4_src.has_value());
}

TEST_F(RuleCacheTest, DefaultDenyNeverCached) {
  const FlowView flow = tcp_flow(Ipv4Address(1, 1, 1, 1), Ipv4Address(2, 2, 2, 2), 80);
  EXPECT_FALSE(compile_wildcard(manager_, decide(flow), flow).has_value());
}

TEST_F(RuleCacheTest, OverlappingHigherPriorityOppositeRuleFallsBack) {
  PolicyRule allow;
  allow.action = PolicyAction::kAllow;
  allow.source.ip = Ipv4Address(10, 0, 0, 1);
  manager_.insert(allow, PdpPriority{10}, "t");

  // Higher-priority deny scoped to one destination port overlaps the allow.
  PolicyRule deny;
  deny.action = PolicyAction::kDeny;
  deny.source.ip = Ipv4Address(10, 0, 0, 1);
  deny.destination.l4_port = 22;
  manager_.insert(deny, PdpPriority{20}, "t");

  // A port-80 flow is allowed, but the generalization (all ports between
  // the pair) would cover the denied port 22 — must fall back.
  const FlowView flow = tcp_flow(Ipv4Address(10, 0, 0, 1), Ipv4Address(10, 0, 0, 2), 80);
  const PolicyDecision decision = decide(flow);
  EXPECT_EQ(decision.action, PolicyAction::kAllow);
  EXPECT_FALSE(compile_wildcard(manager_, decision, flow).has_value());
}

TEST_F(RuleCacheTest, EqualPriorityConflictAlsoFallsBack) {
  PolicyRule allow;
  allow.action = PolicyAction::kAllow;
  allow.source.ip = Ipv4Address(10, 0, 0, 1);
  manager_.insert(allow, PdpPriority{10}, "a");
  PolicyRule deny;
  deny.action = PolicyAction::kDeny;
  deny.destination.l4_port = 22;
  manager_.insert(deny, PdpPriority{10}, "b");

  const FlowView flow = tcp_flow(Ipv4Address(10, 0, 0, 1), Ipv4Address(10, 0, 0, 2), 80);
  EXPECT_FALSE(compile_wildcard(manager_, decide(flow), flow).has_value());
}

TEST_F(RuleCacheTest, DestinationSwitchPortFallsBack) {
  PolicyRule rule;
  rule.action = PolicyAction::kAllow;
  rule.destination.switch_port = PortNo{3};
  manager_.insert(rule, PdpPriority{10}, "t");

  FlowView flow = tcp_flow(Ipv4Address(1, 1, 1, 1), Ipv4Address(2, 2, 2, 2), 80);
  flow.dst.switch_port = PortNo{3};
  EXPECT_FALSE(compile_wildcard(manager_, decide(flow), flow).has_value());
}

TEST_F(RuleCacheTest, DenyPolicyCachesToo) {
  PolicyRule deny;
  deny.action = PolicyAction::kDeny;
  deny.source.ip = Ipv4Address(10, 0, 0, 66);
  manager_.insert(deny, PdpPriority{10}, "t");

  const FlowView flow = tcp_flow(Ipv4Address(10, 0, 0, 66), Ipv4Address(2, 2, 2, 2), 80);
  const auto cached = compile_wildcard(manager_, decide(flow), flow);
  ASSERT_TRUE(cached.has_value());
  EXPECT_EQ(cached->match.ipv4_src, Ipv4Address(10, 0, 0, 66));
}

// ------------------------------------------------------ PCP integration

class CachingPcpTest : public ::testing::Test {
 protected:
  CachingPcpTest()
      : erm_(bus_), manager_(bus_),
        pcp_(bus_, erm_, manager_, caching_config()) {
    pcp_.register_switch(Dpid{1}, [this](const OfMessage& message) {
      if (const auto* mod = std::get_if<FlowModMsg>(&message.payload)) {
        if (mod->command == FlowModCommand::kAdd) adds_.push_back(*mod);
        if (mod->command == FlowModCommand::kDelete) deletes_.push_back(*mod);
      }
    });
  }

  static PcpConfig caching_config() {
    PcpConfig config;
    config.wildcard_caching = true;
    return config;
  }

  PacketInMsg packet_in(std::uint16_t src_port, std::uint16_t dst_port) {
    PacketInMsg msg;
    msg.in_port = PortNo{5};
    msg.data = make_tcp_packet(MacAddress::from_u64(0xa), MacAddress::from_u64(0xb),
                               Ipv4Address(10, 0, 0, 1), Ipv4Address(10, 0, 0, 2),
                               src_port, dst_port)
                   .serialize();
    return msg;
  }

  MessageBus bus_;
  EntityResolutionManager erm_;
  PolicyManager manager_;
  PolicyCompilationPoint pcp_;
  std::vector<FlowModMsg> adds_;
  std::vector<FlowModMsg> deletes_;
};

TEST_F(CachingPcpTest, InstallsWildcardRuleForIpPolicy) {
  PolicyRule rule;
  rule.action = PolicyAction::kAllow;
  rule.source.ip = Ipv4Address(10, 0, 0, 1);
  rule.destination.ip = Ipv4Address(10, 0, 0, 2);
  const PolicyRuleId id = manager_.insert(rule, PdpPriority{10}, "t");

  const PcpDecision decision = pcp_.decide(Dpid{1}, packet_in(50000, 80));
  EXPECT_TRUE(decision.allow);
  ASSERT_EQ(adds_.size(), 1u);
  EXPECT_EQ(adds_[0].cookie.value, id.value);
  EXPECT_FALSE(adds_[0].match.tcp_dst.has_value());  // generalized over ports
  EXPECT_EQ(pcp_.stats().wildcard_rules_installed, 1u);
}

TEST_F(CachingPcpTest, DefaultDenyStillExactMatch) {
  pcp_.decide(Dpid{1}, packet_in(50000, 80));
  ASSERT_EQ(adds_.size(), 1u);
  EXPECT_GE(adds_[0].match.specified_fields(), 9);  // exact fallback
  EXPECT_EQ(pcp_.stats().wildcard_fallbacks, 1u);
}

TEST_F(CachingPcpTest, IdentityCacheFlushedOnBindingRetraction) {
  // Bind host h1 to the source IP, with a policy naming h1.
  BindingEvent host_ip;
  host_ip.kind = BindingKind::kHostIp;
  host_ip.host = Hostname{"h1"};
  host_ip.ip = Ipv4Address(10, 0, 0, 1);
  erm_.apply(host_ip);

  PolicyRule rule;
  rule.action = PolicyAction::kAllow;
  rule.source.host = Hostname{"h1"};
  const PolicyRuleId id = manager_.insert(rule, PdpPriority{10}, "t");

  const PcpDecision decision = pcp_.decide(Dpid{1}, packet_in(50000, 80));
  ASSERT_TRUE(decision.allow);
  EXPECT_EQ(pcp_.stats().wildcard_rules_installed, 1u);

  // Retract the binding: the identity-derived cached rule must be flushed.
  deletes_.clear();
  BindingEvent retraction = host_ip;
  retraction.retracted = true;
  bus_.publish(topics::kErmBindings, retraction);
  ASSERT_FALSE(deletes_.empty());
  EXPECT_EQ(deletes_[0].cookie.value, id.value);
  EXPECT_EQ(pcp_.stats().binding_invalidations, 1u);
}

TEST_F(CachingPcpTest, DecisionsIdenticalWithAndWithoutCaching) {
  // Differential property: for a grid of flows under a mixed policy set,
  // the decision (allow/deny + deciding rule) is identical whether or not
  // wildcard caching is enabled — caching changes the installed match,
  // never the decision.
  PolicyRule allow_pair;
  allow_pair.action = PolicyAction::kAllow;
  allow_pair.source.ip = Ipv4Address(10, 0, 0, 1);
  allow_pair.destination.ip = Ipv4Address(10, 0, 0, 2);
  manager_.insert(allow_pair, PdpPriority{10}, "t");
  PolicyRule deny_ssh;
  deny_ssh.action = PolicyAction::kDeny;
  deny_ssh.destination.l4_port = 22;
  manager_.insert(deny_ssh, PdpPriority{20}, "t");

  PcpConfig exact_config;
  PolicyCompilationPoint exact_pcp(bus_, erm_, manager_, exact_config);
  exact_pcp.register_switch(Dpid{1}, [](const OfMessage&) {});

  for (std::uint16_t dst_port : {22, 80, 443, 445}) {
    for (std::uint16_t src_port : {50000, 50001}) {
      const PcpDecision cached = pcp_.decide(Dpid{1}, packet_in(src_port, dst_port));
      const PcpDecision exact = exact_pcp.decide(Dpid{1}, packet_in(src_port, dst_port));
      EXPECT_EQ(cached.allow, exact.allow) << dst_port;
      EXPECT_EQ(cached.policy.rule_id, exact.policy.rule_id) << dst_port;
    }
  }
}

}  // namespace
}  // namespace dfi
