// Unit tests for the Policy Compilation Point: decisions, exact-match rule
// compilation, cookie tagging, flushing, the MAC-location sensor, spoof
// denial, and the live path's inline admission bound. The paper-timed path
// (modelled service stations, Table II draws) is in paper_timing_test.cc.
#include <gtest/gtest.h>

#include "bus/message_bus.h"
#include "core/pcp.h"

namespace dfi {
namespace {

class PcpTest : public ::testing::Test {
 protected:
  PcpTest() { rebuild({}); }

  void rebuild(PcpConfig config) {
    pcp_.reset();
    erm_ = std::make_unique<EntityResolutionManager>(bus_);
    manager_ = std::make_unique<PolicyManager>(bus_);
    pcp_ = std::make_unique<PolicyCompilationPoint>(bus_, *erm_, *manager_, config);
    installed_.clear();
    pcp_->register_switch(Dpid{1}, [this](const OfMessage& message) {
      installed_.push_back(message);
    });
  }

  PacketInMsg packet_in_for(const Packet& packet, PortNo port = PortNo{5}) {
    PacketInMsg msg;
    msg.in_port = port;
    msg.table_id = 0;
    msg.data = packet.serialize();
    return msg;
  }

  Packet sample_packet() {
    return make_tcp_packet(MacAddress::from_u64(0xa), MacAddress::from_u64(0xb),
                           Ipv4Address(10, 0, 0, 1), Ipv4Address(10, 0, 0, 2), 1000,
                           445);
  }

  // Installed ADD rules only — policy inserts may also publish flush
  // directives, which arrive as DELETE flow-mods.
  std::vector<FlowModMsg> installed_flow_mods() const {
    std::vector<FlowModMsg> mods;
    for (const auto& message : installed_) {
      if (const auto* mod = std::get_if<FlowModMsg>(&message.payload)) {
        if (mod->command == FlowModCommand::kAdd) mods.push_back(*mod);
      }
    }
    return mods;
  }

  MessageBus bus_;
  std::unique_ptr<EntityResolutionManager> erm_;
  std::unique_ptr<PolicyManager> manager_;
  std::unique_ptr<PolicyCompilationPoint> pcp_;
  std::vector<OfMessage> installed_;
};

TEST_F(PcpTest, DefaultDenyCompilesDropRule) {
  const PcpDecision decision = pcp_->decide(Dpid{1}, packet_in_for(sample_packet()));
  EXPECT_FALSE(decision.allow);
  EXPECT_TRUE(decision.policy.default_deny);

  const auto mods = installed_flow_mods();
  ASSERT_EQ(mods.size(), 1u);
  EXPECT_EQ(mods[0].table_id, 0);
  EXPECT_EQ(mods[0].cookie, kDefaultDenyCookie);
  EXPECT_TRUE(mods[0].instructions.apply_actions.empty());
  EXPECT_FALSE(mods[0].instructions.goto_table.has_value());
  EXPECT_EQ(pcp_->stats().default_denied, 1u);
}

TEST_F(PcpTest, AllowCompilesGotoRuleWithPolicyCookie) {
  PolicyRule allow;
  allow.action = PolicyAction::kAllow;
  const PolicyRuleId id = manager_->insert(allow, PdpPriority{5}, "t");

  const PcpDecision decision = pcp_->decide(Dpid{1}, packet_in_for(sample_packet()));
  EXPECT_TRUE(decision.allow);

  const auto mods = installed_flow_mods();
  ASSERT_EQ(mods.size(), 1u);
  EXPECT_EQ(mods[0].cookie.value, id.value);
  EXPECT_EQ(mods[0].instructions.goto_table, 1);
  EXPECT_EQ(mods[0].idle_timeout, 0);  // DFI uses no timeouts
  EXPECT_EQ(mods[0].hard_timeout, 0);
  EXPECT_EQ(pcp_->stats().allowed, 1u);
}

TEST_F(PcpTest, CompiledRuleIsExactMatch) {
  PolicyRule allow;
  allow.action = PolicyAction::kAllow;
  manager_->insert(allow, PdpPriority{5}, "t");

  const Packet packet = sample_packet();
  pcp_->decide(Dpid{1}, packet_in_for(packet, PortNo{7}));
  const auto mods = installed_flow_mods();
  ASSERT_EQ(mods.size(), 1u);
  const Match& match = mods[0].match;
  EXPECT_EQ(match.in_port, PortNo{7});
  EXPECT_EQ(match.eth_src, packet.eth.src);
  EXPECT_EQ(match.eth_dst, packet.eth.dst);
  EXPECT_EQ(match.ipv4_src, packet.ipv4->src);
  EXPECT_EQ(match.ipv4_dst, packet.ipv4->dst);
  EXPECT_EQ(match.tcp_src, packet.tcp->src_port);
  EXPECT_EQ(match.tcp_dst, packet.tcp->dst_port);
  EXPECT_EQ(match.specified_fields(), 9);
}

TEST_F(PcpTest, EnrichmentDrivesUserPolicy) {
  // Policy over a username; bindings resolve the packet's source IP to alice.
  PolicyRule allow;
  allow.action = PolicyAction::kAllow;
  allow.source.user = Username{"alice"};
  manager_->insert(allow, PdpPriority{5}, "t");

  // No bindings yet: default deny.
  EXPECT_FALSE(pcp_->decide(Dpid{1}, packet_in_for(sample_packet())).allow);

  BindingEvent host_ip;
  host_ip.kind = BindingKind::kHostIp;
  host_ip.host = Hostname{"alice-laptop"};
  host_ip.ip = Ipv4Address(10, 0, 0, 1);
  erm_->apply(host_ip);
  BindingEvent user_host;
  user_host.kind = BindingKind::kUserHost;
  user_host.user = Username{"alice"};
  user_host.host = Hostname{"alice-laptop"};
  erm_->apply(user_host);

  const PcpDecision decision = pcp_->decide(Dpid{1}, packet_in_for(sample_packet()));
  EXPECT_TRUE(decision.allow);
  ASSERT_FALSE(decision.flow.src.usernames.empty());
  EXPECT_EQ(decision.flow.src.usernames[0], Username{"alice"});
}

TEST_F(PcpTest, SpoofedSourceDenied) {
  PolicyRule allow;
  allow.action = PolicyAction::kAllow;
  manager_->insert(allow, PdpPriority{5}, "t");

  // DHCP bound 10.0.0.1 to a different MAC than the packet's source.
  BindingEvent binding;
  binding.kind = BindingKind::kIpMac;
  binding.ip = Ipv4Address(10, 0, 0, 1);
  binding.mac = MacAddress::from_u64(0xDEAD);
  erm_->apply(binding);

  const PcpDecision decision = pcp_->decide(Dpid{1}, packet_in_for(sample_packet()));
  EXPECT_FALSE(decision.allow);
  EXPECT_TRUE(decision.spoofed);
  EXPECT_EQ(pcp_->stats().spoof_denied, 1u);
  // A drop rule still gets installed so the spoofer cannot hammer the
  // control plane with the same flow.
  ASSERT_EQ(installed_flow_mods().size(), 1u);
  EXPECT_TRUE(installed_flow_mods()[0].instructions.apply_actions.empty());
}

TEST_F(PcpTest, MacLocationSensorFeedsErm) {
  pcp_->decide(Dpid{1}, packet_in_for(sample_packet(), PortNo{5}));
  EXPECT_EQ(erm_->location_of_mac(Dpid{1}, MacAddress::from_u64(0xa)), PortNo{5});

  // The host moves ports: the sensor replaces the binding and counts it.
  pcp_->decide(Dpid{1}, packet_in_for(sample_packet(), PortNo{6}));
  EXPECT_EQ(erm_->location_of_mac(Dpid{1}, MacAddress::from_u64(0xa)), PortNo{6});
  EXPECT_EQ(pcp_->stats().mac_moves, 1u);
}

TEST_F(PcpTest, FlushDirectiveDeletesByCookieOnAllSwitches) {
  std::vector<OfMessage> second_switch;
  pcp_->register_switch(Dpid{2}, [&second_switch](const OfMessage& message) {
    second_switch.push_back(message);
  });

  bus_.publish(topics::kRuleFlush, FlushDirective{PolicyRuleId{77}});
  ASSERT_EQ(installed_.size(), 1u);
  ASSERT_EQ(second_switch.size(), 1u);
  const auto& del = std::get<FlowModMsg>(installed_[0].payload);
  EXPECT_EQ(del.command, FlowModCommand::kDelete);
  EXPECT_EQ(del.table_id, 0);
  EXPECT_EQ(del.cookie, Cookie{77});
  EXPECT_EQ(del.cookie_mask, Cookie{~0ull});
  EXPECT_TRUE(del.match.is_wildcard_all());
  EXPECT_EQ(pcp_->stats().flush_directives, 1u);
}

TEST_F(PcpTest, RevocationEndToEndFlushes) {
  PolicyRule allow;
  allow.action = PolicyAction::kAllow;
  const PolicyRuleId id = manager_->insert(allow, PdpPriority{5}, "t");
  installed_.clear();
  manager_->revoke(id);
  ASSERT_EQ(installed_.size(), 1u);
  EXPECT_EQ(std::get<FlowModMsg>(installed_[0].payload).cookie.value, id.value);
}

TEST_F(PcpTest, UnparsablePacketDefaultDeniedWithoutRule) {
  PacketInMsg msg;
  msg.in_port = PortNo{1};
  msg.data = {0x00, 0x01};
  const PcpDecision decision = pcp_->decide(Dpid{1}, msg);
  EXPECT_FALSE(decision.allow);
  EXPECT_TRUE(installed_flow_mods().empty());
  EXPECT_EQ(pcp_->stats().unparsable, 1u);
}

TEST_F(PcpTest, UnregisteredSwitchInstallIsSafe) {
  pcp_->unregister_switch(Dpid{1});
  const PcpDecision decision = pcp_->decide(Dpid{1}, packet_in_for(sample_packet()));
  EXPECT_FALSE(decision.allow);
  EXPECT_TRUE(installed_.empty());
}

// The live path decides inline, so its only queue is the caller's read
// batch: the bound spans every run of one batch, and what it rejects is
// dropped as overload, never decided.
TEST_F(PcpTest, InlineAdmissionBoundSpansRunsOfOneReadBatch) {
  PcpConfig config;
  config.queue_capacity = 4;
  rebuild(config);
  int decided = 0;
  const auto run = [&](std::size_t n) {
    std::vector<PolicyCompilationPoint::BatchItem> items(n);
    for (auto& item : items) {
      item.input = make_decision_input(Dpid{1}, packet_in_for(sample_packet()));
      item.done = [&decided](const PcpDecision&) { ++decided; };
    }
    return items;
  };
  auto first = run(3);
  std::size_t admitted = pcp_->handle_packet_in_batch(first, 0);
  EXPECT_EQ(admitted, 3u);
  EXPECT_EQ(decided, 3);  // before the call returned
  auto second = run(3);
  admitted += pcp_->handle_packet_in_batch(second, admitted);
  EXPECT_EQ(admitted, 4u);
  EXPECT_EQ(decided, 4);
  EXPECT_TRUE(second[0].accepted);
  EXPECT_FALSE(second[1].accepted);
  EXPECT_FALSE(second[2].accepted);
  EXPECT_EQ(pcp_->stats().packet_ins, 6u);
  EXPECT_EQ(pcp_->stats().dropped_overload, 2u);
  // A new read batch starts a new bound.
  auto third = run(2);
  EXPECT_EQ(pcp_->handle_packet_in_batch(third, 0), 2u);
}

}  // namespace
}  // namespace dfi
