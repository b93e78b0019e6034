// End-to-end integration tests: switches + DFI proxy/PCP + controller +
// services + hosts on the simulator, including the paper's Section III-C
// Alice example.
#include <gtest/gtest.h>

#include <memory>

#include "controller/learning_controller.h"
#include "core/dfi_system.h"
#include "core/pdps/quarantine.h"
#include "services/dhcp.h"
#include "services/dns.h"
#include "services/siem.h"
#include "testbed/network.h"

namespace dfi {
namespace {

// A two-switch network with three hosts under full DFI interposition.
class IntegrationTest : public ::testing::Test {
 protected:
  IntegrationTest()
      : dfi_(sim_, bus_, DfiConfig::functional()),
        controller_(sim_, zero_controller(), Rng(5)),
        network_(sim_),
        siem_(bus_, [this]() { return sim_.now(); }),
        dhcp_(bus_, [this]() { return sim_.now(); }, Ipv4Address(10, 0, 0, 10), 32),
        dns_(bus_, [this]() { return sim_.now(); }) {
    network_.add_switch(Dpid{1});
    network_.add_switch(Dpid{2});
    network_.link_switches(Dpid{1}, PortNo{10}, Dpid{2}, PortNo{10});

    alice_ = &provision("alice-laptop", Dpid{1}, PortNo{2});
    bob_ = &provision("bob-desktop", Dpid{1}, PortNo{3});
    mail_ = &provision("srv-email", Dpid{2}, PortNo{2});
    mail_->open_port(143);
    bob_->open_port(445);

    network_.attach_dfi_control(dfi_, controller_);
    network_.settle();
  }

  static ControllerConfig zero_controller() {
    ControllerConfig config;
    config.zero_latency = true;
    return config;
  }

  Host& provision(const char* name, Dpid dpid, PortNo port) {
    const MacAddress mac = MacAddress::from_u64(next_mac_++);
    Host& host = network_.add_host(Hostname{name}, mac, dpid, port);
    const auto leased = dhcp_.lease(mac);
    EXPECT_TRUE(leased.ok());
    host.set_ip(leased.value());
    dns_.register_record(Hostname{name}, leased.value());
    (*network_.arp())[leased.value()] = mac;
    return host;
  }

  ConnectResult try_connect(Host& from, Host& to, std::uint16_t port) {
    ConnectResult outcome;
    bool done = false;
    from.connect(to.ip(), port, [&](const ConnectResult& r) {
      outcome = r;
      done = true;
    });
    sim_.run_until(sim_.now() + seconds(10.0));
    EXPECT_TRUE(done);
    return outcome;
  }

  void insert_allow_all() {
    PolicyRule allow;
    allow.action = PolicyAction::kAllow;
    dfi_.policy_manager().insert(allow, PdpPriority{1}, "test-allow-all");
  }

  Simulator sim_;
  MessageBus bus_;
  DfiSystem dfi_;
  LearningController controller_;
  Network network_;
  SiemService siem_;
  DhcpServer dhcp_;
  DnsServer dns_;
  Host* alice_ = nullptr;
  Host* bob_ = nullptr;
  Host* mail_ = nullptr;
  std::uint64_t next_mac_ = 0x020000000001ull;
};

TEST_F(IntegrationTest, DefaultDenyBlocksEverything) {
  const ConnectResult outcome = try_connect(*alice_, *bob_, 445);
  EXPECT_FALSE(outcome.connected);
  EXPECT_GT(dfi_.pcp().stats().default_denied, 0u);
  // The controller never saw the denied flow's packets.
  EXPECT_EQ(controller_.stats().packet_ins, 0u);
}

TEST_F(IntegrationTest, AllowAllEnablesSameSwitchFlow) {
  insert_allow_all();
  const ConnectResult outcome = try_connect(*alice_, *bob_, 445);
  EXPECT_TRUE(outcome.connected);
  EXPECT_GT(dfi_.pcp().stats().allowed, 0u);
  EXPECT_GT(controller_.stats().packet_ins, 0u);
}

TEST_F(IntegrationTest, AllowAllEnablesCrossSwitchFlow) {
  insert_allow_all();
  const ConnectResult outcome = try_connect(*alice_, *mail_, 143);
  EXPECT_TRUE(outcome.connected);
  // Both switches enforce policy (per-hop rule installation).
  SwitchDevice* sw1 = network_.find_switch(Dpid{1});
  SwitchDevice* sw2 = network_.find_switch(Dpid{2});
  EXPECT_GT(sw1->pipeline().table(0).size(), 0u);
  EXPECT_GT(sw2->pipeline().table(0).size(), 0u);
}

TEST_F(IntegrationTest, Table0IsDfiOnlyTable1IsController) {
  insert_allow_all();
  try_connect(*alice_, *bob_, 445);
  SwitchDevice* sw = network_.find_switch(Dpid{1});
  // Table 0 rules carry DFI cookies (policy ids); table 1 rules are the
  // controller's (shifted from its table 0) with controller cookies.
  ASSERT_GT(sw->pipeline().table(0).size(), 0u);
  sw->pipeline().table(0).for_each([](const FlowRule& rule) {
    EXPECT_GE(rule.cookie.value, kDefaultDenyCookie.value);
  });
  EXPECT_GT(sw->pipeline().table(1).size(), 0u);
}

TEST_F(IntegrationTest, SecondFlowPacketsBypassControlPlane) {
  insert_allow_all();
  try_connect(*alice_, *bob_, 445);
  const std::uint64_t packet_ins_before = dfi_.pcp().stats().packet_ins;
  // The same 5-tuple is cached... but a connect() uses a fresh source port,
  // so instead send the exact same packet twice at the data plane.
  const Packet probe = make_tcp_packet(alice_->mac(), bob_->mac(), alice_->ip(),
                                       bob_->ip(), 55555, 445);
  network_.inject(Dpid{1}, PortNo{2}, probe.serialize());
  sim_.run_until(sim_.now() + seconds(1.0));
  const std::uint64_t after_first = dfi_.pcp().stats().packet_ins;
  EXPECT_GT(after_first, packet_ins_before);
  network_.inject(Dpid{1}, PortNo{2}, probe.serialize());
  sim_.run_until(sim_.now() + seconds(1.0));
  EXPECT_EQ(dfi_.pcp().stats().packet_ins, after_first);  // table-0 hit
}

TEST_F(IntegrationTest, AliceEndToEndExample) {
  // Paper Section III-C: "When Alice is logged on, the computer she is
  // using can communicate with the email server; when she logs off, it
  // cannot." The PDP below reacts to SIEM session events.
  struct AlicePdp {
    PolicyManager& policy;
    std::optional<PolicyRuleId> to_mail, from_mail;
    Subscription sub;

    explicit AlicePdp(MessageBus& bus, PolicyManager& pm)
        : policy(pm), sub(bus.subscribe<SessionEvent>(
              topics::kSiemSessions, [this](const SessionEvent& event) {
                if (event.user != Username{"alice"}) return;
                if (event.logged_on) {
                  PolicyRule rule;
                  rule.action = PolicyAction::kAllow;
                  rule.source.user = Username{"alice"};
                  rule.destination.host = Hostname{"srv-email"};
                  to_mail = policy.insert(rule, PdpPriority{50}, "alice-pdp");
                  PolicyRule reverse;
                  reverse.action = PolicyAction::kAllow;
                  reverse.source.host = Hostname{"srv-email"};
                  reverse.destination.user = Username{"alice"};
                  from_mail = policy.insert(reverse, PdpPriority{50}, "alice-pdp");
                } else {
                  if (to_mail) policy.revoke(*to_mail);
                  if (from_mail) policy.revoke(*from_mail);
                  to_mail.reset();
                  from_mail.reset();
                }
              })) {}
  };
  AlicePdp pdp(bus_, dfi_.policy_manager());

  // 1-2: bindings are already in the ERM from DHCP/DNS at provisioning.
  // Before log-on: denied.
  EXPECT_FALSE(try_connect(*alice_, *mail_, 143).connected);

  // 3-5: Alice logs on; the sensor chain grants the policy.
  siem_.process_created(Username{"alice"}, Hostname{"alice-laptop"});
  // 6-11: Alice checks her email.
  EXPECT_TRUE(try_connect(*alice_, *mail_, 143).connected);
  // Bob's machine is still denied (the rule names Alice).
  EXPECT_FALSE(try_connect(*bob_, *mail_, 143).connected);

  // 12-15: Alice logs off; the policy is revoked and rules flushed.
  siem_.process_terminated(Username{"alice"}, Hostname{"alice-laptop"});
  sim_.run_until(sim_.now() + seconds(1.0));
  EXPECT_FALSE(try_connect(*alice_, *mail_, 143).connected);
}

TEST_F(IntegrationTest, RevocationFlushesCachedRulesFromSwitches) {
  PolicyRule allow;
  allow.action = PolicyAction::kAllow;
  const PolicyRuleId id = dfi_.policy_manager().insert(allow, PdpPriority{1}, "t");
  ASSERT_TRUE(try_connect(*alice_, *bob_, 445).connected);

  SwitchDevice* sw = network_.find_switch(Dpid{1});
  std::size_t dfi_rules = 0;
  sw->pipeline().table(0).for_each([&](const FlowRule& rule) {
    if (rule.cookie.value == id.value) ++dfi_rules;
  });
  ASSERT_GT(dfi_rules, 0u);

  dfi_.policy_manager().revoke(id);
  sim_.run_until(sim_.now() + seconds(1.0));
  dfi_rules = 0;
  sw->pipeline().table(0).for_each([&](const FlowRule& rule) {
    if (rule.cookie.value == id.value) ++dfi_rules;
  });
  EXPECT_EQ(dfi_rules, 0u);
  EXPECT_FALSE(try_connect(*alice_, *bob_, 445).connected);
}

TEST_F(IntegrationTest, QuarantineCutsHostImmediately) {
  insert_allow_all();
  QuarantinePdp quarantine(PdpPriority{200}, dfi_.policy_manager(), bus_);
  ASSERT_TRUE(try_connect(*alice_, *bob_, 445).connected);

  quarantine.quarantine(Hostname{"alice-laptop"});
  sim_.run_until(sim_.now() + seconds(1.0));
  EXPECT_FALSE(try_connect(*alice_, *bob_, 445).connected);
  EXPECT_TRUE(try_connect(*bob_, *mail_, 143).connected);  // others unaffected

  quarantine.release(Hostname{"alice-laptop"});
  sim_.run_until(sim_.now() + seconds(1.0));
  EXPECT_TRUE(try_connect(*alice_, *bob_, 445).connected);
}

TEST_F(IntegrationTest, SpoofedSourceBlockedDespiteAllowAll) {
  insert_allow_all();
  // Attacker on Alice's port claims Bob's IP (bound by DHCP to Bob's MAC).
  const Packet spoofed = make_tcp_packet(alice_->mac(), mail_->mac(), bob_->ip(),
                                         mail_->ip(), 50000, 143);
  network_.inject(Dpid{1}, PortNo{2}, spoofed.serialize());
  sim_.run_until(sim_.now() + seconds(1.0));
  EXPECT_GT(dfi_.pcp().stats().spoof_denied, 0u);
  EXPECT_EQ(mail_->packets_received(), 0u);
}

TEST_F(IntegrationTest, ArpResolutionSubjectToPolicy) {
  // Dynamic ARP: remove the static entries so the prober must broadcast a
  // real ARP request through the data plane, where DFI decides its fate.
  alice_->enable_arp();
  bob_->enable_arp();
  const Ipv4Address bob_ip = bob_->ip();
  network_.arp()->erase(bob_ip);

  // 1) Default deny: ARP is traffic like any other; resolution fails.
  {
    ConnectResult outcome;
    bool done = false;
    alice_->connect(bob_ip, 445, [&](const ConnectResult& r) {
      outcome = r;
      done = true;
    });
    sim_.run_until(sim_.now() + seconds(10.0));
    EXPECT_TRUE(done);
    EXPECT_FALSE(outcome.connected);
    EXPECT_EQ(alice_->arp_cache_size(), 0u);
  }

  // 2) Allow ARP frames + the TCP flow: resolution and handshake succeed.
  PolicyRule allow_arp;
  allow_arp.action = PolicyAction::kAllow;
  allow_arp.properties.ether_type = static_cast<std::uint16_t>(EtherType::kArp);
  dfi_.policy_manager().insert(allow_arp, PdpPriority{5}, "arp");
  PolicyRule allow_ip;
  allow_ip.action = PolicyAction::kAllow;
  allow_ip.properties.ether_type = static_cast<std::uint16_t>(EtherType::kIpv4);
  dfi_.policy_manager().insert(allow_ip, PdpPriority{5}, "ip");

  const ConnectResult outcome = try_connect(*alice_, *bob_, 445);
  EXPECT_TRUE(outcome.connected);
  EXPECT_GE(alice_->arp_cache_size(), 1u);  // learned from the reply
}

TEST_F(IntegrationTest, ParallelControlPlaneInstancesShareState) {
  // The paper: "Multiple proxies, as well as PCPs, can be used in parallel
  // in an SDN installation for reliability or performance." Build a second
  // PCP + proxy sharing the same ERM/Policy Manager over the same bus, and
  // attach a new switch through it. Policy changes must reach rules cached
  // via *both* instances.
  PolicyCompilationPoint second_pcp(sim_, bus_, dfi_.erm(), dfi_.policy_manager(),
                                    PcpConfig{});
  DfiProxy second_proxy(second_pcp, [this](std::function<void()> deliver) {
    sim_.schedule_after(SimDuration{}, std::move(deliver));
  });

  network_.add_switch(Dpid{3});
  network_.link_switches(Dpid{2}, PortNo{11}, Dpid{3}, PortNo{10});
  Host& carol = provision("carol-pc", Dpid{3}, PortNo{2});
  carol.open_port(445);

  SwitchDevice* sw3 = network_.find_switch(Dpid{3});
  struct Wiring {
    DfiProxy::Session* proxy = nullptr;
    LearningController::Session* ctrl = nullptr;
  };
  auto wiring = std::make_shared<Wiring>();
  DfiProxy::Session& session = second_proxy.create_session(
      [sw3](const std::vector<std::uint8_t>& bytes) { sw3->receive_control(bytes); },
      [wiring](const std::vector<std::uint8_t>& bytes) {
        if (wiring->ctrl != nullptr) wiring->ctrl->receive(bytes);
      });
  wiring->proxy = &session;
  LearningController::Session& ctrl =
      controller_.accept_connection([wiring](const std::vector<std::uint8_t>& bytes) {
        if (wiring->proxy != nullptr) wiring->proxy->from_controller(bytes);
      });
  wiring->ctrl = &ctrl;
  sw3->connect_control([wiring](const std::vector<std::uint8_t>& bytes) {
    if (wiring->proxy != nullptr) wiring->proxy->from_switch(bytes);
  });
  network_.settle();

  PolicyRule allow;
  allow.action = PolicyAction::kAllow;
  const PolicyRuleId id = dfi_.policy_manager().insert(allow, PdpPriority{1}, "t");

  // Flows through both instances' switches work.
  EXPECT_TRUE(try_connect(*alice_, *bob_, 445).connected);    // via first PCP
  EXPECT_TRUE(try_connect(*mail_, carol, 445).connected);     // via second PCP
  EXPECT_GT(second_pcp.stats().allowed, 0u);

  // Revocation flushes rules installed through *both* PCP instances.
  dfi_.policy_manager().revoke(id);
  sim_.run_until(sim_.now() + seconds(1.0));
  std::size_t stale = 0;
  sw3->pipeline().table(0).for_each([&](const FlowRule& rule) {
    if (rule.cookie.value == id.value) ++stale;
  });
  EXPECT_EQ(stale, 0u);
  EXPECT_FALSE(try_connect(*mail_, carol, 445).connected);
}

TEST_F(IntegrationTest, LinkFailureCutsFlowsAndNotifiesController) {
  insert_allow_all();
  ASSERT_TRUE(try_connect(*alice_, *mail_, 143).connected);

  // The inter-switch trunk fails: cross-switch flows die, same-switch
  // flows survive, and the controller hears about it through the proxy.
  const std::uint64_t status_before = controller_.stats().port_status_received;
  network_.find_switch(Dpid{1})->set_port_down(PortNo{10}, true);
  sim_.run_until(sim_.now() + seconds(1.0));
  EXPECT_GT(controller_.stats().port_status_received, status_before);

  EXPECT_FALSE(try_connect(*alice_, *mail_, 143).connected);
  EXPECT_TRUE(try_connect(*alice_, *bob_, 445).connected);

  // Repairing the trunk restores cross-switch reachability.
  network_.find_switch(Dpid{1})->set_port_down(PortNo{10}, false);
  sim_.run_until(sim_.now() + seconds(1.0));
  EXPECT_TRUE(try_connect(*alice_, *mail_, 143).connected);
}

TEST_F(IntegrationTest, ControllerSeesShiftedTableSpace) {
  insert_allow_all();
  try_connect(*alice_, *bob_, 445);
  for (const auto& session : controller_.sessions()) {
    if (session->dpid().has_value()) {
      // Switches have 4 tables; the controller must see 3.
      EXPECT_EQ(session->advertised_tables(), 3);
    }
  }
}

}  // namespace
}  // namespace dfi
