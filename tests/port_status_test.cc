// Port status / port statistics tests across the stack: wire codec,
// switch behaviour, proxy passthrough, and controller unlearning.
#include <gtest/gtest.h>

#include "bus/message_bus.h"
#include "controller/learning_controller.h"
#include "core/proxy.h"
#include "openflow/switch_device.h"
#include "sim/simulator.h"

namespace dfi {
namespace {

TEST(PortStatusWire, RoundTrip) {
  PortStatusMsg status;
  status.reason = PortStatusReason::kModify;
  status.desc.port_no = PortNo{7};
  status.desc.hw_addr = MacAddress::from_u64(0x02000000aaull);
  status.desc.name = "uplink";
  status.desc.state = kPortStateLinkDown;

  const auto bytes = encode(OfMessage{3, status});
  const auto decoded = decode(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.error().message;
  const auto& out = std::get<PortStatusMsg>(decoded.value().payload);
  EXPECT_EQ(out.reason, PortStatusReason::kModify);
  EXPECT_EQ(out.desc.port_no, PortNo{7});
  EXPECT_EQ(out.desc.hw_addr, status.desc.hw_addr);
  EXPECT_EQ(out.desc.name, "uplink");
  EXPECT_TRUE(out.desc.link_down());
  EXPECT_EQ(encode(decoded.value()), bytes);
}

TEST(PortStatusWire, PortStatsRoundTrip) {
  MultipartRequestMsg request;
  request.stats_type = kStatsTypePort;
  request.port_no = PortNo{2};
  const auto request_decoded = decode(encode(OfMessage{4, request}));
  ASSERT_TRUE(request_decoded.ok());
  EXPECT_EQ(std::get<MultipartRequestMsg>(request_decoded.value().payload).port_no,
            PortNo{2});

  MultipartReplyMsg reply;
  reply.stats_type = kStatsTypePort;
  PortStatsEntry entry;
  entry.port_no = PortNo{2};
  entry.rx_packets = 100;
  entry.tx_packets = 200;
  entry.rx_bytes = 6400;
  entry.tx_bytes = 12800;
  entry.tx_dropped = 5;
  entry.duration_sec = 42;
  reply.port_stats.push_back(entry);
  const auto reply_decoded = decode(encode(OfMessage{5, reply}));
  ASSERT_TRUE(reply_decoded.ok()) << reply_decoded.error().message;
  const auto& out = std::get<MultipartReplyMsg>(reply_decoded.value().payload);
  ASSERT_EQ(out.port_stats.size(), 1u);
  EXPECT_EQ(out.port_stats[0].rx_packets, 100u);
  EXPECT_EQ(out.port_stats[0].tx_dropped, 5u);
  EXPECT_EQ(out.port_stats[0].duration_sec, 42u);
}

class PortSwitchTest : public ::testing::Test {
 protected:
  PortSwitchTest()
      : device_(SwitchConfig{Dpid{1}, 4, 1024}, [this]() { return sim_.now(); }) {
    device_.add_port(PortNo{1},
                     [this](PortNo, const std::vector<std::uint8_t>&) { ++out1_; });
    device_.add_port(PortNo{2},
                     [this](PortNo, const std::vector<std::uint8_t>&) { ++out2_; },
                     "access2");
    device_.connect_control([this](const std::vector<std::uint8_t>& bytes) {
      FrameDecoder decoder;
      decoder.feed(bytes);
      for (auto& result : decoder.drain()) {
        ASSERT_TRUE(result.ok());
        control_.push_back(std::move(result).value());
      }
    });
    // Wildcard forward-to-port-2 rule.
    FlowModMsg mod;
    mod.command = FlowModCommand::kAdd;
    mod.instructions = Instructions::output(PortNo{2});
    device_.receive_control(encode(OfMessage{1, mod}));
  }

  Packet sample() const {
    return make_tcp_packet(MacAddress::from_u64(1), MacAddress::from_u64(2),
                           Ipv4Address(1, 1, 1, 1), Ipv4Address(2, 2, 2, 2), 1, 2);
  }

  Simulator sim_;
  SwitchDevice device_;
  int out1_ = 0;
  int out2_ = 0;
  std::vector<OfMessage> control_;
};

TEST_F(PortSwitchTest, CountersTrackTraffic) {
  device_.receive_packet(PortNo{1}, sample().serialize());
  const PortStatsEntry in_stats = device_.port_stats(PortNo{1});
  const PortStatsEntry out_stats = device_.port_stats(PortNo{2});
  EXPECT_EQ(in_stats.rx_packets, 1u);
  EXPECT_GT(in_stats.rx_bytes, 0u);
  EXPECT_EQ(out_stats.tx_packets, 1u);
  EXPECT_EQ(out2_, 1);
}

TEST_F(PortSwitchTest, DownPortDropsEgressAndRaisesStatus) {
  device_.set_port_down(PortNo{2}, true);
  // PORT_STATUS raised to the control plane.
  bool saw_status = false;
  for (const auto& message : control_) {
    if (const auto* status = std::get_if<PortStatusMsg>(&message.payload)) {
      saw_status = true;
      EXPECT_EQ(status->desc.port_no, PortNo{2});
      EXPECT_TRUE(status->desc.link_down());
      EXPECT_EQ(status->desc.name, "access2");
    }
  }
  EXPECT_TRUE(saw_status);

  device_.receive_packet(PortNo{1}, sample().serialize());
  EXPECT_EQ(out2_, 0);  // egress dropped
  EXPECT_EQ(device_.port_stats(PortNo{2}).tx_dropped, 1u);

  // Ingress on a down port is ignored entirely.
  device_.receive_packet(PortNo{2}, sample().serialize());
  EXPECT_EQ(device_.port_stats(PortNo{2}).rx_packets, 0u);
  EXPECT_EQ(device_.port_stats(PortNo{2}).rx_dropped, 1u);

  // Bring it back: traffic flows again, and only state *changes* notify.
  const std::size_t messages_before = control_.size();
  device_.set_port_down(PortNo{2}, false);
  device_.set_port_down(PortNo{2}, false);  // no-op, no second status
  EXPECT_EQ(control_.size(), messages_before + 1);
  device_.receive_packet(PortNo{1}, sample().serialize());
  EXPECT_EQ(out2_, 1);
}

TEST_F(PortSwitchTest, PortStatsMultipartReply) {
  device_.receive_packet(PortNo{1}, sample().serialize());
  MultipartRequestMsg request;
  request.stats_type = kStatsTypePort;
  request.port_no = kPortAny;
  device_.receive_control(encode(OfMessage{9, request}));

  const MultipartReplyMsg* reply = nullptr;
  for (const auto& message : control_) {
    if (const auto* r = std::get_if<MultipartReplyMsg>(&message.payload)) reply = r;
  }
  ASSERT_NE(reply, nullptr);
  ASSERT_EQ(reply->port_stats.size(), 2u);

  // Single-port query.
  control_.clear();
  request.port_no = PortNo{2};
  device_.receive_control(encode(OfMessage{10, request}));
  for (const auto& message : control_) {
    if (const auto* r = std::get_if<MultipartReplyMsg>(&message.payload)) {
      ASSERT_EQ(r->port_stats.size(), 1u);
      EXPECT_EQ(r->port_stats[0].port_no, PortNo{2});
    }
  }
}

TEST(PortStatusController, UnlearnsMacsOnLinkDown) {
  Simulator sim;
  ControllerConfig config;
  config.zero_latency = true;
  config.exact_match_rules = false;
  LearningController controller(sim, config, Rng(1));
  std::vector<OfMessage> sent;
  auto& session = controller.accept_connection([&](const std::vector<std::uint8_t>& bytes) {
    FrameDecoder decoder;
    decoder.feed(bytes);
    for (auto& result : decoder.drain()) sent.push_back(std::move(result).value());
  });
  session.receive(encode(OfMessage{1, HelloMsg{}}));
  FeaturesReplyMsg features;
  features.datapath_id = Dpid{5};
  session.receive(encode(OfMessage{2, features}));

  const auto packet_in = [](MacAddress src, MacAddress dst, PortNo port) {
    PacketInMsg msg;
    msg.in_port = port;
    msg.data = make_tcp_packet(src, dst, Ipv4Address(1, 1, 1, 1),
                               Ipv4Address(2, 2, 2, 2), 1, 2)
                   .serialize();
    return msg;
  };
  // Learn MAC 1 at port 1, then fail port 1.
  session.receive(encode(OfMessage{3, packet_in(MacAddress::from_u64(1),
                                                MacAddress::from_u64(2), PortNo{1})}));
  sim.run();
  PortStatusMsg status;
  status.desc.port_no = PortNo{1};
  status.desc.state = kPortStateLinkDown;
  session.receive(encode(OfMessage{4, status}));
  EXPECT_EQ(controller.stats().port_status_received, 1u);

  // Traffic to MAC 1 floods again instead of using the dead port.
  const std::uint64_t floods_before = controller.stats().floods;
  session.receive(encode(OfMessage{5, packet_in(MacAddress::from_u64(2),
                                                MacAddress::from_u64(1), PortNo{2})}));
  sim.run();
  EXPECT_EQ(controller.stats().floods, floods_before + 1);
}

TEST(PortStatusProxy, PassthroughBothWays) {
  Simulator sim;
  MessageBus bus;
  EntityResolutionManager erm(bus);
  PolicyManager manager(bus);
  PcpConfig pcp_config;
  PolicyCompilationPoint pcp(bus, erm, manager, pcp_config);
  DfiProxy proxy(pcp, [&sim](std::function<void()> deliver) {
    sim.schedule_after(SimDuration{}, std::move(deliver));
  });

  std::vector<OfMessage> to_switch, to_controller;
  const auto collect = [](std::vector<OfMessage>& sink) {
    return [&sink](const std::vector<std::uint8_t>& bytes) {
      FrameDecoder decoder;
      decoder.feed(bytes);
      for (auto& result : decoder.drain()) {
        ASSERT_TRUE(result.ok());
        sink.push_back(std::move(result).value());
      }
    };
  };
  DfiProxy::Session& session =
      proxy.create_session(collect(to_switch), collect(to_controller));

  // PORT_STATUS switch -> controller passes unchanged.
  PortStatusMsg status;
  status.desc.port_no = PortNo{4};
  status.desc.state = kPortStateLinkDown;
  session.from_switch(encode(OfMessage{1, status}));
  sim.run();
  ASSERT_EQ(to_controller.size(), 1u);
  EXPECT_EQ(std::get<PortStatusMsg>(to_controller[0].payload).desc.port_no, PortNo{4});

  // Port-stats request controller -> switch passes without table shifting.
  MultipartRequestMsg request;
  request.stats_type = kStatsTypePort;
  request.port_no = PortNo{4};
  session.from_controller(encode(OfMessage{2, request}));
  sim.run();
  ASSERT_EQ(to_switch.size(), 1u);
  EXPECT_EQ(std::get<MultipartRequestMsg>(to_switch[0].payload).port_no, PortNo{4});

  // Port-stats reply switch -> controller keeps its entries.
  MultipartReplyMsg reply;
  reply.stats_type = kStatsTypePort;
  PortStatsEntry entry;
  entry.port_no = PortNo{4};
  entry.rx_packets = 9;
  reply.port_stats.push_back(entry);
  session.from_switch(encode(OfMessage{3, reply}));
  sim.run();
  ASSERT_EQ(to_controller.size(), 2u);
  const auto& forwarded = std::get<MultipartReplyMsg>(to_controller[1].payload);
  ASSERT_EQ(forwarded.port_stats.size(), 1u);
  EXPECT_EQ(forwarded.port_stats[0].rx_packets, 9u);
}

}  // namespace
}  // namespace dfi
