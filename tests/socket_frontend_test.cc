// SocketFrontend end-to-end tests (DESIGN.md §9): a real DfiSystem served
// over loopback TCP, with raw-socket switch/controller stubs on the test
// thread. Covers session establishment through the OpenFlow handshake, the
// differential proof that the socket path emits byte-identical streams to
// the in-process Session path, reconnect-with-Table-0-resync through the
// supervised backoff, and fail-secure teardown with frames in flight.
//
// Also pins the live-path contract (DESIGN.md §9): Packet-ins over a socket
// do no simulator work, one read batch is admitted only up to the PCP's
// queue_capacity, fail-secure past it, and the HealthMonitor's deadlines
// (the recovering dwell after a boot recovery, a component's heartbeat)
// elapse on wall time, evaluated by the frontend's tick alone.
//
// Single-threaded: the event loop is pumped from the test thread.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bus/message_bus.h"
#include "core/dfi_system.h"
#include "core/journal.h"
#include "net/asyncio/event_loop.h"
#include "net/asyncio/frontend.h"
#include "net/packet.h"
#include "openflow/messages.h"
#include "openflow/wire.h"
#include "sim/simulator.h"

namespace dfi::net {
namespace {

// --------------------------------------------------------------- raw stubs

int nonblocking(int fd) {
  make_nonblocking(fd);
  return fd;
}

// One raw byte-stream endpoint driven from the test thread.
struct RawPeer {
  int fd = -1;
  std::vector<std::uint8_t> received;
  bool eof = false;

  RawPeer() = default;
  RawPeer(RawPeer&& other) noexcept
      : fd(other.fd), received(std::move(other.received)), eof(other.eof) {
    other.fd = -1;
  }
  RawPeer& operator=(RawPeer&&) = delete;
  RawPeer(const RawPeer&) = delete;
  RawPeer& operator=(const RawPeer&) = delete;
  ~RawPeer() { close(); }
  int release() {
    const int out = fd;
    fd = -1;
    return out;
  }
  void close() {
    if (fd >= 0) ::close(fd);
    fd = -1;
  }
  void send_frame(const std::vector<std::uint8_t>& frame) {
    ASSERT_GE(fd, 0);
    std::size_t off = 0;
    while (off < frame.size()) {
      const ssize_t n = ::send(fd, frame.data() + off, frame.size() - off, MSG_NOSIGNAL);
      ASSERT_GT(n, 0);
      off += static_cast<std::size_t>(n);
    }
  }
  void drain() {
    if (fd < 0) return;
    std::uint8_t buf[4096];
    ssize_t n;
    while ((n = ::recv(fd, buf, sizeof buf, MSG_DONTWAIT)) > 0) {
      received.insert(received.end(), buf, buf + n);
    }
    if (n == 0) eof = true;
  }
};

// The "real controller": a loopback listener the frontend dials.
struct ControllerStub {
  int listen_fd = -1;
  std::uint16_t port = 0;
  std::vector<std::unique_ptr<RawPeer>> links;  // one per frontend dial

  bool start() {
    listen_fd = nonblocking(::socket(AF_INET, SOCK_STREAM, 0));
    if (listen_fd < 0) return false;
    const int on = 1;
    ::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &on, sizeof on);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      return false;
    }
    if (::listen(listen_fd, 8) != 0) return false;
    socklen_t len = sizeof addr;
    if (::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
      return false;
    }
    port = ntohs(addr.sin_port);
    return true;
  }
  ~ControllerStub() {
    if (listen_fd >= 0) ::close(listen_fd);
  }
  void pump() {
    if (listen_fd >= 0) {
      int fd;
      while ((fd = ::accept(listen_fd, nullptr, nullptr)) >= 0) {
        auto link = std::make_unique<RawPeer>();
        link->fd = nonblocking(fd);
        links.push_back(std::move(link));
      }
    }
    for (auto& link : links) link->drain();
  }
  RawPeer* link() { return links.empty() ? nullptr : links.back().get(); }
};

RawPeer connect_switch(std::uint16_t port) {
  RawPeer peer;
  peer.fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(peer.fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::connect(peer.fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  return peer;
}

// ------------------------------------------------------------- the fixture

struct FrontendWorld {
  Simulator sim;
  MessageBus bus;
  DfiSystem system;
  EventLoop loop;
  ControllerStub controller;
  std::unique_ptr<SocketFrontend> frontend;
  std::uint16_t port = 0;

  explicit FrontendWorld(DfiConfig config = DfiConfig::functional())
      : system(sim, bus, config) {}

  bool start(FrontendConfig config = {}) {
    if (!controller.start()) return false;
    config.controller_port = controller.port;
    frontend = std::make_unique<SocketFrontend>(loop, system, config);
    auto bound = frontend->start();
    if (!bound.ok()) return false;
    port = bound.value();
    return true;
  }

  template <typename Cond>
  bool pump_until(Cond cond, int timeout_ms = 3000) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    for (;;) {
      controller.pump();
      if (cond()) return true;
      if (std::chrono::steady_clock::now() > deadline) return false;
      loop.run_once(2);
    }
  }
};

// --------------------------------------------------------------- the script
//
// A deterministic handshake-plus-traffic exchange, replayable against
// either transport. Each step is one frame from one side; quiescing
// between steps keeps the cross-direction interleaving identical.

struct Step {
  bool from_switch;
  std::vector<std::uint8_t> frame;
};

std::vector<Step> handshake_script(std::uint64_t dpid) {
  std::vector<Step> script;
  script.push_back({true, encode(OfMessage{1, HelloMsg{}})});
  script.push_back({false, encode(OfMessage{100, FeaturesRequestMsg{}})});
  FeaturesReplyMsg features;
  features.datapath_id = Dpid{dpid};
  features.n_buffers = 256;
  features.n_tables = 4;
  script.push_back({true, encode(OfMessage{100, features})});
  return script;
}

std::vector<Step> traffic_script(std::uint64_t dpid) {
  auto script = handshake_script(dpid);
  // Passthrough Packet-in from a non-DFI table (arrives table-shifted).
  PacketInMsg pin;
  pin.reason = PacketInReason::kAction;
  pin.table_id = 2;
  pin.in_port = PortNo{7};
  pin.data = {0x01, 0x02, 0x03, 0x04};
  script.push_back({true, encode(OfMessage{2, pin})});
  // Controller-side echo passthrough.
  script.push_back({false, encode(OfMessage{101, EchoRequestMsg{{0x42}}})});
  // Controller Flow-mod: table references must be shifted toward the switch.
  FlowModMsg mod;
  mod.table_id = 0;
  mod.priority = 10;
  mod.match.eth_type = 0x0800;
  mod.instructions.goto_table = 1;
  script.push_back({false, encode(OfMessage{102, mod})});
  // Table-0 miss: routed to the PCP, never forwarded undecided.
  PacketInMsg miss;
  miss.reason = PacketInReason::kNoMatch;
  miss.table_id = 0;
  miss.in_port = PortNo{3};
  miss.data = {0xaa, 0xbb, 0xcc, 0xdd, 0xee, 0xff};
  script.push_back({true, encode(OfMessage{3, miss})});
  return script;
}

// Replay the script against a plain in-process Session: the reference
// streams the socket transport must reproduce byte for byte. Returns the
// cumulative (to_switch, to_controller) byte counts after each step.
struct ReferenceRun {
  std::vector<std::uint8_t> to_switch;
  std::vector<std::uint8_t> to_controller;
  std::vector<std::pair<std::size_t, std::size_t>> checkpoints;
};

ReferenceRun run_reference(const std::vector<Step>& script, DfiConfig config) {
  Simulator sim;
  MessageBus bus;
  DfiSystem system(sim, bus, config);
  ReferenceRun run;
  auto& session = system.proxy().create_session(
      [&](const std::vector<std::uint8_t>& bytes) {
        run.to_switch.insert(run.to_switch.end(), bytes.begin(), bytes.end());
      },
      [&](const std::vector<std::uint8_t>& bytes) {
        run.to_controller.insert(run.to_controller.end(), bytes.begin(),
                                 bytes.end());
      });
  for (const auto& step : script) {
    if (step.from_switch) {
      session.from_switch(step.frame);
    } else {
      session.from_controller(step.frame);
    }
    sim.run();
    run.checkpoints.emplace_back(run.to_switch.size(), run.to_controller.size());
  }
  system.proxy().destroy_session(session);
  return run;
}

// ----------------------------------------------------------------- tests

TEST(SocketFrontendTest, HandshakeEstablishesSessionAndPatchesFeatures) {
  FrontendWorld world;
  ASSERT_TRUE(world.start());

  RawPeer sw = connect_switch(world.port);
  ASSERT_TRUE(world.pump_until(
      [&] { return world.frontend->stats().sessions_opened == 1; }));
  ASSERT_NE(world.controller.link(), nullptr);

  for (const auto& step : handshake_script(0x51)) {
    if (step.from_switch) {
      sw.send_frame(step.frame);
    } else {
      world.controller.link()->send_frame(step.frame);
    }
  }
  // The controller must see HELLO + FEATURES_REPLY; the reply advertises
  // one table fewer (Table 0 is DFI's, invisible).
  ASSERT_TRUE(world.pump_until([&] {
    world.controller.link()->drain();
    return world.controller.link()->received.size() >= 16;
  }));
  FrameDecoder decoder;
  decoder.feed(world.controller.link()->received);
  auto frames = decoder.drain();
  ASSERT_GE(frames.size(), 2u);
  ASSERT_TRUE(frames[0].ok());
  EXPECT_EQ(frames[0].value().type(), OfType::kHello);
  ASSERT_TRUE(frames[1].ok());
  ASSERT_EQ(frames[1].value().type(), OfType::kFeaturesReply);
  const auto& reply = std::get<FeaturesReplyMsg>(frames[1].value().payload);
  EXPECT_EQ(reply.datapath_id.value, 0x51u);
  EXPECT_EQ(reply.n_tables, 3);  // 4 physical tables, one hidden

  // First registration of a dpid does not resync (nothing stale to clear);
  // the reconnect test covers the resync path.
  EXPECT_EQ(world.system.pcp().stats().resync_clears, 0u);
  EXPECT_EQ(world.system.proxy().session_count(), 1u);
}

// The tentpole differential proof: the same script, played over real
// sockets, must produce byte-identical streams to the in-process Session.
TEST(SocketFrontendTest, SocketPathByteIdenticalToInProcessPath) {
  const auto script = traffic_script(0x7a);
  const ReferenceRun reference = run_reference(script, DfiConfig::functional());

  FrontendWorld world;
  ASSERT_TRUE(world.start());
  RawPeer sw = connect_switch(world.port);
  ASSERT_TRUE(world.pump_until(
      [&] { return world.frontend->stats().sessions_opened == 1; }));

  std::size_t step_index = 0;
  for (const auto& step : script) {
    if (step.from_switch) {
      sw.send_frame(step.frame);
    } else {
      world.controller.link()->send_frame(step.frame);
    }
    // Quiesce: both output streams must reach the reference checkpoint.
    const auto [switch_bytes, controller_bytes] = reference.checkpoints[step_index];
    ASSERT_TRUE(world.pump_until([&] {
      sw.drain();
      return sw.received.size() >= switch_bytes &&
             world.controller.link()->received.size() >= controller_bytes;
    })) << "step " << step_index << ": socket path produced "
        << sw.received.size() << "/" << switch_bytes << " switch bytes, "
        << world.controller.link()->received.size() << "/" << controller_bytes
        << " controller bytes";
    ++step_index;
  }

  sw.drain();
  world.controller.pump();
  EXPECT_EQ(sw.received, reference.to_switch);
  EXPECT_EQ(world.controller.link()->received, reference.to_controller);
  // Pooled socket egress buffers all returned after their writes.
  EXPECT_TRUE(world.pump_until(
      [&] { return world.system.proxy().buffer_pool().in_use() == 0; }));
}

TEST(SocketFrontendTest, SwitchReconnectReplaysHandshakeAndResyncsTable0) {
  FrontendWorld world;
  ASSERT_TRUE(world.start());

  auto handshake = [&](RawPeer& sw, std::uint64_t expect_sessions) {
    ASSERT_TRUE(world.pump_until([&] {
      return world.frontend->stats().sessions_opened == expect_sessions;
    }));
    for (const auto& step : handshake_script(0x9)) {
      if (step.from_switch) {
        sw.send_frame(step.frame);
      } else {
        world.controller.link()->send_frame(step.frame);
      }
    }
    ASSERT_TRUE(world.pump_until([&] {
      world.controller.link()->drain();
      return world.controller.link()->received.size() >= 16;
    }));
  };

  RawPeer sw = connect_switch(world.port);
  handshake(sw, 1);
  const std::uint64_t resyncs_after_first = world.system.pcp().stats().resync_clears;
  EXPECT_EQ(resyncs_after_first, 0u);  // first registration: nothing to clear

  // The switch dies abruptly. The frontend severs the whole peer: session
  // destroyed, controller link closed (the stub sees EOF).
  sw.close();
  ASSERT_TRUE(world.pump_until(
      [&] { return world.frontend->stats().sessions_closed == 1; }));
  EXPECT_EQ(world.system.proxy().session_count(), 0u);
  ASSERT_TRUE(world.pump_until([&] {
    world.controller.link()->drain();
    return world.controller.link()->eof;
  }));
  ASSERT_TRUE(world.pump_until([&] { return world.frontend->peer_count() == 0; }));

  // Reconnect: a fresh dial reaches the controller stub (a second link),
  // the handshake replays, and registration resyncs Table 0 again.
  RawPeer sw2 = connect_switch(world.port);
  handshake(sw2, 2);
  EXPECT_GT(world.system.pcp().stats().resync_clears, resyncs_after_first);
  EXPECT_EQ(world.system.proxy().session_count(), 1u);
  EXPECT_EQ(world.frontend->stats().sessions_opened, 2u);
  EXPECT_EQ(world.controller.links.size(), 2u);
}

TEST(SocketFrontendTest, ControllerUnreachableSeversSwitchAfterCappedBackoff) {
  DfiConfig config = DfiConfig::functional();
  config.health.enabled = true;
  config.health.backoff_base = milliseconds(1.0);
  config.health.backoff_cap = milliseconds(4.0);
  config.health.max_reconnect_attempts = 2;
  FrontendWorld world(config);
  ASSERT_TRUE(world.start());
  // Kill the controller endpoint before any switch arrives.
  ::close(world.controller.listen_fd);
  world.controller.listen_fd = -1;

  RawPeer sw = connect_switch(world.port);
  ASSERT_TRUE(world.pump_until(
      [&] { return world.frontend->stats().controller_dials_failed == 1; }));
  // Fail-secure: the switch is severed, no session ever existed.
  ASSERT_TRUE(world.pump_until([&] {
    sw.drain();
    return sw.eof;
  }));
  EXPECT_EQ(world.frontend->stats().sessions_opened, 0u);
  EXPECT_EQ(world.system.proxy().session_count(), 0u);
  // The degraded window opened while the link was down and closed on
  // abandonment; the attempt ledger is in HealthStats.
  EXPECT_EQ(world.system.health().stats().reconnects_abandoned, 1u);
  EXPECT_GE(world.system.health().stats().backoff_retries, 1u);
  EXPECT_EQ(world.system.health().degraded_refs(), 0u);
}

// Regression: an egress-overflow sever is requested from inside the
// session's own SendFn. Destroying the session there would free the
// std::function currently executing (and the deferred-delivery closure
// behind it) — the teardown must be deferred off the SendFn stack.
TEST(SocketFrontendTest, EgressOverflowSeversOffTheSendFnStack) {
  FrontendWorld world;
  FrontendConfig config;
  // A zero-capacity egress queue makes the very first delivery overflow.
  config.conman.connection.max_egress_frames = 0;
  ASSERT_TRUE(world.start(config));

  RawPeer sw = connect_switch(world.port);
  ASSERT_TRUE(world.pump_until(
      [&] { return world.frontend->stats().sessions_opened == 1; }));
  sw.send_frame(encode(OfMessage{1, HelloMsg{}}));

  // The Hello's passthrough delivery toward the controller is rejected,
  // severing the peer: session destroyed on a later loop turn, both
  // sockets closed, and every pooled buffer home again.
  ASSERT_TRUE(world.pump_until(
      [&] { return world.frontend->stats().sessions_closed == 1; }));
  ASSERT_TRUE(world.pump_until([&] { return world.frontend->peer_count() == 0; }));
  EXPECT_EQ(world.system.proxy().session_count(), 0u);
  ASSERT_TRUE(world.pump_until([&] {
    sw.drain();
    return sw.eof;
  }));
  ASSERT_TRUE(world.pump_until(
      [&] { return world.system.proxy().buffer_pool().in_use() == 0; }));
}

TEST(SocketFrontendTest, TeardownWithFramesInFlightHoldsLivenessToken) {
  FrontendWorld world;
  ASSERT_TRUE(world.start());
  RawPeer sw = connect_switch(world.port);
  ASSERT_TRUE(world.pump_until(
      [&] { return world.frontend->stats().sessions_opened == 1; }));
  for (const auto& step : handshake_script(0x33)) {
    if (step.from_switch) {
      sw.send_frame(step.frame);
    } else {
      world.controller.link()->send_frame(step.frame);
    }
  }
  ASSERT_TRUE(world.pump_until([&] {
    world.controller.link()->drain();
    return world.controller.link()->received.size() >= 16;
  }));

  // Blast table-0 misses (each one turns into an in-flight PCP decision
  // and deferred deliveries holding pooled buffers), then kill the switch
  // mid-flood without reading a single response.
  PacketInMsg miss;
  miss.reason = PacketInReason::kNoMatch;
  miss.table_id = 0;
  miss.in_port = PortNo{1};
  miss.data = std::vector<std::uint8_t>(64, 0x5a);
  for (std::uint32_t i = 0; i < 200; ++i) {
    sw.send_frame(encode(OfMessage{1000 + i, miss}));
  }
  sw.close();

  // The sever must not crash into freed session state (the liveness token
  // no-ops outstanding deliveries) and every pooled buffer must come home.
  ASSERT_TRUE(world.pump_until(
      [&] { return world.frontend->stats().sessions_closed == 1; }));
  ASSERT_TRUE(world.pump_until([&] { return world.frontend->peer_count() == 0; }));
  ASSERT_TRUE(world.pump_until(
      [&] { return world.system.proxy().buffer_pool().in_use() == 0; }));
  EXPECT_EQ(world.system.proxy().session_count(), 0u);

  // The frontend stays serviceable: a fresh switch can connect and bind.
  RawPeer sw2 = connect_switch(world.port);
  ASSERT_TRUE(world.pump_until(
      [&] { return world.frontend->stats().sessions_opened == 2; }));
}

// ------------------------------------------------- the live-path contract

PolicyRule allow_all_rule() {
  PolicyRule allow_all;
  allow_all.action = PolicyAction::kAllow;
  return allow_all;
}

// A bound session with an allow-all policy: every parsable table-0 miss is
// decided, installed and forwarded.
struct LiveSession {
  FrontendWorld world;
  RawPeer sw;

  explicit LiveSession(DfiConfig config = DfiConfig::functional()) : world(config) {}

  // Start the frontend and complete one switch's handshake.
  bool connect(std::uint64_t dpid) {
    if (!world.start()) return false;
    sw.fd = connect_switch(world.port).release();
    if (!world.pump_until(
            [&] { return world.frontend->stats().sessions_opened == 1; })) {
      return false;
    }
    for (const auto& step : handshake_script(dpid)) {
      if (step.from_switch) {
        sw.send_frame(step.frame);
      } else {
        world.controller.link()->send_frame(step.frame);
      }
    }
    return world.pump_until([&] {
      world.controller.link()->drain();
      return world.controller.link()->received.size() >= 16;
    });
  }

  bool open(std::uint64_t dpid) {
    if (!connect(dpid)) return false;
    world.system.policy_manager().insert(allow_all_rule(), PdpPriority{1}, "allow-all");
    return true;
  }

  static std::vector<std::uint8_t> miss(std::uint32_t xid, std::uint16_t sport) {
    PacketInMsg pin;
    pin.reason = PacketInReason::kNoMatch;
    pin.table_id = 0;
    pin.in_port = PortNo{1};
    pin.data = make_tcp_packet(MacAddress::from_u64(0x10), MacAddress::from_u64(0x20),
                               Ipv4Address(10, 0, 0, 1), Ipv4Address(10, 0, 0, 2),
                               sport, 80)
                   .serialize();
    return encode(OfMessage{xid, pin});
  }

  // Table-0 FlowMods of one command the switch has read (kAdd: installs;
  // kDelete: flushes and resync clears) / xids the controller has read.
  std::size_t table0_mods(FlowModCommand command) {
    sw.drain();
    std::size_t n = 0;
    for_each_frame(sw.received, [&n, command](const OfMessage& message) {
      const auto* mod = std::get_if<FlowModMsg>(&message.payload);
      if (mod != nullptr && mod->command == command && mod->table_id == 0) ++n;
    });
    return n;
  }
  std::size_t installs() { return table0_mods(FlowModCommand::kAdd); }
  std::vector<std::uint32_t> forwarded() {
    world.controller.pump();
    std::vector<std::uint32_t> xids;
    for_each_frame(world.controller.link()->received, [&xids](const OfMessage& message) {
      if (std::holds_alternative<PacketInMsg>(message.payload)) xids.push_back(message.xid);
    });
    return xids;
  }

  template <typename Fn>
  static void for_each_frame(const std::vector<std::uint8_t>& bytes, Fn fn) {
    FrameDecoder decoder;
    decoder.feed(bytes);
    for (auto& result : decoder.drain()) {
      if (result.ok()) fn(result.value());
    }
  }
};

TEST(SocketFrontendTest, LivePacketInsScheduleNoSimulatorWork) {
  LiveSession live;
  ASSERT_TRUE(live.open(0x61));
  ASSERT_TRUE(live.world.pump_until([&] { return live.world.sim.empty(); }));
  const std::uint64_t executed = live.world.sim.executed();

  constexpr std::uint32_t kExchanges = 16;
  for (std::uint32_t i = 0; i < kExchanges; ++i) {
    live.sw.send_frame(LiveSession::miss(2000 + i, static_cast<std::uint16_t>(3000 + i)));
    ASSERT_TRUE(live.world.pump_until([&] {
      return live.installs() == i + 1 && live.forwarded().size() == i + 1;
    })) << "exchange " << i;
  }
  EXPECT_EQ(live.world.system.pcp().stats().allowed, kExchanges);
  EXPECT_EQ(live.world.sim.executed(), executed);
  EXPECT_TRUE(live.world.sim.empty());
}

TEST(SocketFrontendTest, ReadBatchAdmissionBoundIsFailSecure) {
  LiveSession live;
  ASSERT_TRUE(live.open(0x62));
  const std::size_t capacity = PcpConfig{}.queue_capacity;

  // One write, read by the frontend in one readv: a single read batch of
  // queue_capacity + 1 table-0 misses.
  std::vector<std::uint8_t> burst;
  for (std::uint32_t i = 0; i <= capacity; ++i) {
    const auto frame = LiveSession::miss(4000 + i, static_cast<std::uint16_t>(5000 + i));
    burst.insert(burst.end(), frame.begin(), frame.end());
  }
  live.sw.send_frame(burst);
  ASSERT_TRUE(live.world.pump_until([&] {
    return live.installs() >= capacity && live.forwarded().size() >= capacity;
  }));
  // Give a stray 33rd delivery every chance to show up.
  for (int i = 0; i < 20; ++i) live.world.loop.run_once(1);

  const PcpStats& stats = live.world.system.pcp().stats();
  EXPECT_EQ(stats.packet_ins, capacity + 1);
  EXPECT_EQ(stats.allowed, capacity);
  EXPECT_EQ(stats.dropped_overload, 1u);
  EXPECT_EQ(live.installs(), capacity);
  // Exactly the decided xids reached the controller; the excess one never
  // did, undecided or otherwise.
  const std::vector<std::uint32_t> xids = live.forwarded();
  ASSERT_EQ(xids.size(), capacity);
  for (std::uint32_t i = 0; i < capacity; ++i) EXPECT_EQ(xids[i], 4000 + i);
  EXPECT_EQ(live.world.system.proxy().stats().packet_ins_suppressed, 1u);
}

// ------------------------------------------------ live deadlines, wall time

// A deployment that recovers its store at boot, then serves: the system is
// built as the loopback benchmark builds it (DfiSystem over a Simulator,
// DfiConfig::functional()), with monitoring on. recover_from() runs before
// the frontend exists, so the recovering dwell starts on the simulator's
// clock; the frontend moves it to wall time, where it elapses with nothing
// but the event loop running.
TEST(SocketFrontendTest, BootRecoveryDwellElapsesOnWallTime) {
  InMemoryJournalStore store;
  {
    Simulator sim;
    MessageBus bus;
    DfiSystem writer(sim, bus, DfiConfig::functional());
    Journal journal(store);
    writer.enable_durability(journal);
    writer.policy_manager().insert(allow_all_rule(), PdpPriority{1}, "allow-all");
  }

  DfiConfig config = DfiConfig::functional();
  config.health.enabled = true;
  config.health.recovering_hold = milliseconds(250.0);
  LiveSession live(config);
  Journal journal(store);
  const auto recovery = live.world.system.recover_from(journal);
  ASSERT_TRUE(recovery.ok()) << recovery.error().message;
  ASSERT_EQ(live.world.system.health().state(), HealthState::kRecovering);
  const auto frontend_started = std::chrono::steady_clock::now();
  ASSERT_TRUE(live.connect(0x71));

  // Right after the frontend starts the dwell still gates: a table-0 miss
  // is suppressed fail-secure, never decided or forwarded.
  live.sw.send_frame(LiveSession::miss(6000, 6000));
  ASSERT_TRUE(live.world.pump_until(
      [&] { return live.world.system.proxy().stats().degraded_suppressed == 1; }));
  EXPECT_EQ(live.world.system.pcp().stats().packet_ins, 0u);

  // Once the dwell has passed on wall time the frontend's tick declares the
  // plane healthy, and the return to kHealthy resyncs Table 0 on the wire.
  ASSERT_TRUE(live.world.pump_until(
      [&] { return live.table0_mods(FlowModCommand::kDelete) == 1; }));
  EXPECT_GE(std::chrono::steady_clock::now() - frontend_started,
            std::chrono::milliseconds(250));
  EXPECT_EQ(live.world.system.health().state(), HealthState::kHealthy);
  EXPECT_EQ(live.world.system.pcp().stats().resync_clears, 1u);

  // The next table-0 miss is decided against the recovered policy,
  // installed and forwarded.
  live.sw.send_frame(LiveSession::miss(6001, 6001));
  ASSERT_TRUE(live.world.pump_until([&] {
    return live.installs() == 1 && live.forwarded().size() == 1;
  }));
  EXPECT_EQ(live.forwarded().front(), 6001u);
  EXPECT_EQ(live.world.system.pcp().stats().allowed, 1u);
  EXPECT_EQ(live.world.system.proxy().stats().degraded_suppressed, 1u);
}

// A watched component that stops beating degrades the plane once its
// deadline has passed on wall time, through the frontend's tick alone; a
// beat recovers it.
TEST(SocketFrontendTest, SilentComponentDegradesOnWallTimeThroughTheTick) {
  DfiConfig config = DfiConfig::functional();
  config.health.enabled = true;
  config.health.heartbeat_deadline = milliseconds(100.0);
  config.health.recovering_hold = seconds(0.0);  // a beat recovers at once
  LiveSession live(config);
  ASSERT_TRUE(live.open(0x72));
  HealthMonitor& health = live.world.system.health();

  health.watch("sensor.siem");
  const auto watched = std::chrono::steady_clock::now();
  ASSERT_EQ(health.state(), HealthState::kHealthy);
  ASSERT_TRUE(live.world.pump_until(
      [&] { return health.state() == HealthState::kDegraded; }));
  EXPECT_GE(std::chrono::steady_clock::now() - watched, std::chrono::milliseconds(100));
  EXPECT_GE(health.stats().deadline_misses, 1u);

  // Fail-secure while degraded: the miss never reaches the PCP or the
  // controller.
  live.sw.send_frame(LiveSession::miss(7000, 7000));
  ASSERT_TRUE(live.world.pump_until(
      [&] { return live.world.system.proxy().stats().degraded_suppressed == 1; }));
  EXPECT_EQ(live.world.system.pcp().stats().packet_ins, 0u);
  EXPECT_TRUE(live.forwarded().empty());

  // The feed beats again: the plane recovers and resyncs Table 0.
  live.world.bus.publish(topics::kHealthHeartbeats, HeartbeatEvent{"sensor.siem"});
  EXPECT_EQ(health.state(), HealthState::kHealthy);
  EXPECT_EQ(health.stats().degraded_exits, 1u);
  ASSERT_TRUE(live.world.pump_until(
      [&] { return live.table0_mods(FlowModCommand::kDelete) == 1; }));
}

}  // namespace
}  // namespace dfi::net
