// Steady-state allocation checks for the live Packet-in path (DESIGN.md
// §5, §9).
//
// This binary replaces the global operator new with one that counts, and
// asserts that once warm:
//   * a socket-wired proxy session — sinks that hand every frame straight
//     back to the proxy's pool, as a Connection does after its writev —
//     decides, installs and forwards or suppresses table-0 Packet-ins of
//     known flows without one heap allocation;
//   * a manual-mode Connection over a socketpair queues and writes pooled
//     frames without one either.
#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "bus/message_bus.h"
#include "core/dfi_system.h"
#include "net/asyncio/connection.h"
#include "net/packet.h"
#include "openflow/wire.h"
#include "sim/simulator.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocations{0};

// Out of line, so the compiler does not pair a new-expression with a
// visible free() and warn of a mismatch: the replaced operator new below
// allocates with malloc.
[[gnu::noinline]] void release(void* p) noexcept { std::free(p); }

}  // namespace

void* operator new(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }

namespace dfi {
namespace {

// Heap allocations made by fn().
template <typename Fn>
std::uint64_t allocations_during(Fn&& fn) {
  g_allocations.store(0);
  g_counting.store(true);
  fn();
  g_counting.store(false);
  return g_allocations.load();
}

constexpr std::uint16_t kDeniedPort = 23;

std::vector<std::uint8_t> table0_packet_in(std::uint32_t xid, std::uint16_t flow,
                                           std::uint16_t dst_port) {
  PacketInMsg msg;
  msg.table_id = 0;
  msg.in_port = PortNo{static_cast<std::uint32_t>(1 + flow % 4)};
  msg.data = make_tcp_packet(MacAddress::from_u64(0x020000000100ull + flow % 4),
                             MacAddress::from_u64(0x020000000200ull + flow % 8),
                             Ipv4Address(10, 0, 0, static_cast<std::uint8_t>(1 + flow % 4)),
                             Ipv4Address(10, 0, 1, static_cast<std::uint8_t>(1 + flow % 8)),
                             static_cast<std::uint16_t>(40000 + flow), dst_port)
                 .serialize();
  msg.total_len = static_cast<std::uint16_t>(msg.data.size());
  return encode(OfMessage{xid, msg});
}

TEST(DatapathAllocations, WarmPacketInsAllocateNothing) {
  Simulator sim;
  MessageBus bus;
  DfiSystem system(sim, bus, DfiConfig::functional());
  PolicyRule allow;
  allow.action = PolicyAction::kAllow;
  system.policy_manager().insert(allow, PdpPriority{10}, "test");
  PolicyRule deny;
  deny.action = PolicyAction::kDeny;
  deny.destination.l4_port = kDeniedPort;
  system.policy_manager().insert(deny, PdpPriority{20}, "test");

  DfiProxy& proxy = system.proxy();
  std::uint64_t to_switch = 0;
  std::uint64_t to_controller = 0;
  DfiProxy::Session& session = proxy.create_socket_session(
      [&](std::vector<std::uint8_t> frame) {
        ++to_switch;
        proxy.buffer_pool().release(std::move(frame));
      },
      [&](std::vector<std::uint8_t> frame) {
        ++to_controller;
        proxy.buffer_pool().release(std::move(frame));
      });
  const auto feed = [&session](const std::vector<std::uint8_t>& frame) {
    session.switch_frame(FrameView(frame.data(), frame.size()));
  };
  FeaturesReplyMsg features;
  features.datapath_id = Dpid{1};
  features.n_tables = 4;
  feed(encode(OfMessage{1, features}));
  session.switch_batch_end();

  // 32 flows, every fourth one to the denied port; read batches of 20.
  constexpr std::uint16_t kFlows = 32;
  constexpr int kBatch = 20;
  std::vector<std::vector<std::uint8_t>> frames;
  for (std::uint16_t flow = 0; flow < kFlows; ++flow) {
    frames.push_back(table0_packet_in(100 + flow, flow, flow % 4 == 0 ? kDeniedPort : 80));
  }
  std::size_t next = 0;
  const auto run = [&](int packet_ins) {
    for (int sent = 0; sent < packet_ins; sent += kBatch) {
      for (int i = 0; i < kBatch; ++i) feed(frames[next++ % frames.size()]);
      session.switch_batch_end();
    }
  };
  run(4 * kFlows);  // warm: every flow decided, cached and located

  const ProxyStats before = proxy.stats();
  const std::uint64_t switch_before = to_switch;
  const std::uint64_t controller_before = to_controller;
  constexpr int kPacketIns = 1000;
  EXPECT_EQ(allocations_during([&] { run(kPacketIns); }), 0u);

  const ProxyStats& after = proxy.stats();
  // Every Packet-in was decided (one FlowMod each), a quarter denied, and
  // none of them was decoded.
  EXPECT_EQ(to_switch - switch_before, static_cast<std::uint64_t>(kPacketIns));
  EXPECT_EQ(to_controller - controller_before, static_cast<std::uint64_t>(kPacketIns * 3 / 4));
  EXPECT_EQ(after.packet_ins_suppressed - before.packet_ins_suppressed,
            static_cast<std::uint64_t>(kPacketIns / 4));
  EXPECT_EQ(after.frames_fast_path - before.frames_fast_path,
            static_cast<std::uint64_t>(kPacketIns));
  EXPECT_EQ(after.frames_decoded, before.frames_decoded);
  EXPECT_EQ(proxy.buffer_pool().in_use(), 0u);
}

TEST(DatapathAllocations, ConnectionSendAndFlushAllocateNothing) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  for (const int fd : fds) {
    ASSERT_EQ(::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK), 0);
  }
  FrameBufferPool pool;
  net::Connection conn(nullptr, std::make_unique<net::RealSocket>(fds[0]),
                       net::Connection::Config{});
  conn.set_frame_pool(&pool);
  ASSERT_TRUE(conn.start());

  FlowModMsg mod;
  mod.match.in_port = PortNo{1};
  mod.instructions = Instructions::to_table(1);
  const std::vector<std::uint8_t> frame = encode(OfMessage{7, mod});
  std::vector<std::uint8_t> drained(64 * 1024);
  std::uint64_t received = 0;
  const auto round = [&] {
    // A read batch's worth of egress, one writev, then the peer drains.
    for (int i = 0; i < 40; ++i) {
      ASSERT_TRUE(conn.send(pool.acquire_copy(frame.data(), frame.size())));
    }
    conn.flush();
    ssize_t n = 0;
    while ((n = ::read(fds[1], drained.data(), drained.size())) > 0) {
      received += static_cast<std::uint64_t>(n);
    }
  };
  for (int i = 0; i < 8; ++i) round();

  received = 0;
  EXPECT_EQ(allocations_during([&] {
              for (int i = 0; i < 200; ++i) round();
            }),
            0u);
  EXPECT_EQ(received, 200u * 40u * frame.size());
  EXPECT_EQ(conn.pending_egress_frames(), 0u);
  EXPECT_EQ(pool.in_use(), 0u);
  ::close(fds[1]);
}

}  // namespace
}  // namespace dfi
