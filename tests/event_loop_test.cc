// EventLoop reactor tests (DESIGN.md §9): fd readiness dispatch under both
// backends (edge-triggered epoll and the level-triggered poll fallback),
// the hashed timer wheel, and the cross-thread post()/wakeup path.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "net/asyncio/event_loop.h"
#include "net/asyncio/socket_ops.h"

namespace dfi::net {
namespace {

EventLoopConfig config_for(EventLoopConfig::Backend backend) {
  EventLoopConfig config;
  config.backend = backend;
  return config;
}

struct Pipe {
  int read_fd = -1;
  int write_fd = -1;
  Pipe() {
    int fds[2] = {-1, -1};
    EXPECT_EQ(::pipe(fds), 0);
    read_fd = fds[0];
    write_fd = fds[1];
    make_nonblocking(read_fd);
    make_nonblocking(write_fd);
  }
  ~Pipe() {
    if (read_fd >= 0) ::close(read_fd);
    if (write_fd >= 0) ::close(write_fd);
  }
};

// Pump until `cond` holds or ~2s of wall clock elapse.
template <typename Cond>
bool pump_until(EventLoop& loop, Cond cond, int slice_ms = 5) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  while (!cond()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    loop.run_once(slice_ms);
  }
  return true;
}

class EventLoopBackendTest
    : public ::testing::TestWithParam<EventLoopConfig::Backend> {};

TEST_P(EventLoopBackendTest, DispatchesReadableFd) {
  EventLoop loop(config_for(GetParam()));
  Pipe pipe;
  std::string received;
  ASSERT_TRUE(loop.add_fd(pipe.read_fd, /*want_read=*/true, /*want_write=*/false,
                          [&](bool readable, bool, bool) {
                            if (!readable) return;
                            char buf[64];
                            ssize_t n;
                            // Loop to EAGAIN: required under edge triggering.
                            while ((n = ::read(pipe.read_fd, buf, sizeof buf)) > 0) {
                              received.append(buf, static_cast<std::size_t>(n));
                            }
                          }));
  ASSERT_EQ(::write(pipe.write_fd, "hello", 5), 5);
  EXPECT_TRUE(pump_until(loop, [&] { return received == "hello"; }));

  // Edge re-arm: a second burst after the first drain must also dispatch.
  ASSERT_EQ(::write(pipe.write_fd, "again", 5), 5);
  EXPECT_TRUE(pump_until(loop, [&] { return received == "helloagain"; }));
  loop.remove_fd(pipe.read_fd);
  EXPECT_EQ(loop.fd_count(), 0u);
}

TEST_P(EventLoopBackendTest, SetInterestTogglesWritability) {
  EventLoop loop(config_for(GetParam()));
  Pipe pipe;
  int write_events = 0;
  ASSERT_TRUE(loop.add_fd(pipe.write_fd, /*want_read=*/false,
                          /*want_write=*/false,
                          [&](bool, bool writable, bool) {
                            if (writable) ++write_events;
                          }));
  // No write interest: an empty pipe must not spin writability events.
  for (int i = 0; i < 5; ++i) loop.run_once(1);
  EXPECT_EQ(write_events, 0);

  ASSERT_TRUE(loop.set_interest(pipe.write_fd, false, true));
  EXPECT_TRUE(pump_until(loop, [&] { return write_events > 0; }));
  loop.remove_fd(pipe.write_fd);
}

TEST_P(EventLoopBackendTest, RemoveFdDuringDispatchIsSafe) {
  // A handler that removes its own fd (the close path) must not leave a
  // dangling dispatch for the same poll round.
  EventLoop loop(config_for(GetParam()));
  Pipe a;
  Pipe b;
  int a_events = 0;
  int b_events = 0;
  ASSERT_TRUE(loop.add_fd(a.read_fd, true, false, [&](bool, bool, bool) {
    ++a_events;
    char buf[16];
    while (::read(a.read_fd, buf, sizeof buf) > 0) {
    }
    // Remove the *other* fd mid-dispatch: any event queued for it in this
    // same batch must be dropped via the generation check, not delivered to
    // a dead entry (delivery order within a batch is backend-defined, so b
    // may legally have fired once already — but never after removal).
    loop.remove_fd(b.read_fd);
  }));
  ASSERT_TRUE(loop.add_fd(b.read_fd, true, false, [&](bool, bool, bool) {
    ++b_events;
    char buf[16];
    while (::read(b.read_fd, buf, sizeof buf) > 0) {
    }
  }));
  ASSERT_EQ(::write(a.write_fd, "x", 1), 1);
  ASSERT_EQ(::write(b.write_fd, "x", 1), 1);
  EXPECT_TRUE(pump_until(loop, [&] { return a_events > 0; }));
  const int b_events_at_removal = b_events;
  EXPECT_LE(b_events_at_removal, 1);
  ASSERT_EQ(::write(b.write_fd, "x", 1), 1);  // readiness after removal
  for (int i = 0; i < 5; ++i) loop.run_once(1);
  EXPECT_EQ(b_events, b_events_at_removal);
  EXPECT_EQ(loop.fd_count(), 1u);
  loop.remove_fd(a.read_fd);
}

TEST_P(EventLoopBackendTest, TimerWheelFiresInDeadlineOrder) {
  EventLoop loop(config_for(GetParam()));
  std::vector<int> fired;
  loop.schedule_after_ms(30, [&] { fired.push_back(3); });
  loop.schedule_after_ms(1, [&] { fired.push_back(1); });
  loop.schedule_after_ms(10, [&] { fired.push_back(2); });
  EXPECT_EQ(loop.timer_count(), 3u);
  EXPECT_TRUE(pump_until(loop, [&] { return fired.size() == 3u; }));
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(loop.timer_count(), 0u);
  EXPECT_GE(loop.stats().timers_fired, 3u);
}

TEST_P(EventLoopBackendTest, CancelTimerPreventsFire) {
  EventLoop loop(config_for(GetParam()));
  bool fired = false;
  const auto id = loop.schedule_after_ms(1, [&] { fired = true; });
  loop.cancel_timer(id);
  EXPECT_EQ(loop.timer_count(), 0u);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(30);
  while (std::chrono::steady_clock::now() < deadline) loop.run_once(5);
  EXPECT_FALSE(fired);
  loop.cancel_timer(id);  // cancelling twice is a no-op
}

TEST_P(EventLoopBackendTest, WheelHandlesCollidingSlots) {
  // Deadlines 256 ms apart hash to the same wheel slot; both must fire at
  // their own deadline, not together.
  EventLoop loop(config_for(GetParam()));
  std::vector<std::uint64_t> fire_times;
  const std::uint64_t start = loop.now_ms();
  loop.schedule_after_ms(2, [&] { fire_times.push_back(loop.now_ms() - start); });
  loop.schedule_after_ms(2 + 256, [&] { fire_times.push_back(loop.now_ms() - start); });
  EXPECT_TRUE(pump_until(loop, [&] { return fire_times.size() == 1u; }));
  // The far timer (same slot) must still be pending.
  EXPECT_EQ(loop.timer_count(), 1u);
  EXPECT_LT(fire_times[0], 200u);
  loop.cancel_timer(0);  // unknown id: no-op
}

TEST_P(EventLoopBackendTest, DeadlineBeyondWheelHorizonDoesNotFireEarly) {
  // A deadline further out than the 256-slot horizon wraps onto a slot
  // that comes due many rotations earlier; the wheel must compare absolute
  // deadlines, not slot membership.
  EventLoop loop(config_for(GetParam()));
  const std::uint64_t start = loop.now_ms();
  bool near_fired = false;
  bool far_fired = false;
  std::uint64_t far_fire_at = 0;
  loop.schedule_after_ms(5, [&] { near_fired = true; });
  loop.schedule_after_ms(300, [&] {
    far_fired = true;
    far_fire_at = loop.now_ms() - start;
  });
  EXPECT_TRUE(pump_until(loop, [&] { return near_fired; }));
  // The far timer survived the rotation that fired the near one.
  EXPECT_FALSE(far_fired);
  EXPECT_EQ(loop.timer_count(), 1u);
  EXPECT_TRUE(pump_until(loop, [&] { return far_fired; }));
  EXPECT_GE(far_fire_at, 300u);
  EXPECT_EQ(loop.timer_count(), 0u);
}

TEST_P(EventLoopBackendTest, CancelTimerFromInsideFiringCallback) {
  // Cancelling a pending timer from within another timer's callback must
  // take effect (and cancelling yourself mid-fire must be a safe no-op).
  EventLoop loop(config_for(GetParam()));
  bool victim_fired = false;
  bool canceller_fired = false;
  EventLoop::TimerId victim = 0;
  EventLoop::TimerId canceller = 0;
  victim = loop.schedule_after_ms(60, [&] { victim_fired = true; });
  canceller = loop.schedule_after_ms(1, [&] {
    canceller_fired = true;
    loop.cancel_timer(victim);     // not yet due: must never fire
    loop.cancel_timer(canceller);  // self, already extracted: safe no-op
  });
  EXPECT_TRUE(pump_until(loop, [&] { return canceller_fired; }));
  EXPECT_EQ(loop.timer_count(), 0u);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(120);
  while (std::chrono::steady_clock::now() < deadline) loop.run_once(5);
  EXPECT_FALSE(victim_fired);
}

TEST_P(EventLoopBackendTest, ManyTimersInOneSlotAllFire) {
  // Pile deadlines that hash to one wheel slot (multiples of 256 ms apart
  // plus a shared base) alongside a burst at the same near deadline: every
  // one must fire exactly once, in deadline order for distinct deadlines.
  EventLoop loop(config_for(GetParam()));
  int same_deadline_fires = 0;
  for (int i = 0; i < 32; ++i) {
    loop.schedule_after_ms(2, [&] { ++same_deadline_fires; });
  }
  std::vector<int> order;
  loop.schedule_after_ms(2 + 256, [&] { order.push_back(1); });
  loop.schedule_after_ms(2 + 512, [&] { order.push_back(2); });
  EXPECT_EQ(loop.timer_count(), 34u);
  EXPECT_TRUE(pump_until(loop, [&] { return same_deadline_fires == 32; }));
  EXPECT_TRUE(order.empty());  // far colliders still pending
  EXPECT_EQ(loop.timer_count(), 2u);
  EXPECT_TRUE(pump_until(loop, [&] { return order.size() == 2u; }));
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(same_deadline_fires, 32);
  EXPECT_EQ(loop.timer_count(), 0u);
}

TEST_P(EventLoopBackendTest, PostFromAnotherThreadWakesBlockedLoop) {
  EventLoop loop(config_for(GetParam()));
  std::atomic<bool> ran{false};
  std::thread poster([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    loop.post([&] { ran.store(true); });
  });
  // Block with no timeout: only the cross-thread wakeup can unblock this.
  const auto start = std::chrono::steady_clock::now();
  while (!ran.load() &&
         std::chrono::steady_clock::now() - start < std::chrono::seconds(2)) {
    loop.run_once(-1);
  }
  poster.join();
  EXPECT_TRUE(ran.load());
  EXPECT_GE(loop.stats().tasks_posted, 1u);
}

TEST_P(EventLoopBackendTest, StopFromAnotherThreadUnblocksRun) {
  EventLoop loop(config_for(GetParam()));
  std::thread stopper([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    loop.stop();
  });
  loop.run();  // must return once stop() lands
  stopper.join();
  SUCCEED();
}

TEST_P(EventLoopBackendTest, PostedTaskMayPostAgain) {
  EventLoop loop(config_for(GetParam()));
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 5) loop.post(chain);
  };
  loop.post(chain);
  EXPECT_TRUE(pump_until(loop, [&] { return depth == 5; }));
}

INSTANTIATE_TEST_SUITE_P(Backends, EventLoopBackendTest,
                         ::testing::Values(EventLoopConfig::Backend::kEpoll,
                                           EventLoopConfig::Backend::kPoll),
                         [](const auto& param_info) {
                           return param_info.param == EventLoopConfig::Backend::kEpoll
                                      ? "epoll"
                                      : "poll";
                         });

}  // namespace
}  // namespace dfi::net
