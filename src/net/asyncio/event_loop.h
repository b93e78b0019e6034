// Nonblocking reactor for the socket datapath (DESIGN.md §9).
//
// Edge-triggered epoll on Linux, with a level-triggered poll() fallback
// selectable at construction (used on platforms without epoll and by tests
// that pin the fallback — connection code loops to EAGAIN, so it is correct
// under either trigger mode). One loop is single-threaded: fd handlers,
// timers and posted closures all run on the thread inside run()/run_once().
// The only cross-thread entry point is post(), which enqueues a closure
// under a mutex and kicks the loop awake through an eventfd (a self-pipe
// under the poll fallback) — this is how the shard-pool control thread
// injects egress without touching connection state from the wrong thread.
//
// Timers live on a 256-slot hashed wheel keyed by absolute monotonic
// milliseconds: insert and cancel are O(1), expiry scans only the slots
// (bounded, cheap at our scale). It reads the monotonic clock the socket
// path's HealthMonitor reads (monotonic_now(), common/sim_time.h); its
// timers drive the frontend's deadline tick, the replication heartbeat and
// conman's capped-exponential reconnect backoff.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace dfi::net {

struct EventLoopConfig {
  enum class Backend : std::uint8_t { kEpoll, kPoll };
#if defined(__linux__)
  Backend backend = Backend::kEpoll;
#else
  Backend backend = Backend::kPoll;
#endif
  std::size_t max_events_per_poll = 256;
};

struct EventLoopStats {
  std::uint64_t polls = 0;
  std::uint64_t fd_dispatches = 0;
  std::uint64_t timers_fired = 0;
  std::uint64_t tasks_posted = 0;
  std::uint64_t wakeups = 0;  // cross-thread kicks observed
};

class EventLoop {
 public:
  // (readable, writable, error) — error covers EPOLLERR/EPOLLHUP; handlers
  // should read to EOF and close.
  using FdHandler = std::function<void(bool, bool, bool)>;
  using TimerId = std::uint64_t;

  explicit EventLoop(EventLoopConfig config = {});
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  // Register a descriptor. The handler stays owned by the loop until
  // remove_fd. Returns false if registration with the backend failed.
  bool add_fd(int fd, bool want_read, bool want_write, FdHandler handler);
  bool set_interest(int fd, bool want_read, bool want_write);
  void remove_fd(int fd);

  // One-shot timer on the wheel; fires on the loop thread. cancel_timer on
  // an already-fired id is a no-op.
  TimerId schedule_after_ms(std::uint64_t delay_ms, std::function<void()> fn);
  void cancel_timer(TimerId id);

  // Thread-safe: enqueue a closure to run on the loop thread and wake it.
  void post(std::function<void()> fn);

  // Poll once (timeout_ms < 0 blocks until the next timer/posted task/fd
  // event) and dispatch. Returns the number of fd events dispatched.
  int run_once(int timeout_ms = -1);
  // run_once until stop(). stop() is thread-safe.
  void run();
  void stop();

  std::uint64_t now_ms() const;
  std::size_t fd_count() const { return fds_.size(); }
  std::size_t timer_count() const { return timer_slot_of_.size(); }
  const EventLoopStats& stats() const { return stats_; }

 private:
  static constexpr std::size_t kWheelSlots = 256;

  struct FdEntry {
    FdHandler handler;
    bool want_read = false;
    bool want_write = false;
    std::uint64_t generation = 0;
  };
  struct TimerEntry {
    TimerId id = 0;
    std::uint64_t deadline_ms = 0;
    std::function<void()> fn;
  };

  bool backend_add(int fd, bool want_read, bool want_write);
  bool backend_mod(int fd, bool want_read, bool want_write);
  void backend_del(int fd);
  void wake();
  void drain_wake_fd();
  void run_posted();
  void fire_due_timers();
  // Milliseconds until the nearest timer deadline, or -1 if none.
  int next_timer_timeout() const;
  int poll_backend(int timeout_ms);  // returns dispatched fd events

  EventLoopConfig config_;
  bool use_epoll_ = false;
  int epoll_fd_ = -1;
  int wake_read_fd_ = -1;   // eventfd (both ends equal) or pipe read end
  int wake_write_fd_ = -1;  // eventfd or pipe write end
  bool stop_requested_ = false;

  // Entries are shared_ptr so a handler that removes its own fd mid-call
  // (a connection closing itself, a dial completing) does not destroy the
  // closure currently executing — the dispatch loop holds a reference for
  // the duration of the call.
  std::unordered_map<int, std::shared_ptr<FdEntry>> fds_;
  std::uint64_t next_generation_ = 1;

  std::vector<TimerEntry> wheel_[kWheelSlots];
  std::unordered_map<TimerId, std::size_t> timer_slot_of_;
  TimerId next_timer_id_ = 1;

  std::mutex posted_mutex_;
  std::vector<std::function<void()>> posted_;

  // Scratch reused across polls.
  std::vector<std::uint8_t> epoll_events_buf_;
  struct PendingDispatch {
    int fd;
    std::uint64_t generation;
    bool readable, writable, error;
  };
  std::vector<PendingDispatch> dispatch_scratch_;

  EventLoopStats stats_;
};

}  // namespace dfi::net
