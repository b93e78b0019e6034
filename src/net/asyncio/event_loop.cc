#include "net/asyncio/event_loop.h"

#include <fcntl.h>
#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#if defined(__linux__)
#include <sys/epoll.h>
#include <sys/eventfd.h>
#endif

#include "common/logging.h"
#include "common/sim_time.h"

namespace dfi::net {

namespace {

// The same reader the control plane's live deadlines use (HealthMonitor
// on the socket path), so a wheel timer and a deadline agree on "now".
std::uint64_t monotonic_ms() {
  return static_cast<std::uint64_t>(monotonic_now().us / 1000);
}

bool set_nonblocking_fd(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  return flags >= 0 && fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

}  // namespace

EventLoop::EventLoop(EventLoopConfig config) : config_(config) {
#if defined(__linux__)
  if (config_.backend == EventLoopConfig::Backend::kEpoll) {
    epoll_fd_ = epoll_create1(EPOLL_CLOEXEC);
    if (epoll_fd_ >= 0) {
      use_epoll_ = true;
      wake_read_fd_ = wake_write_fd_ = eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.fd = wake_read_fd_;
      epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_read_fd_, &ev);
    } else {
      DFI_WARN << "event_loop: epoll_create1 failed (" << std::strerror(errno)
               << "), falling back to poll()";
    }
  }
#endif
  if (!use_epoll_) {
    int pipe_fds[2] = {-1, -1};
    if (::pipe(pipe_fds) == 0) {
      set_nonblocking_fd(pipe_fds[0]);
      set_nonblocking_fd(pipe_fds[1]);
      wake_read_fd_ = pipe_fds[0];
      wake_write_fd_ = pipe_fds[1];
    }
  }
}

EventLoop::~EventLoop() {
  if (use_epoll_) {
    if (wake_read_fd_ >= 0) ::close(wake_read_fd_);  // eventfd: one descriptor
  } else {
    if (wake_read_fd_ >= 0) ::close(wake_read_fd_);
    if (wake_write_fd_ >= 0) ::close(wake_write_fd_);
  }
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

std::uint64_t EventLoop::now_ms() const { return monotonic_ms(); }

bool EventLoop::backend_add(int fd, bool want_read, bool want_write) {
#if defined(__linux__)
  if (use_epoll_) {
    epoll_event ev{};
    ev.events = EPOLLET | (want_read ? EPOLLIN : 0u) | (want_write ? EPOLLOUT : 0u);
    ev.data.fd = fd;
    return epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) == 0;
  }
#endif
  (void)fd;
  (void)want_read;
  (void)want_write;
  return true;  // poll(): interest lives in fds_, rebuilt every poll
}

bool EventLoop::backend_mod(int fd, bool want_read, bool want_write) {
#if defined(__linux__)
  if (use_epoll_) {
    epoll_event ev{};
    ev.events = EPOLLET | (want_read ? EPOLLIN : 0u) | (want_write ? EPOLLOUT : 0u);
    ev.data.fd = fd;
    // EPOLL_CTL_MOD re-arms edge-triggered readiness: still-pending input
    // is reported again, which is what resume-after-backpressure relies on.
    return epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev) == 0;
  }
#endif
  (void)fd;
  (void)want_read;
  (void)want_write;
  return true;
}

void EventLoop::backend_del(int fd) {
#if defined(__linux__)
  if (use_epoll_) epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
#endif
  (void)fd;
}

bool EventLoop::add_fd(int fd, bool want_read, bool want_write, FdHandler handler) {
  if (fd < 0 || fds_.count(fd) != 0) return false;
  if (!backend_add(fd, want_read, want_write)) return false;
  auto entry = std::make_shared<FdEntry>();
  entry->handler = std::move(handler);
  entry->want_read = want_read;
  entry->want_write = want_write;
  entry->generation = next_generation_++;
  fds_.emplace(fd, std::move(entry));
  return true;
}

bool EventLoop::set_interest(int fd, bool want_read, bool want_write) {
  auto it = fds_.find(fd);
  if (it == fds_.end()) return false;
  if (it->second->want_read == want_read && it->second->want_write == want_write) {
    return true;
  }
  if (!backend_mod(fd, want_read, want_write)) return false;
  it->second->want_read = want_read;
  it->second->want_write = want_write;
  return true;
}

void EventLoop::remove_fd(int fd) {
  auto it = fds_.find(fd);
  if (it == fds_.end()) return;
  backend_del(fd);
  // Safe even from inside this fd's own handler: the dispatch loop holds a
  // shared_ptr to the entry, so the executing closure outlives the erase.
  fds_.erase(it);
}

EventLoop::TimerId EventLoop::schedule_after_ms(std::uint64_t delay_ms,
                                                std::function<void()> fn) {
  const TimerId id = next_timer_id_++;
  const std::uint64_t deadline = now_ms() + delay_ms;
  const std::size_t slot = deadline % kWheelSlots;
  wheel_[slot].push_back(TimerEntry{id, deadline, std::move(fn)});
  timer_slot_of_.emplace(id, slot);
  return id;
}

void EventLoop::cancel_timer(TimerId id) {
  auto it = timer_slot_of_.find(id);
  if (it == timer_slot_of_.end()) return;
  auto& slot = wheel_[it->second];
  for (std::size_t i = 0; i < slot.size(); ++i) {
    if (slot[i].id == id) {
      slot[i] = std::move(slot.back());
      slot.pop_back();
      break;
    }
  }
  timer_slot_of_.erase(it);
}

void EventLoop::post(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lock(posted_mutex_);
    posted_.push_back(std::move(fn));
  }
  wake();
}

void EventLoop::wake() {
  if (wake_write_fd_ < 0) return;
  const std::uint64_t one = 1;
  for (;;) {
    const ssize_t n = ::write(wake_write_fd_, &one, use_epoll_ ? 8 : 1);
    if (n >= 0 || errno != EINTR) break;  // EAGAIN: already pending, fine
  }
}

void EventLoop::drain_wake_fd() {
  std::uint8_t buf[64];
  while (::read(wake_read_fd_, buf, sizeof(buf)) > 0) {
  }
  ++stats_.wakeups;
}

void EventLoop::run_posted() {
  std::vector<std::function<void()>> batch;
  {
    std::lock_guard<std::mutex> lock(posted_mutex_);
    batch.swap(posted_);
  }
  for (auto& fn : batch) {
    ++stats_.tasks_posted;
    fn();
  }
}

void EventLoop::fire_due_timers() {
  if (timer_slot_of_.empty()) return;
  const std::uint64_t now = now_ms();
  std::vector<std::function<void()>> due;
  for (auto& slot : wheel_) {
    for (std::size_t i = 0; i < slot.size();) {
      if (slot[i].deadline_ms <= now) {
        timer_slot_of_.erase(slot[i].id);
        due.push_back(std::move(slot[i].fn));
        slot[i] = std::move(slot.back());
        slot.pop_back();
      } else {
        ++i;
      }
    }
  }
  for (auto& fn : due) {
    ++stats_.timers_fired;
    fn();
  }
}

int EventLoop::next_timer_timeout() const {
  if (timer_slot_of_.empty()) return -1;
  std::uint64_t soonest = UINT64_MAX;
  for (const auto& slot : wheel_) {
    for (const auto& entry : slot) soonest = std::min(soonest, entry.deadline_ms);
  }
  const std::uint64_t now = monotonic_ms();
  if (soonest <= now) return 0;
  return static_cast<int>(std::min<std::uint64_t>(soonest - now, 60 * 1000));
}

int EventLoop::poll_backend(int timeout_ms) {
  dispatch_scratch_.clear();
#if defined(__linux__)
  if (use_epoll_) {
    epoll_events_buf_.resize(config_.max_events_per_poll * sizeof(epoll_event));
    auto* events = reinterpret_cast<epoll_event*>(epoll_events_buf_.data());
    int n;
    do {
      n = epoll_wait(epoll_fd_, events, static_cast<int>(config_.max_events_per_poll),
                     timeout_ms);
    } while (n < 0 && errno == EINTR);
    ++stats_.polls;
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == wake_read_fd_) {
        drain_wake_fd();
        continue;
      }
      auto it = fds_.find(fd);
      if (it == fds_.end()) continue;
      dispatch_scratch_.push_back(PendingDispatch{
          fd, it->second->generation, (events[i].events & EPOLLIN) != 0,
          (events[i].events & EPOLLOUT) != 0,
          (events[i].events & (EPOLLERR | EPOLLHUP)) != 0});
    }
    return n < 0 ? 0 : n;
  }
#endif
  std::vector<pollfd> pfds;
  pfds.reserve(fds_.size() + 1);
  pfds.push_back(pollfd{wake_read_fd_, POLLIN, 0});
  for (const auto& [fd, entry] : fds_) {
    short events = 0;
    if (entry->want_read) events |= POLLIN;
    if (entry->want_write) events |= POLLOUT;
    pfds.push_back(pollfd{fd, events, 0});
  }
  int n;
  do {
    n = ::poll(pfds.data(), pfds.size(), timeout_ms);
  } while (n < 0 && errno == EINTR);
  ++stats_.polls;
  if (n <= 0) return 0;
  if ((pfds[0].revents & POLLIN) != 0) drain_wake_fd();
  for (std::size_t i = 1; i < pfds.size(); ++i) {
    if (pfds[i].revents == 0) continue;
    auto it = fds_.find(pfds[i].fd);
    if (it == fds_.end()) continue;
    dispatch_scratch_.push_back(PendingDispatch{
        pfds[i].fd, it->second->generation, (pfds[i].revents & POLLIN) != 0,
        (pfds[i].revents & POLLOUT) != 0,
        (pfds[i].revents & (POLLERR | POLLHUP | POLLNVAL)) != 0});
  }
  return n;
}

int EventLoop::run_once(int timeout_ms) {
  int timeout = timeout_ms;
  const int timer_timeout = next_timer_timeout();
  if (timer_timeout >= 0 && (timeout < 0 || timer_timeout < timeout)) {
    timeout = timer_timeout;
  }
  {
    // Posted work must not wait for fd traffic.
    std::lock_guard<std::mutex> lock(posted_mutex_);
    if (!posted_.empty()) timeout = 0;
  }
  poll_backend(timeout);
  run_posted();
  fire_due_timers();
  int dispatched = 0;
  for (const auto& pending : dispatch_scratch_) {
    auto it = fds_.find(pending.fd);
    // A handler earlier in the batch may have removed (or removed and
    // re-registered) this descriptor; the generation check drops stale
    // readiness aimed at the old registration.
    if (it == fds_.end() || it->second->generation != pending.generation) continue;
    ++stats_.fd_dispatches;
    ++dispatched;
    // Hold the entry across the call: the handler may remove its own fd.
    const std::shared_ptr<FdEntry> entry = it->second;
    entry->handler(pending.readable, pending.writable, pending.error);
  }
  dispatch_scratch_.clear();
  return dispatched;
}

void EventLoop::run() {
  stop_requested_ = false;
  while (!stop_requested_) run_once(-1);
}

void EventLoop::stop() {
  post([this] { stop_requested_ = true; });
}

}  // namespace dfi::net
