#include "net/asyncio/conman.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/logging.h"

namespace dfi::net {

namespace {

int new_tcp_socket() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd >= 0) make_nonblocking(fd);
  return fd;
}

bool fill_addr(const std::string& ip, std::uint16_t port, sockaddr_in* addr) {
  std::memset(addr, 0, sizeof(*addr));
  addr->sin_family = AF_INET;
  addr->sin_port = htons(port);
  return inet_pton(AF_INET, ip.c_str(), &addr->sin_addr) == 1;
}

std::string peer_ip_of(const sockaddr_in& addr) {
  char buf[INET_ADDRSTRLEN] = {0};
  inet_ntop(AF_INET, &addr.sin_addr, buf, sizeof(buf));
  return buf;
}

}  // namespace

ConnectionManager::ConnectionManager(EventLoop& loop, ConmanConfig config,
                                     HealthMonitor* health)
    : loop_(loop), config_(config), health_(health) {}

ConnectionManager::~ConnectionManager() {
  *alive_ = false;
  close_listeners();
  // Dials still in flight: their completion closures see !*alive_ and
  // return, so the fds must be reclaimed here — otherwise each one leaks
  // with a dangling event-loop registration.
  for (const int fd : pending_dial_fds_) {
    loop_.remove_fd(fd);
    ::close(fd);
  }
  pending_dial_fds_.clear();
}

Result<std::uint16_t> ConnectionManager::listen(const std::string& ip,
                                                std::uint16_t port,
                                                AcceptFn on_accept) {
  const int fd = new_tcp_socket();
  if (fd < 0) {
    return Result<std::uint16_t>::Fail(ErrorCode::kInternal, "socket() failed");
  }
  const int one = 1;
  setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  if (!fill_addr(ip, port, &addr)) {
    ::close(fd);
    return Result<std::uint16_t>::Fail(ErrorCode::kInvalidArgument,
                                       "bad listen address: " + ip);
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 128) != 0) {
    const std::string why = std::strerror(errno);
    ::close(fd);
    return Result<std::uint16_t>::Fail(ErrorCode::kInternal,
                                       "bind/listen failed: " + why);
  }
  socklen_t len = sizeof(addr);
  getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  const std::uint16_t bound = ntohs(addr.sin_port);
  if (!loop_.add_fd(fd, /*want_read=*/true, /*want_write=*/false,
                    [this, fd, alive = alive_](bool, bool, bool) {
                      if (*alive) handle_accept(fd);
                    })) {
    ::close(fd);
    return Result<std::uint16_t>::Fail(ErrorCode::kInternal,
                                       "event loop registration failed");
  }
  listeners_.emplace(fd, std::move(on_accept));
  return bound;
}

void ConnectionManager::close_listeners() {
  for (auto& [fd, fn] : listeners_) {
    loop_.remove_fd(fd);
    ::close(fd);
  }
  listeners_.clear();
}

void ConnectionManager::handle_accept(int listen_fd) {
  auto it = listeners_.find(listen_fd);
  if (it == listeners_.end()) return;
  // Edge-triggered: accept until EAGAIN so a burst of SYNs is fully drained.
  for (;;) {
    sockaddr_in addr{};
    socklen_t len = sizeof(addr);
    const int fd = ::accept(listen_fd, reinterpret_cast<sockaddr*>(&addr), &len);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;  // backlog drained
      // Transient resource failure (EMFILE/ENFILE/ENOBUFS/ENOMEM): the
      // connections already queued in the backlog will not re-edge the
      // edge-triggered listener, so re-arm on a short timer instead of
      // stalling until a fresh SYN arrives.
      ++stats_.accept_retries;
      loop_.schedule_after_ms(config_.accept_retry_ms,
                              [this, alive = alive_, listen_fd] {
                                if (*alive) handle_accept(listen_fd);
                              });
      return;
    }
    const std::string ip = peer_ip_of(addr);
    if (live_connections_ >= config_.max_connections) {
      ++stats_.rejected_capacity;
      ::close(fd);
      continue;
    }
    auto per_ip = per_ip_.find(ip);
    if (per_ip != per_ip_.end() && per_ip->second >= config_.per_ip_limit) {
      ++stats_.rejected_per_ip;
      DFI_DEBUG << "conman: rejecting " << ip << ": per-IP limit "
                << config_.per_ip_limit << " reached";
      ::close(fd);
      continue;
    }
    make_nonblocking(fd);
    ++stats_.accepted;
    ++per_ip_[ip];
    auto conn = adopt(fd, ip);
    it->second(std::move(conn), ip);
    // The accept callback may have torn the listener down.
    it = listeners_.find(listen_fd);
    if (it == listeners_.end()) return;
  }
}

std::unique_ptr<Connection> ConnectionManager::adopt(int fd,
                                                     const std::string& peer_ip) {
  ++live_connections_;
  auto conn = std::make_unique<Connection>(&loop_, std::make_unique<RealSocket>(fd),
                                           config_.connection);
  conn->set_close_observer([this, alive = alive_, peer_ip] {
    if (!*alive) return;
    --live_connections_;
    ++stats_.closed;
    if (!peer_ip.empty()) {
      auto it = per_ip_.find(peer_ip);
      if (it != per_ip_.end() && --it->second == 0) per_ip_.erase(it);
    }
  });
  conn->start();
  return conn;
}

void ConnectionManager::dial(const std::string& ip, std::uint16_t port,
                             DialFn on_result) {
  ++stats_.dialed;
  const int fd = new_tcp_socket();
  sockaddr_in addr{};
  if (fd < 0 || !fill_addr(ip, port, &addr)) {
    if (fd >= 0) ::close(fd);
    ++stats_.dial_failures;
    on_result(nullptr);
    return;
  }
  int rc;
  do {
    rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  } while (rc < 0 && errno == EINTR);
  if (rc == 0) {
    on_result(adopt(fd, /*peer_ip=*/""));
    return;
  }
  if (errno != EINPROGRESS) {
    ::close(fd);
    ++stats_.dial_failures;
    on_result(nullptr);
    return;
  }
  // In flight: completion surfaces as writability (or an error event).
  struct Pending {
    DialFn on_result;
    EventLoop::TimerId timer = 0;
    bool done = false;
  };
  auto pending = std::make_shared<Pending>();
  pending->on_result = std::move(on_result);
  auto finish = [this, alive = alive_, fd, pending](bool ok) {
    // When the manager died mid-dial its destructor reclaimed the fd; the
    // late-firing closure must not touch it.
    if (!*alive || pending->done) return;
    pending->done = true;
    loop_.cancel_timer(pending->timer);
    loop_.remove_fd(fd);
    pending_dial_fds_.erase(fd);
    if (ok) {
      pending->on_result(adopt(fd, /*peer_ip=*/""));
    } else {
      ::close(fd);
      ++stats_.dial_failures;
      pending->on_result(nullptr);
    }
  };
  if (!loop_.add_fd(fd, /*want_read=*/false, /*want_write=*/true,
                    [fd, finish](bool, bool, bool error) {
                      int so_error = 0;
                      socklen_t len = sizeof(so_error);
                      getsockopt(fd, SOL_SOCKET, SO_ERROR, &so_error, &len);
                      finish(!error && so_error == 0);
                    })) {
    ::close(fd);
    ++stats_.dial_failures;
    pending->on_result(nullptr);
    return;
  }
  pending_dial_fds_.insert(fd);
  pending->timer = loop_.schedule_after_ms(config_.connect_timeout_ms,
                                           [finish] { finish(false); });
}

void ConnectionManager::dial_supervised(const std::string& component,
                                        const std::string& ip, std::uint16_t port,
                                        DialFn on_result) {
  auto state = std::make_shared<SupervisedDial>();
  state->component = component;
  state->ip = ip;
  state->port = port;
  state->on_result = std::move(on_result);
  try_supervised(std::move(state));
}

void ConnectionManager::try_supervised(std::shared_ptr<SupervisedDial> state) {
  dial(state->ip, state->port,
       [this, alive = alive_, state](std::unique_ptr<Connection> conn) {
         if (!*alive) return;
         const std::string window = "reconnect:" + state->component;
         if (conn != nullptr) {
           if (state->degraded_held && health_ != nullptr) {
             health_->exit_degraded(window);
           }
           state->on_result(std::move(conn));
           return;
         }
         // First failure opens a degraded window (fail-secure: whatever this
         // link fed is not flowing) that stays open until the reconnect
         // lands or is abandoned.
         if (!state->degraded_held) {
           state->degraded_held = true;
           if (health_ != nullptr) health_->enter_degraded(window);
         }
         const int max_attempts =
             health_ != nullptr ? health_->config().max_reconnect_attempts : 8;
         if (max_attempts > 0 && state->attempt >= max_attempts) {
           ++stats_.reconnects_abandoned;
           if (health_ != nullptr) {
             health_->count_reconnect_abandoned();
             health_->exit_degraded(window);
           }
           DFI_WARN << "conman: reconnect of " << state->component
                    << " abandoned after " << state->attempt << " attempts";
           state->on_result(nullptr);
           return;
         }
         std::uint64_t delay_ms = 100;
         if (health_ != nullptr) {
           const double ms = health_->backoff_delay(state->attempt).to_ms();
           delay_ms = ms <= 0.0 ? 0 : static_cast<std::uint64_t>(ms);
         }
         ++state->attempt;
         loop_.schedule_after_ms(delay_ms, [this, alive, state] {
           if (!*alive) return;
           ++stats_.reconnect_attempts;
           if (health_ != nullptr) health_->count_backoff_retry();
           try_supervised(state);
         });
       });
}

std::size_t ConnectionManager::per_ip_count(const std::string& ip) const {
  auto it = per_ip_.find(ip);
  return it == per_ip_.end() ? 0 : it->second;
}

}  // namespace dfi::net
