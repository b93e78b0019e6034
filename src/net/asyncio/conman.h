// TCP accept/connect lifecycle for the socket datapath (DESIGN.md §9).
//
// The manager owns listeners and dial attempts; accepted/dialed sockets are
// wrapped into Connections and handed to the owner. Inbound accepts are
// gated by a total-connection cap and a per-IP limit (both counted; over-
// limit peers are closed on the spot). dial_supervised is the control
// plane's reconnect supervisor: each failed connect re-arms on the
// event-loop timer wheel at the HealthMonitor's capped jittered
// exponential backoff_delay(attempt), the component is held degraded
// (fail-secure) while the link is down, and the attempt ledger lands in
// HealthStats.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "common/result.h"
#include "core/health_monitor.h"
#include "net/asyncio/connection.h"
#include "net/asyncio/event_loop.h"

namespace dfi::net {

struct ConmanConfig {
  std::size_t max_connections = 1024;
  std::size_t per_ip_limit = 256;
  std::uint64_t connect_timeout_ms = 10 * 1000;
  // Re-arm delay after a transient accept() resource failure (EMFILE etc.):
  // the queued backlog will not re-edge an edge-triggered listener.
  std::uint64_t accept_retry_ms = 10;
  Connection::Config connection;
};

struct ConmanStats {
  std::uint64_t accepted = 0;
  std::uint64_t accept_retries = 0;  // transient accept failures re-armed
  std::uint64_t rejected_per_ip = 0;
  std::uint64_t rejected_capacity = 0;
  std::uint64_t dialed = 0;
  std::uint64_t dial_failures = 0;
  std::uint64_t closed = 0;
  std::uint64_t reconnect_attempts = 0;
  std::uint64_t reconnects_abandoned = 0;
};

class ConnectionManager {
 public:
  using AcceptFn =
      std::function<void(std::unique_ptr<Connection>, const std::string& peer_ip)>;
  // Receives the established connection, or nullptr when the dial failed
  // (or a supervised dial was abandoned after max_reconnect_attempts).
  using DialFn = std::function<void(std::unique_ptr<Connection>)>;

  ConnectionManager(EventLoop& loop, ConmanConfig config,
                    HealthMonitor* health = nullptr);
  ~ConnectionManager();

  ConnectionManager(const ConnectionManager&) = delete;
  ConnectionManager& operator=(const ConnectionManager&) = delete;

  // Bind + listen; port 0 picks an ephemeral port. Returns the bound port.
  Result<std::uint16_t> listen(const std::string& ip, std::uint16_t port,
                               AcceptFn on_accept);
  void close_listeners();

  // One nonblocking connect; on_result fires on the loop thread.
  void dial(const std::string& ip, std::uint16_t port, DialFn on_result);
  // Connect with supervised capped-exponential backoff (see file comment).
  void dial_supervised(const std::string& component, const std::string& ip,
                       std::uint16_t port, DialFn on_result);

  std::size_t connection_count() const { return live_connections_; }
  std::size_t per_ip_count(const std::string& ip) const;
  const ConmanStats& stats() const { return stats_; }

 private:
  struct SupervisedDial {
    std::string component;
    std::string ip;
    std::uint16_t port = 0;
    DialFn on_result;
    int attempt = 0;
    bool degraded_held = false;
  };

  void handle_accept(int listen_fd);
  // Wrap an established nonblocking socket; `peer_ip` empty for outbound.
  std::unique_ptr<Connection> adopt(int fd, const std::string& peer_ip);
  void try_supervised(std::shared_ptr<SupervisedDial> state);

  EventLoop& loop_;
  ConmanConfig config_;
  HealthMonitor* health_ = nullptr;

  std::unordered_map<int, AcceptFn> listeners_;
  // Nonblocking connects still in flight: reclaimed in the destructor so a
  // teardown mid-dial neither leaks the fd nor leaves its loop registration
  // dangling.
  std::unordered_set<int> pending_dial_fds_;
  std::unordered_map<std::string, std::size_t> per_ip_;
  std::size_t live_connections_ = 0;
  ConmanStats stats_;

  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace dfi::net
