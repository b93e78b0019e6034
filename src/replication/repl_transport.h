// Binds a Replica to the real socket datapath (DESIGN.md §6.3 / §9).
//
// The replication stream is not OpenFlow, so the Connection runs in
// raw-byte mode: every read chunk goes straight to Replica::on_bytes, and
// Replica's egress goes out through the Connection's coalescing writev
// queue. The primary listens; the standby dials with conman's supervised
// capped-exponential backoff (the link being down holds the component
// degraded through HealthMonitor, and the redial schedule lands in
// HealthStats — same ledger as every other supervised reconnect).
//
// Heartbeats ride the event-loop timer wheel: a repeating timer calls
// Replica::tick_heartbeat (no-op on a standby), which keeps the standby's
// failover clock fed through idle stretches.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "net/asyncio/conman.h"
#include "net/asyncio/connection.h"
#include "net/asyncio/event_loop.h"
#include "replication/replica.h"

namespace dfi {

class ReplTransport {
 public:
  ReplTransport(net::EventLoop& loop, net::ConnectionManager& conman,
                Replica& replica, std::uint64_t heartbeat_ms = 500)
      : loop_(loop), conman_(conman), replica_(replica),
        heartbeat_ms_(heartbeat_ms) {}

  ~ReplTransport() {
    *alive_ = false;
    if (heartbeat_timer_ != 0) loop_.cancel_timer(heartbeat_timer_);
    detach();
    replica_.set_send(nullptr);
  }

  ReplTransport(const ReplTransport&) = delete;
  ReplTransport& operator=(const ReplTransport&) = delete;

  // Primary side: accept the standby's dial. Returns the bound port.
  Result<std::uint16_t> listen(const std::string& ip, std::uint16_t port) {
    return conman_.listen(ip, port, [this](std::unique_ptr<net::Connection> conn,
                                           const std::string&) {
      adopt(std::move(conn));
    });
  }

  // Standby side: dial the primary under supervised backoff; on success the
  // Replica re-hellos (tail catch-up or snapshot bootstrap).
  void dial(const std::string& ip, std::uint16_t port) {
    conman_.dial_supervised("replication", ip, port,
                            [this](std::unique_ptr<net::Connection> conn) {
                              if (!conn) return;  // abandoned
                              adopt(std::move(conn));
                              replica_.become_standby();
                            });
  }

  void start_heartbeats() {
    if (heartbeat_timer_ != 0) return;
    schedule_heartbeat();
  }

  bool linked() const { return conn_ != nullptr && conn_->open(); }
  net::Connection* connection() { return conn_.get(); }

 private:
  // `conn` comes from conman, which has already started it.
  void adopt(std::unique_ptr<net::Connection> conn) {
    detach();
    conn_ = std::move(conn);
    conn_->set_raw_mode([this](const std::uint8_t* data, std::size_t size) {
      replica_.on_bytes(data, size);
    });
    conn_->on_closed([this, a = alive_](const char*) {
      if (!*a) return;
      replica_.on_link_down();
      // Deferred reap: the Connection is mid-handle_io here.
      loop_.post([this, a] {
        if (*a && conn_ && !conn_->open()) conn_.reset();
      });
    });
    replica_.set_send([this](const std::string& bytes) {
      if (!conn_ || !conn_->open()) return;
      conn_->send(std::vector<std::uint8_t>(bytes.begin(), bytes.end()));
      conn_->flush();
    });
  }

  void detach() {
    if (!conn_) return;
    conn_->close("replication transport detached");
    conn_.reset();
  }

  void schedule_heartbeat() {
    heartbeat_timer_ = loop_.schedule_after_ms(heartbeat_ms_, [this, a = alive_] {
      if (!*a) return;
      heartbeat_timer_ = 0;
      replica_.tick_heartbeat();
      schedule_heartbeat();
    });
  }

  net::EventLoop& loop_;
  net::ConnectionManager& conman_;
  Replica& replica_;
  std::uint64_t heartbeat_ms_;
  std::unique_ptr<net::Connection> conn_;
  std::uint64_t heartbeat_timer_ = 0;
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace dfi
