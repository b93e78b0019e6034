#include "net/asyncio/frontend.h"

#include "common/logging.h"

namespace dfi::net {
namespace {

constexpr std::uint64_t kTickMs = 1;

}  // namespace

SocketFrontend::SocketFrontend(EventLoop& loop, DfiSystem& system,
                               FrontendConfig config)
    : loop_(loop),
      system_(system),
      config_(std::move(config)),
      conman_(loop, config_.conman, &system.health()) {
  system_.health().set_clock(monotonic_now);
}

SocketFrontend::~SocketFrontend() {
  *alive_ = false;
  for (auto& [id, peer] : peers_) {
    if (peer->session != nullptr) {
      system_.proxy().destroy_session(*peer->session);
      peer->session = nullptr;
    }
  }
  peers_.clear();
}

Result<std::uint16_t> SocketFrontend::start() {
  auto port = conman_.listen(
      config_.listen_ip, config_.listen_port,
      [this, alive = alive_](std::unique_ptr<Connection> conn,
                             const std::string& peer_ip) {
        if (*alive) on_switch_accepted(std::move(conn), peer_ip);
      });
  if (port.ok()) arm_tick();
  return port;
}

void SocketFrontend::on_switch_accepted(std::unique_ptr<Connection> conn,
                                        const std::string& peer_ip) {
  const std::uint64_t id = next_peer_id_++;
  auto peer = std::make_unique<Peer>();
  peer->id = id;
  peer->switch_conn = std::move(conn);
  peer->switch_conn->set_frame_pool(&system_.proxy().buffer_pool());
  // No session yet: hold the switch's bytes in the kernel until the
  // controller link is up (fail-secure — nothing flows unproxied).
  peer->switch_conn->pause_reads();
  peer->switch_conn->on_closed([this, alive = alive_, id](const char* reason) {
    if (*alive) sever_peer(id, reason);
  });
  peers_.emplace(id, std::move(peer));
  DFI_DEBUG << "frontend: switch connection from " << peer_ip << " as peer " << id;
  conman_.dial_supervised(
      "controller-link:" + std::to_string(id), config_.controller_ip,
      config_.controller_port,
      [this, alive = alive_, id](std::unique_ptr<Connection> link) {
        if (*alive) on_controller_link(id, std::move(link));
      });
}

void SocketFrontend::on_controller_link(std::uint64_t peer_id,
                                        std::unique_ptr<Connection> conn) {
  auto it = peers_.find(peer_id);
  if (it == peers_.end() || it->second->closing) return;  // severed meanwhile
  if (conn == nullptr) {
    ++stats_.controller_dials_failed;
    sever_peer(peer_id, "controller unreachable");
    return;
  }
  it->second->controller_conn = std::move(conn);
  it->second->controller_conn->set_frame_pool(&system_.proxy().buffer_pool());
  bind_session(*it->second);
}

void SocketFrontend::bind_session(Peer& peer) {
  Peer* p = &peer;
  auto& pool = system_.proxy().buffer_pool();

  // Socket sessions deliver inline: the sink takes the pooled frame and
  // Connection::send only queues it (it returns to the pool after the
  // write), so nothing can re-enter the proxy. The sink runs only while the
  // session is alive, which sever_peer ends before the Peer goes away — so
  // capturing the Peer raw is safe, and the closing flag guards the sever
  // window itself.
  auto sink = [this, p, &pool](const bool to_switch) {
    return [this, p, &pool, to_switch](std::vector<std::uint8_t> frame) {
      if (p->closing) {
        pool.release(std::move(frame));
        return;
      }
      Connection& out = to_switch ? *p->switch_conn : *p->controller_conn;
      if (!out.send(std::move(frame))) {
        // We are inside the proxy's session code here: sever_peer only
        // marks the peer closing and defers the session destruction, so
        // the session is never freed under itself.
        sever_peer(p->id, "egress overflow");
        return;
      }
      if (!p->dirty) {
        p->dirty = true;
        dirty_peers_.push_back(p->id);
      }
    };
  };
  peer.session = &system_.proxy().create_socket_session(sink(/*to_switch=*/true),
                                                        sink(/*to_switch=*/false));
  ++stats_.sessions_opened;

  auto batch_end = [this, p](const bool from_switch) {
    if (p->closing || p->session == nullptr) return;
    if (from_switch) p->session->switch_batch_end();
    // Wait out the batch's threaded completions — possibly into *other*
    // peers' egress queues — then push exactly the peers that received
    // egress to the wire.
    system_.pcp().wait_idle();
    flush_dirty();
  };

  Connection& sw = *peer.switch_conn;
  sw.on_frame([p](const FrameView& view) {
    if (!p->closing && p->session != nullptr) p->session->switch_frame(view);
  });
  sw.on_batch_end([batch_end] { batch_end(true); });
  sw.on_corrupt([p] {
    if (!p->closing && p->session != nullptr) p->session->switch_stream_corrupt();
  });
  sw.on_backpressure([this, p](bool backed_up) {
    // Switch egress backing up: throttle its producer, the controller read.
    if (p->closing || p->controller_conn == nullptr) return;
    if (backed_up) {
      ++stats_.peer_pauses;
      p->controller_conn->pause_reads();
    } else {
      p->controller_conn->resume_reads();
    }
  });

  Connection& ct = *peer.controller_conn;
  ct.on_frame([p](const FrameView& view) {
    if (!p->closing && p->session != nullptr) p->session->controller_frame(view);
  });
  ct.on_batch_end([batch_end] { batch_end(false); });
  ct.on_corrupt([p] {
    if (!p->closing && p->session != nullptr) {
      p->session->controller_stream_corrupt();
    }
  });
  ct.on_closed([this, alive = alive_, id = peer.id](const char* reason) {
    if (*alive) sever_peer(id, reason);
  });
  ct.on_backpressure([this, p](bool backed_up) {
    if (p->closing || p->switch_conn == nullptr) return;
    if (backed_up) {
      ++stats_.peer_pauses;
      p->switch_conn->pause_reads();
    } else {
      p->switch_conn->resume_reads();
    }
  });

  // Session bound: let the switch's handshake flow.
  peer.switch_conn->resume_reads();
}

void SocketFrontend::sever_peer(std::uint64_t peer_id, const char* reason) {
  auto it = peers_.find(peer_id);
  if (it == peers_.end()) return;
  Peer* p = it->second.get();
  if (p->closing) return;
  // Mark first: every further delivery, frame callback and backpressure
  // callback on this peer no-ops from here on. The teardown itself is
  // deferred one loop turn because this may be running inside the session's
  // own sink (egress overflow) or a Connection's handle_io — destroying
  // the session here would free the std::function currently executing, and
  // destroying the Connection would free the object whose method is on the
  // stack.
  p->closing = true;
  DFI_DEBUG << "frontend: severing peer " << peer_id << " (" << reason << ")";
  loop_.post([this, alive = alive_, peer_id, reason] {
    if (*alive) finish_sever(peer_id, reason);
  });
}

void SocketFrontend::finish_sever(std::uint64_t peer_id, const char* reason) {
  auto it = peers_.find(peer_id);
  if (it == peers_.end()) return;
  Peer* p = it->second.get();
  if (p->session != nullptr) {
    // Session-first teardown: the liveness token turns every in-flight
    // decision callback into a no-op.
    system_.proxy().destroy_session(*p->session);
    p->session = nullptr;
    ++stats_.sessions_closed;
  }
  if (p->switch_conn) p->switch_conn->close(reason);
  if (p->controller_conn) p->controller_conn->close(reason);
  // Posted context: no session sink or Connection frame is on the stack
  // (close() above re-enters sever_peer via closed_fn, which no-ops on the
  // closing flag), so the Peer and its Connections can be freed right here.
  peers_.erase(it);
}

void SocketFrontend::flush_dirty() {
  if (dirty_peers_.empty()) return;
  // A sink may dirty peers again while a flush runs; swap the list out so
  // the iteration stays stable.
  flushing_peers_.swap(dirty_peers_);
  for (const std::uint64_t id : flushing_peers_) {
    auto it = peers_.find(id);
    if (it == peers_.end()) continue;
    it->second->dirty = false;
    if (it->second->switch_conn) it->second->switch_conn->flush();
    if (it->second->controller_conn) it->second->controller_conn->flush();
  }
  flushing_peers_.clear();
}

void SocketFrontend::arm_tick() {
  loop_.schedule_after_ms(kTickMs, [this, alive = alive_] {
    if (!*alive) return;
    system_.pcp().wait_idle();
    system_.health().poll();
    flush_dirty();
    arm_tick();
  });
}

}  // namespace dfi::net
