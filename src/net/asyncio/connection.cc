#include "net/asyncio/connection.h"

#include <algorithm>

#include "common/logging.h"

namespace dfi::net {

Connection::Connection(EventLoop* loop, std::unique_ptr<SocketOps> socket,
                       Config config)
    : loop_(loop), socket_(std::move(socket)), config_(config) {}

Connection::~Connection() {
  *alive_ = false;
  closed_fn_ = nullptr;  // destruction is not a peer event
  close("destroyed");
}

bool Connection::start() {
  if (!loop_ || !socket_ || socket_->fd() < 0) return true;  // manual mode
  if (registered_) return true;
  registered_ = loop_->add_fd(
      socket_->fd(), /*want_read=*/!reads_paused_, /*want_write=*/false,
      [this, alive = alive_](bool readable, bool writable, bool error) {
        if (*alive) handle_io(readable, writable, error);
      });
  return registered_;
}

void Connection::handle_io(bool readable, bool writable, bool error) {
  auto alive = alive_;
  if (writable && open_) flush();
  if (!*alive || !open_) return;
  if (readable || error) handle_readable();
  if (!*alive || !open_) return;
  // Errors are drained through the read path: reads report EOF/reset with
  // whatever bytes the kernel still buffered delivered first. But a paused
  // peer does not read (whether paused on entry or paused mid-batch by
  // backpressure), and edge-triggered epoll will not report the event
  // again — close now, or a connection whose peer died during backpressure
  // lingers until a resume that may never come.
  if (error && reads_paused_) close("peer error while paused");
}

void Connection::handle_readable() {
  if (!open_ || reads_paused_) return;
  auto alive = alive_;
  bool delivered = false;
  const char* fatal = nullptr;
  std::size_t consumed = 0;
  while (open_ && !reads_paused_) {
    MutableByteSpan spans[2];
    std::size_t span_count = 2;
    if (raw_fn_) {
      // Raw-byte mode: no decoder; read into the scratch buffer and hand
      // the chunk to the owner verbatim.
      if (raw_buf_.size() < config_.readv_min_bytes) {
        raw_buf_.resize(config_.readv_min_bytes);
      }
      spans[0] = {raw_buf_.data(), raw_buf_.size()};
      span_count = 1;
    } else {
      decoder_.writable_spans(config_.readv_min_bytes, spans);
    }
    const IoResult r = socket_->read_vec(spans, span_count);
    if (r.status == IoStatus::kWouldBlock) {
      ++stats_.would_block_reads;
      break;
    }
    if (r.status == IoStatus::kEof) {
      fatal = "peer closed";
      break;
    }
    if (r.status == IoStatus::kReset) {
      fatal = "connection reset";
      break;
    }
    if (r.bytes == 0) break;
    ++stats_.reads;
    stats_.read_bytes += r.bytes;
    if (raw_fn_) {
      delivered = true;
      raw_fn_(raw_buf_.data(), r.bytes);
      if (!*alive) return;
      if (!open_) break;
      consumed += r.bytes;
      if (consumed >= config_.read_budget_bytes) {
        if (loop_) {
          loop_->post([this, a = alive_] {
            if (*a) handle_readable();
          });
        }
        break;
      }
      continue;
    }
    decoder_.commit(r.bytes);
    FrameView view;
    bool stream_dead = false;
    for (;;) {
      const FrameStatus status = decoder_.next_frame(view);
      if (status == FrameStatus::kAwait) break;
      if (status == FrameStatus::kCorrupt) {
        if (corrupt_fn_) corrupt_fn_();
        if (!*alive) return;
        fatal = "corrupt framing";
        stream_dead = true;
        break;
      }
      ++stats_.frames_in;
      delivered = true;
      if (frame_fn_) frame_fn_(view);
      if (!*alive) return;
      if (!open_) break;
    }
    if (stream_dead || !open_) break;
    consumed += r.bytes;
    if (consumed >= config_.read_budget_bytes) {
      // Yield to other connections; edge-triggered readiness will not fire
      // again for bytes already pending, so resume via a posted
      // continuation.
      if (loop_) {
        loop_->post([this, a = alive_] {
          if (*a) handle_readable();
        });
      }
      break;
    }
  }
  if (!*alive) return;
  if (delivered && open_ && batch_end_fn_) batch_end_fn_();
  if (!*alive) return;
  if (fatal && open_) close(fatal);
}

bool Connection::send(std::vector<std::uint8_t> frame) {
  if (!open_ || frame.empty()) {
    const bool accepted = open_;
    release_frame(std::move(frame));
    return accepted;
  }
  if (egress_count_ >= config_.max_egress_frames) {
    ++stats_.send_rejected;
    release_frame(std::move(frame));
    return false;
  }
  if (egress_count_ == egress_.size()) {
    std::vector<std::vector<std::uint8_t>> grown(egress_.empty() ? 16 : 2 * egress_.size());
    for (std::size_t i = 0; i < egress_count_; ++i) grown[i] = std::move(egress_at(i));
    egress_ = std::move(grown);
    egress_head_ = 0;
  }
  egress_bytes_ += frame.size();
  egress_at(egress_count_++) = std::move(frame);
  if (!backed_up_ && egress_bytes_ >= config_.egress_high_watermark) {
    set_backed_up(true);
    flush();  // try to relieve the queue immediately
  }
  return true;
}

void Connection::flush() {
  if (!open_ || in_flush_) return;
  in_flush_ = true;
  auto alive = alive_;
  ConstByteSpan spans[64];
  const std::size_t max_iovecs =
      std::min<std::size_t>(config_.writev_max_iovecs, 64);
  while (egress_count_ > 0) {
    const std::size_t n = std::min(egress_count_, max_iovecs);
    for (std::size_t i = 0; i < n; ++i) {
      const std::vector<std::uint8_t>& frame = egress_at(i);
      const std::size_t offset = (i == 0) ? egress_front_offset_ : 0;
      spans[i] = ConstByteSpan{frame.data() + offset, frame.size() - offset};
    }
    const IoResult r = socket_->write_vec(spans, n);
    if (r.status == IoStatus::kWouldBlock) {
      ++stats_.would_block_writes;
      if (!want_write_) {
        want_write_ = true;
        update_interest();
      }
      in_flush_ = false;
      return;
    }
    if (r.status != IoStatus::kOk) {
      in_flush_ = false;
      close("write reset");
      return;
    }
    if (r.bytes == 0) break;
    ++stats_.writes;
    stats_.write_bytes += r.bytes;
    std::size_t left = r.bytes;
    while (left > 0) {
      auto& front = egress_at(0);
      const std::size_t remaining = front.size() - egress_front_offset_;
      if (left >= remaining) {
        left -= remaining;
        egress_bytes_ -= front.size();
        egress_front_offset_ = 0;
        ++stats_.frames_out;
        pop_egress();
      } else {
        egress_front_offset_ += left;
        left = 0;
      }
    }
  }
  if (want_write_ && egress_count_ == 0) {
    want_write_ = false;
    update_interest();
  }
  if (backed_up_ && egress_bytes_ <= config_.egress_low_watermark) {
    set_backed_up(false);
    if (!*alive) return;
  }
  in_flush_ = false;
}

void Connection::pause_reads() {
  if (reads_paused_) return;
  reads_paused_ = true;
  update_interest();
}

void Connection::resume_reads() {
  if (!reads_paused_) return;
  reads_paused_ = false;
  update_interest();
  // Bytes may have landed while interest was off; edge-triggered epoll will
  // not re-report them, so pump once. Manual-mode owners pump themselves.
  if (loop_ && open_) {
    loop_->post([this, a = alive_] {
      if (*a) handle_readable();
    });
  }
}

void Connection::close(const char* reason) {
  if (!open_) return;
  open_ = false;
  if (registered_ && loop_ && socket_) loop_->remove_fd(socket_->fd());
  registered_ = false;
  if (socket_) socket_->close();
  while (egress_count_ > 0) pop_egress();
  egress_bytes_ = 0;
  egress_front_offset_ = 0;
  if (close_observer_) {
    auto observer = std::move(close_observer_);
    observer();
  }
  if (closed_fn_) {
    auto fn = std::move(closed_fn_);
    fn(reason);
  }
}

void Connection::update_interest() {
  if (loop_ && registered_ && socket_) {
    loop_->set_interest(socket_->fd(), open_ && !reads_paused_, want_write_);
  }
}

void Connection::release_frame(std::vector<std::uint8_t> frame) {
  if (pool_ != nullptr) pool_->release(std::move(frame));
}

void Connection::pop_egress() {
  release_frame(std::move(egress_at(0)));
  egress_head_ = (egress_head_ + 1) & (egress_.size() - 1);
  --egress_count_;
}

void Connection::set_backed_up(bool backed_up) {
  backed_up_ = backed_up;
  if (backed_up) {
    ++stats_.backpressure_pauses;
  } else {
    ++stats_.backpressure_resumes;
  }
  if (backpressure_fn_) backpressure_fn_(backed_up);
}

}  // namespace dfi::net
