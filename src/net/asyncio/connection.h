// One framed byte-stream peer on the socket datapath (DESIGN.md §9).
//
// Read path: readv() straight into the owned FrameDecoder's writable tail
// spans (no intermediate chunk copy), then pop complete frames and hand
// each FrameView to the owner — the same zero-copy classify() fast path the
// in-process transport feeds. Write path: a bounded egress queue of pooled
// frames flushed as one writev() of up to 64 coalesced iovecs; partially
// written frames retry from their offset on the next writability. The queue
// is a ring that only grows, so once warm neither send() nor flush()
// allocates.
//
// Backpressure: when queued egress crosses the high watermark the
// connection reports backed_up=true (and the owner pauses the peer feeding
// it); dropping below the low watermark reports backed_up=false. A full
// bounded queue (max_egress_frames) fails send() — the owner severs, it
// never blocks.
//
// Threading: a Connection lives on its event loop's thread. With a null
// loop it runs in "manual mode" — the owner calls handle_io()/flush()
// directly — which is how the single-threaded invariant fuzzer drives the
// exact production read/write machinery over seeded FaultSockets.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/frame_buffer_pool.h"
#include "net/asyncio/event_loop.h"
#include "net/asyncio/socket_ops.h"
#include "openflow/wire.h"

namespace dfi::net {

class Connection {
 public:
  struct Config {
    std::size_t egress_high_watermark = 256 * 1024;
    std::size_t egress_low_watermark = 64 * 1024;
    std::size_t max_egress_frames = 8192;
    // Per-handle_readable byte budget: a firehose peer yields the loop to
    // other connections and resumes via a posted continuation.
    std::size_t read_budget_bytes = 256 * 1024;
    // Floor for the decoder tail span handed to each readv.
    std::size_t readv_min_bytes = 16 * 1024;
    std::size_t writev_max_iovecs = 64;
  };

  struct Stats {
    std::uint64_t reads = 0;
    std::uint64_t read_bytes = 0;
    std::uint64_t frames_in = 0;
    std::uint64_t writes = 0;
    std::uint64_t write_bytes = 0;
    std::uint64_t frames_out = 0;
    std::uint64_t would_block_reads = 0;
    std::uint64_t would_block_writes = 0;
    std::uint64_t backpressure_pauses = 0;
    std::uint64_t backpressure_resumes = 0;
    std::uint64_t send_rejected = 0;  // bounded queue full
  };

  using FrameFn = std::function<void(const FrameView&)>;
  using RawFn = std::function<void(const std::uint8_t* data, std::size_t size)>;
  using BatchEndFn = std::function<void()>;
  using CorruptFn = std::function<void()>;
  using ClosedFn = std::function<void(const char* reason)>;
  using BackpressureFn = std::function<void(bool backed_up)>;

  // loop may be null (manual mode). The socket must already be nonblocking.
  Connection(EventLoop* loop, std::unique_ptr<SocketOps> socket, Config config);
  ~Connection();

  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  // Wire the owner in, then call start() to register with the loop.
  void on_frame(FrameFn fn) { frame_fn_ = std::move(fn); }
  // Raw-byte mode: the stream is NOT OpenFlow (e.g. the replication
  // journal stream) — bypass the FrameDecoder entirely and hand every read
  // chunk to `fn` as-is. The owner does its own framing. Mutually
  // exclusive with on_frame; set before start().
  void set_raw_mode(RawFn fn) { raw_fn_ = std::move(fn); }
  bool raw_mode() const { return static_cast<bool>(raw_fn_); }
  void on_batch_end(BatchEndFn fn) { batch_end_fn_ = std::move(fn); }
  void on_corrupt(CorruptFn fn) { corrupt_fn_ = std::move(fn); }
  // closed_fn must not destroy the Connection synchronously — defer the
  // deletion (loop->post) instead; it may still be mid-handle_io.
  void on_closed(ClosedFn fn) { closed_fn_ = std::move(fn); }
  void on_backpressure(BackpressureFn fn) { backpressure_fn_ = std::move(fn); }
  // conman's per-IP accounting hook, kept separate from the owner's
  // on_closed so neither overwrites the other.
  void set_close_observer(std::function<void()> fn) {
    close_observer_ = std::move(fn);
  }
  // Frames passed to send() return to this pool once written (or dropped at
  // close). Null: they are simply destroyed.
  void set_frame_pool(FrameBufferPool* pool) { pool_ = pool; }

  // Registers with the loop; no-op in manual mode and when already
  // registered (a second add_fd of the same fd would fail).
  bool start();

  // Queue one frame (or coalesced multi-frame buffer) for egress. False
  // when the connection is closed or the bounded queue is full — the caller
  // treats that as a sever. Does not write; call flush() at batch
  // boundaries (crossing the high watermark flushes eagerly).
  bool send(std::vector<std::uint8_t> frame);
  void flush();

  void pause_reads();
  void resume_reads();

  void close(const char* reason);

  // Loop callback; also the manual-mode pump.
  void handle_io(bool readable, bool writable, bool error = false);

  bool open() const { return open_; }
  bool reads_paused() const { return reads_paused_; }
  bool backed_up() const { return backed_up_; }
  std::size_t pending_egress_bytes() const { return egress_bytes_; }
  std::size_t pending_egress_frames() const { return egress_count_; }
  int fd() const { return socket_ ? socket_->fd() : -1; }
  const Stats& stats() const { return stats_; }

 private:
  void handle_readable();
  void update_interest();
  void release_frame(std::vector<std::uint8_t> frame);
  void set_backed_up(bool backed_up);
  // The i-th queued frame, oldest first.
  std::vector<std::uint8_t>& egress_at(std::size_t i) {
    return egress_[(egress_head_ + i) & (egress_.size() - 1)];
  }
  void pop_egress();

  EventLoop* loop_ = nullptr;
  std::unique_ptr<SocketOps> socket_;
  Config config_;
  FrameDecoder decoder_;

  FrameFn frame_fn_;
  RawFn raw_fn_;
  std::vector<std::uint8_t> raw_buf_;  // raw-mode read scratch
  BatchEndFn batch_end_fn_;
  CorruptFn corrupt_fn_;
  ClosedFn closed_fn_;
  BackpressureFn backpressure_fn_;
  std::function<void()> close_observer_;
  FrameBufferPool* pool_ = nullptr;

  // Queued frames: a ring of power-of-two size that doubles when full and
  // never shrinks (a std::deque would allocate a chunk every few frames).
  std::vector<std::vector<std::uint8_t>> egress_;
  std::size_t egress_head_ = 0;
  std::size_t egress_count_ = 0;
  std::size_t egress_front_offset_ = 0;  // bytes of the oldest frame written
  std::size_t egress_bytes_ = 0;
  bool want_write_ = false;
  bool backed_up_ = false;
  bool reads_paused_ = false;
  bool open_ = true;
  bool registered_ = false;
  bool in_flush_ = false;

  // Posted read continuations and deferred closures capture this instead of
  // trusting `this` — the same liveness-token discipline as proxy sessions.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);

  Stats stats_;
};

}  // namespace dfi::net
