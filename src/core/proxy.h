// DFI Proxy (paper Sections III-B and IV-B).
//
// Interposes transparently on the OpenFlow byte stream between each switch
// and the SDN controller. Two jobs:
//
//  * Isolation via table shifting: Table 0 of every switch is reserved for
//    DFI's access-control rules. Every table_id reference in messages from
//    the controller (FLOW_MOD including goto-table instructions, flow-stats
//    requests) is incremented; every table reference toward the controller
//    (PACKET_IN, FLOW_REMOVED, flow-stats replies) is decremented, and
//    entries describing Table 0 are filtered out entirely. FEATURES_REPLY
//    advertises one fewer table. The controller cannot observe, modify, or
//    even learn of DFI's table.
//
//  * Packet-in routing: a table-miss in Table 0 means the flow has no DFI
//    decision yet; the proxy hands it to the PCP *first*. Denied flows are
//    never forwarded to the controller, so a malicious/faulty controller or
//    app never sees (and cannot be poisoned by) traffic DFI rejects.
//
// The proxy is deliberately stateless across sessions: per-session state is
// only the datapath id and table count learned from the handshake, so
// multiple proxies can run in parallel (paper: not a single point of
// failure).
//
// Delivery (DESIGN.md §5): every outbound frame is encoded into a pooled
// buffer and handed to the session's endpoint. A socket session hands it
// over inline — its endpoint only queues, so it cannot re-enter the proxy.
// An in-process session defers the delivery through the proxy's DeferFn
// (the paper model's proxy delay, or zero delay on the simulator), because
// its endpoint may call straight back into the proxy.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/frame_buffer_pool.h"
#include "core/pcp.h"
#include "openflow/wire.h"

namespace dfi {

class HealthMonitor;
class Journal;

struct ProxyStats {
  std::uint64_t from_switch = 0;
  std::uint64_t from_controller = 0;
  std::uint64_t packet_ins_to_pcp = 0;
  std::uint64_t packet_ins_forwarded = 0;
  std::uint64_t packet_ins_suppressed = 0;  // denied or PCP overloaded
  std::uint64_t flow_mods_shifted = 0;
  std::uint64_t stats_entries_hidden = 0;   // Table-0 rows filtered
  std::uint64_t controller_errors = 0;      // bad table id from controller
  std::uint64_t malformed = 0;

  // Wire fast path (DESIGN.md §5): frames forwarded verbatim or dropped
  // without decode, frames table-shifted in place, and frames that needed
  // the full decode->re-encode slow path.
  std::uint64_t frames_fast_path = 0;
  std::uint64_t frames_patched = 0;
  std::uint64_t frames_decoded = 0;
  // FrameBufferPool counters, mirrored by DfiProxy::stats().
  std::uint64_t pool_acquires = 0;
  std::uint64_t pool_reuses = 0;

  // Recovery behavior (DESIGN.md §6). The first two are counted by the
  // proxy's degraded-mode gate; the rest are mirrored by DfiProxy::stats()
  // from the attached HealthMonitor, Journal and PCP so one struct tells
  // the whole failure-time story (harness recovery_report).
  std::uint64_t degraded_suppressed = 0;  // fail-secure: denied while degraded
  std::uint64_t degraded_forwarded = 0;   // fail-open: undecided, to controller
  std::uint64_t degraded_entries = 0;
  std::uint64_t degraded_exits = 0;
  std::uint64_t backoff_retries = 0;
  std::uint64_t resync_clears = 0;
  std::uint64_t journal_replays = 0;
  std::uint64_t journal_records_replayed = 0;
  std::uint64_t journal_torn_tails = 0;

  double pool_hit_rate() const {
    return pool_acquires == 0 ? 1.0
                              : static_cast<double>(pool_reuses) /
                                    static_cast<double>(pool_acquires);
  }
};

class DfiProxy {
 public:
  // An in-process endpoint: sees each frame's bytes for the call only.
  using SendFn = std::function<void(const std::vector<std::uint8_t>&)>;
  // A socket endpoint: takes each pooled frame and returns it to
  // buffer_pool() once written (or dropped).
  using FrameSink = std::function<void(std::vector<std::uint8_t> frame)>;
  // Runs an in-process delivery later (DfiSystem supplies it).
  using DeferFn = std::function<void(std::function<void()> deliver)>;

  // One proxied switch<->controller connection pair.
  class Session {
   public:
    explicit Session(DfiProxy& proxy);

    // Bytes arriving from the switch side / the controller side: one call
    // is one read batch.
    void from_switch(const std::vector<std::uint8_t>& chunk);
    void from_controller(const std::vector<std::uint8_t>& chunk);

    // Socket-transport entry points (src/net/asyncio): a Connection owns
    // its FrameDecoder and readv()s into it directly, so complete frames
    // arrive here with no intermediate chunk copy. *_frame processes one
    // frame; switch_batch_end closes the switch's read batch exactly where
    // from_switch would at chunk end (submit the Packet-in run, reset the
    // admission count); *_stream_corrupt records the transport hitting
    // unrecoverable framing (length < 8). from_switch/from_controller are
    // thin wrappers over these, so both transports share one code path.
    void switch_frame(const FrameView& view);
    void controller_frame(const FrameView& view);
    void switch_batch_end();
    void switch_stream_corrupt();
    void controller_stream_corrupt();

    std::optional<Dpid> dpid() const { return dpid_; }

   private:
    friend class DfiProxy;

    // Wire fast path: pass-through / in-place patch / decode fallback for
    // one complete frame (DESIGN.md §5 classification table).
    void fast_path_from_switch(const FrameView& view);
    void fast_path_from_controller(const FrameView& view);
    void handle_switch_message(OfMessage message);
    void handle_controller_message(OfMessage message);
    // Encode into a pooled frame and emit it.
    void send_to_switch(const OfMessage& message);
    void send_to_controller(const OfMessage& message);
    // Hand one pooled frame to the endpoint: inline into a socket session's
    // sink, or deferred for an in-process one. A deferred delivery no-ops
    // if the session is destroyed in the meantime; its buffer returns to
    // the pool either way.
    void emit(bool to_switch, std::vector<std::uint8_t> frame);
    // Packet-in batching: submit the pending run to the PCP as one batch.
    void flush_packet_ins();

    DfiProxy& proxy_;
    // In-process sessions deliver through these (deferred)...
    SendFn to_switch_;
    SendFn to_controller_;
    // ...socket sessions through these (inline).
    FrameSink switch_sink_;
    FrameSink controller_sink_;
    FrameDecoder switch_decoder_;
    FrameDecoder controller_decoder_;
    std::optional<Dpid> dpid_;
    std::uint8_t switch_num_tables_ = 0;
    // The current run of consecutive table-0 Packet-ins, submitted before
    // any other message and at the end of every read batch — never carried
    // across either boundary.
    std::vector<PolicyCompilationPoint::BatchItem> pending_pins_;
    // Packet-ins the PCP admitted from the current read batch (its inline
    // admission bound spans every run of the batch).
    std::size_t batch_admitted_ = 0;
    // Liveness token: deferred deliveries and in-flight PCP decision
    // callbacks capture this instead of trusting `this` to outlive them.
    // destroy_session() flips it, turning every outstanding closure into a
    // no-op — tearing a session down mid-Packet-in must not touch freed
    // memory.
    std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
  };

  DfiProxy(PolicyCompilationPoint& pcp, DeferFn defer);
  ~DfiProxy();

  DfiProxy(const DfiProxy&) = delete;
  DfiProxy& operator=(const DfiProxy&) = delete;

  // An in-process session: deliveries are deferred through the DeferFn.
  Session& create_session(SendFn to_switch, SendFn to_controller);
  // A socket session: deliveries go straight to the sinks.
  Session& create_socket_session(FrameSink to_switch, FrameSink to_controller);

  // Tear a session down immediately: its switch is unregistered from the
  // PCP and every outstanding deferred delivery or in-flight decision
  // callback becomes a no-op. Models the control channel dying mid-flight.
  // Call before re-creating a session for the same switch — the new
  // session's PCP registration must come after the old one is gone.
  void destroy_session(Session& session);

  std::size_t session_count() const { return sessions_.size(); }

  // Degraded-mode gate (DESIGN.md §6). While the attached HealthMonitor
  // reports a non-healthy plane, undecided table-0 Packet-ins are not
  // handed to the PCP: fail-secure suppresses them (invariant I1 holds by
  // construction — nothing reaches the controller), fail-open forwards
  // them to the controller undecided. Detached (nullptr) or disabled
  // monitoring leaves the pre-existing behavior untouched.
  void attach_health(HealthMonitor* health) { health_ = health; }
  // Observe a journal's recovery counters through stats() (read-only).
  void attach_journal_stats(const Journal* journal) { journal_ = journal; }

  const ProxyStats& stats() const;
  const FrameBufferPool& buffer_pool() const { return pool_; }
  // Mutable access for transports that acquire/release pooled frames around
  // the wire (src/net/asyncio) — same control-thread-only discipline as the
  // proxy itself.
  FrameBufferPool& buffer_pool() { return pool_; }

 private:
  friend class Session;

  Session& add_session();

  PolicyCompilationPoint& pcp_;
  DeferFn defer_;
  HealthMonitor* health_ = nullptr;
  const Journal* journal_ = nullptr;
  std::vector<std::unique_ptr<Session>> sessions_;
  // Frame buffers shared by every session: forwarding reuses capacity
  // instead of allocating per message.
  FrameBufferPool pool_;
  // Proxy-level liveness token, flipped in the destructor: a deferred
  // delivery whose session died can still return its pooled buffer as long
  // as the proxy (and so the pool) is alive — pool accounting must reach
  // zero outstanding at quiesce, severed sessions included.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
  mutable ProxyStats stats_;
};

}  // namespace dfi
