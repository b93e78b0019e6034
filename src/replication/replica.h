// Warm-standby replication endpoint (DESIGN.md §6.3).
//
// One Replica object plays either side of the pair — the roles swap at
// failover, so the machinery for both lives in one class:
//
//   primary   observes every durable journal append (Journal::
//             set_append_observer), stamps it with (fence, seq, nonce) and
//             ships it as a kRecord frame; answers standby kHellos with
//             either a retransmit tail (same session, records still
//             buffered) or a full snapshot (Journal::snapshot_payload);
//             trims its retransmit buffer on cumulative kAcks; emits
//             kHeartbeats so the standby's failover clock stays fed.
//   standby   durably appends every received record to its OWN journal
//             before applying it (Journal::ingest_replicated — WAL
//             ordering holds on both nodes), acks cumulatively, and feeds
//             HealthMonitor::peer_heartbeat from every received frame.
//
// Fencing: every shipped frame carries the sender's fence epoch. A
// receiver whose own epoch is higher answers kFenceReject and applies
// nothing; the rejected sender observes the higher epoch, its journal
// fences out (every further local append throws FencedException), and it
// stands down to standby. Promotion (HealthMonitor's on_promote hook calls
// promote()) durably bumps the fence to observed+1 and starts a fresh
// session: new nonce, new seq space.
//
// Bootstrap discipline: a snapshot installs only into a FRESH state plane
// (PolicyManager/ERM have no reset — and a real re-seed discards local
// state anyway). When a snapshot arrives at a dirty standby the Replica
// raises needs_restart() instead of applying; the supervisor tears the
// plane down, rebuilds it empty, and re-hellos. The fuzzer models this as
// a standby process restart.
//
// The link is abstracted to bytes: set_send() is the egress, on_bytes()
// the ingress. Tests pump FaultSocket pairs through it; the asyncio
// transport (src/replication/repl_transport.h) binds a raw-mode Connection
// to the same two calls. Standby ingest may throw CrashException out of
// on_bytes() — that is the standby's process boundary, exactly as a store
// crash is for recovery.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>

#include "common/rng.h"
#include "core/entity_resolution.h"
#include "core/health_monitor.h"
#include "core/journal.h"
#include "core/policy_manager.h"
#include "replication/repl_frame.h"

namespace dfi {

struct ReplicaConfig {
  std::uint64_t seed = 1;  // session-nonce stream (deterministic in tests)
  // Outgoing kRecord frames accumulate until the batch reaches this many
  // bytes, then flush as one send (pipelining: the primary never waits for
  // acks). 0 = flush after every record. Control frames always flush.
  std::size_t flush_threshold = 0;
  // Unacked records buffered for retransmission. A standby further behind
  // than this re-bootstraps from a snapshot instead.
  std::size_t retransmit_cap = 65536;
};

struct ReplicaStats {
  std::uint64_t records_shipped = 0;
  std::uint64_t records_applied = 0;
  std::uint64_t records_duplicate = 0;
  std::uint64_t snapshots_sent = 0;
  std::uint64_t snapshots_installed = 0;
  std::uint64_t acks_sent = 0;
  std::uint64_t acks_received = 0;
  std::uint64_t heartbeats_sent = 0;
  std::uint64_t heartbeats_received = 0;
  std::uint64_t hellos_sent = 0;
  std::uint64_t hellos_received = 0;
  std::uint64_t fence_rejects_sent = 0;
  std::uint64_t fence_rejects_received = 0;
  std::uint64_t resyncs_requested = 0;   // standby-detected gap/nonce mismatch
  std::uint64_t retransmits = 0;         // records re-shipped from the buffer
  std::uint64_t batches_flushed = 0;
  std::uint64_t bytes_shipped = 0;
  std::uint64_t decode_errors = 0;       // poisoned streams (link torn down)
  std::uint64_t restarts_required = 0;   // snapshot refused: dirty plane
};

class Replica {
 public:
  Replica(ReplicaConfig config, Journal& journal, PolicyManager& manager,
          EntityResolutionManager& erm, HealthMonitor* health);
  ~Replica();

  Replica(const Replica&) = delete;
  Replica& operator=(const Replica&) = delete;

  // ------------------------------------------------------------------ link
  void set_send(std::function<void(const std::string& bytes)> send);
  // Peer bytes, any chunking. Standby ingest may throw CrashException.
  void on_bytes(const std::uint8_t* data, std::size_t size);
  // The link died (RST/EOF/poisoned stream). A primary stops shipping until
  // the standby re-hellos; a standby clears its decoder and waits for the
  // supervisor to re-dial (or for the failover deadline to promote it).
  void on_link_down();

  // ------------------------------------------------------------------ role
  // Start as the authoritative side: wires the journal append observer and
  // opens a fresh session (nonce, seq space).
  void become_primary();
  // Start as the follower: detaches the observer and sends a kHello
  // subscribing from the next expected sequence.
  void become_standby();
  // The handover (run from HealthMonitor's on_promote, inside the
  // promotion's degraded window): durably bump the fence epoch past
  // everything observed, then take over as primary with a new session.
  void promote();

  bool is_primary() const { return primary_; }

  // --------------------------------------------------------------- pumping
  // Flush any batched records to the link.
  void flush();
  // Call on a timer. A primary sends its liveness beat (and high-water seq,
  // so a silent standby can detect missed records); a standby evaluates
  // its failover deadline (HealthMonitor::poll), which may promote it.
  void tick_heartbeat();

  // Snapshot refused because this plane already holds state: the
  // supervisor must rebuild the plane fresh and re-hello. Sticky until
  // acknowledged via clear_needs_restart().
  bool needs_restart() const { return needs_restart_; }
  void clear_needs_restart() { needs_restart_ = false; }

  std::uint64_t last_seq() const { return last_seq_; }
  std::uint64_t next_expected_seq() const { return next_seq_; }
  std::uint64_t session_nonce() const { return session_nonce_; }
  std::size_t retransmit_buffered() const { return retransmit_.size(); }
  bool standby_synced() const { return standby_synced_; }
  const ReplicaStats& stats() const { return stats_; }

 private:
  void on_frame(const repl::ReplFrame& frame);
  void handle_hello(const repl::ReplFrame& frame);
  void handle_snapshot(const repl::ReplFrame& frame);
  void handle_record(const repl::ReplFrame& frame);
  void handle_ack(const repl::ReplFrame& frame);
  void handle_heartbeat(const repl::ReplFrame& frame);
  void handle_fence_reject(const repl::ReplFrame& frame);

  void on_local_append(const std::string& payload);
  void send_control(repl::FrameType type, std::uint64_t seq, std::string payload = {});
  void send_snapshot();
  void send_tail_from(std::uint64_t seq);
  void send_hello();
  void send_now(const std::string& bytes);
  void stand_down(std::uint64_t observed_fence);
  void open_session();

  ReplicaConfig config_;
  Journal& journal_;
  PolicyManager& manager_;
  EntityResolutionManager& erm_;
  HealthMonitor* health_;  // optional: peer beats + role ledger
  Rng rng_;

  std::function<void(const std::string&)> send_;
  repl::ReplFrameDecoder decoder_;
  std::string batch_;

  bool primary_ = false;
  bool standby_synced_ = false;  // primary: the standby is caught up / streaming
  bool needs_restart_ = false;
  std::uint64_t session_nonce_ = 0;
  std::uint64_t last_seq_ = 0;   // primary: highest seq shipped (or buffered)
  std::uint64_t acked_seq_ = 0;  // primary: highest cumulative ack
  std::uint64_t next_seq_ = 1;   // standby: next expected sequence
  // Unacked records for same-session tail retransmission: front().first is
  // the oldest buffered seq; contiguous.
  std::deque<std::pair<std::uint64_t, std::string>> retransmit_;

  ReplicaStats stats_;
};

}  // namespace dfi
