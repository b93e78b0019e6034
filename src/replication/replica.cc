#include "replication/replica.h"

#include <algorithm>

#include "common/logging.h"

namespace dfi {

using repl::FrameType;
using repl::ReplFrame;

Replica::Replica(ReplicaConfig config, Journal& journal, PolicyManager& manager,
                 EntityResolutionManager& erm, HealthMonitor* health)
    : config_(config),
      journal_(journal),
      manager_(manager),
      erm_(erm),
      health_(health),
      rng_(config.seed) {}

Replica::~Replica() { journal_.set_append_observer(nullptr); }

void Replica::set_send(std::function<void(const std::string& bytes)> send) {
  send_ = std::move(send);
}

// --------------------------------------------------------------------- role

void Replica::open_session() {
  session_nonce_ = rng_.next_u64();
  if (session_nonce_ == 0) session_nonce_ = 1;  // 0 = "never followed anyone"
  last_seq_ = 0;
  acked_seq_ = 0;
  retransmit_.clear();
  batch_.clear();
  standby_synced_ = false;
}

void Replica::become_primary() {
  primary_ = true;
  open_session();
  journal_.set_append_observer(
      [this](const std::string& payload) { on_local_append(payload); });
}

void Replica::become_standby() {
  primary_ = false;
  standby_synced_ = false;
  journal_.set_append_observer(nullptr);
  decoder_.reset();
  batch_.clear();
  retransmit_.clear();
  send_hello();
}

void Replica::promote() {
  // Durable fence bump past everything observed: records the deposed
  // primary might still try to ship are now provably stale, and our own
  // journal can never be fenced by anything already seen.
  const Status status = journal_.set_fence_epoch(journal_.observed_fence() + 1);
  if (!status.ok()) {
    DFI_WARN << "replica: fence bump failed on promotion: " << status.to_string();
  }
  become_primary();
  DFI_WARN << "replica: promoted to primary, fence epoch "
           << journal_.fence_epoch() << ", session " << session_nonce_;
}

void Replica::stand_down(std::uint64_t observed_fence) {
  journal_.observe_fence(observed_fence);
  if (!primary_) return;
  primary_ = false;
  standby_synced_ = false;
  retransmit_.clear();
  batch_.clear();
  journal_.set_append_observer(nullptr);
  if (health_ != nullptr) health_->set_role(ReplicaRole::kStandby);
  DFI_WARN << "replica: deposed by fence epoch " << observed_fence
           << " (own " << journal_.fence_epoch() << "), standing down";
  // The peer that fenced us IS the live primary, and the link that carried
  // the reject is up: resubscribe immediately. Our dirty plane will refuse
  // the snapshot and raise needs_restart — the supervisor rebuilds fresh.
  send_hello();
}

// --------------------------------------------------------------------- link

void Replica::on_bytes(const std::uint8_t* data, std::size_t size) {
  decoder_.feed(data, size);
  ReplFrame frame;
  bool applied = false;
  // CrashException may fly out of handle_record/handle_snapshot (standby
  // store death). Frames already decoded but not yet applied die with the
  // process — the restart re-hellos and the primary re-ships.
  while (decoder_.next(frame)) {
    const std::uint64_t before = stats_.records_applied + stats_.records_duplicate;
    on_frame(frame);
    applied |= (stats_.records_applied + stats_.records_duplicate) != before;
  }
  if (applied) {
    // One cumulative ack per ingress batch, not per record.
    send_control(FrameType::kAck, next_seq_ - 1);
    ++stats_.acks_sent;
  }
  if (decoder_.poisoned()) {
    ++stats_.decode_errors;
    DFI_WARN << "replica: replication stream poisoned, dropping link";
    on_link_down();
  }
}

void Replica::on_link_down() {
  decoder_.reset();
  batch_.clear();
  if (primary_) standby_synced_ = false;
  // A standby does nothing here: the failover deadline in HealthMonitor
  // decides whether the silence means a dead primary.
}

// ------------------------------------------------------------------- frames

void Replica::on_frame(const ReplFrame& frame) {
  switch (frame.type) {
    case FrameType::kHello: handle_hello(frame); break;
    case FrameType::kSnapshot: handle_snapshot(frame); break;
    case FrameType::kRecord: handle_record(frame); break;
    case FrameType::kAck: handle_ack(frame); break;
    case FrameType::kHeartbeat: handle_heartbeat(frame); break;
    case FrameType::kFenceReject: handle_fence_reject(frame); break;
  }
}

void Replica::handle_hello(const ReplFrame& frame) {
  ++stats_.hellos_received;
  if (frame.fence > journal_.fence_epoch()) {
    // The hello sender has seen a higher fence than ours: if we think we
    // are primary, we were deposed while partitioned.
    stand_down(frame.fence);
    return;
  }
  if (!primary_) return;
  const bool same_session = session_nonce_ != 0 && frame.nonce == session_nonce_;
  const std::uint64_t tail_floor =
      retransmit_.empty() ? last_seq_ + 1 : retransmit_.front().first;
  if (same_session && frame.seq >= tail_floor && frame.seq <= last_seq_ + 1) {
    // The buffer still covers everything the standby is missing: catch it
    // up in-session instead of re-seeding.
    if (frame.seq > 0) handle_ack({FrameType::kAck, frame.fence, frame.seq - 1, frame.nonce, {}});
    send_tail_from(frame.seq);
    standby_synced_ = true;
    return;
  }
  send_snapshot();
}

void Replica::handle_snapshot(const ReplFrame& frame) {
  if (frame.fence < journal_.fence_epoch()) {
    send_control(FrameType::kFenceReject, frame.seq);
    ++stats_.fence_rejects_sent;
    return;
  }
  if (primary_) {
    // A snapshot with a fence at least as high as ours while we believe we
    // are primary: same-fence means protocol confusion (drop it), higher
    // fence means we were deposed — stand down and fall through as the
    // standby we now are.
    if (frame.fence == journal_.fence_epoch()) return;
    stand_down(frame.fence);
  }
  if (health_ != nullptr) health_->peer_heartbeat();
  if (manager_.size() != 0 || erm_.binding_count() != 0) {
    // No in-place re-seed: a snapshot only installs into a fresh plane
    // (header comment). The supervisor rebuilds us empty and re-hellos.
    needs_restart_ = true;
    ++stats_.restarts_required;
    DFI_WARN << "replica: snapshot refused (dirty plane), restart required";
    return;
  }
  const Status status =
      journal_.install_snapshot(frame.payload, frame.fence, manager_, erm_);
  if (!status.ok()) {
    ++stats_.decode_errors;
    DFI_WARN << "replica: snapshot install failed: " << status.to_string();
    return;
  }
  session_nonce_ = frame.nonce;
  next_seq_ = frame.seq + 1;
  ++stats_.snapshots_installed;
  send_control(FrameType::kAck, frame.seq);
  ++stats_.acks_sent;
}

void Replica::handle_record(const ReplFrame& frame) {
  if (frame.fence < journal_.fence_epoch()) {
    // Stale sender (a deposed primary that has not yet heard): fence it.
    send_control(FrameType::kFenceReject, frame.seq);
    ++stats_.fence_rejects_sent;
    return;
  }
  if (primary_) {
    if (frame.fence > journal_.fence_epoch()) stand_down(frame.fence);
    return;  // equal-fence record at a primary: protocol confusion, drop
  }
  if (health_ != nullptr) health_->peer_heartbeat();
  if (frame.nonce != session_nonce_) {
    ++stats_.resyncs_requested;
    send_hello();
    return;
  }
  if (frame.seq < next_seq_) {
    ++stats_.records_duplicate;  // retransmit overlap; cumulative ack covers it
    return;
  }
  if (frame.seq > next_seq_) {
    ++stats_.resyncs_requested;
    send_hello();
    return;
  }
  if (frame.fence > journal_.fence_epoch()) {
    // Adopt the primary's fence verbatim (durable f| record) before the
    // record that carried it.
    const Status status = journal_.set_fence_epoch(frame.fence);
    if (!status.ok()) {
      DFI_WARN << "replica: fence adopt failed: " << status.to_string();
      return;
    }
  }
  // WAL ordering on the standby too: durable local append, then apply.
  // CrashException from the store flies through — process boundary.
  const Status status = journal_.ingest_replicated(frame.payload, manager_, erm_);
  if (!status.ok()) {
    ++stats_.decode_errors;
    DFI_WARN << "replica: record apply failed: " << status.to_string();
    return;
  }
  ++stats_.records_applied;
  next_seq_ = frame.seq + 1;
}

void Replica::handle_ack(const ReplFrame& frame) {
  ++stats_.acks_received;
  if (!primary_) return;
  if (frame.seq > acked_seq_) acked_seq_ = frame.seq;
  while (!retransmit_.empty() && retransmit_.front().first <= acked_seq_) {
    retransmit_.pop_front();
  }
}

void Replica::handle_heartbeat(const ReplFrame& frame) {
  ++stats_.heartbeats_received;
  if (frame.fence < journal_.fence_epoch()) {
    send_control(FrameType::kFenceReject, frame.seq);
    ++stats_.fence_rejects_sent;
    return;
  }
  if (primary_) {
    if (frame.fence > journal_.fence_epoch()) stand_down(frame.fence);
    return;
  }
  if (health_ != nullptr) health_->peer_heartbeat();
  if (frame.nonce != session_nonce_ || frame.seq >= next_seq_) {
    // New session, or the primary's high-water mark is past what we have:
    // records were lost on a dropped link. Resubscribe from where we are.
    ++stats_.resyncs_requested;
    send_hello();
  }
}

void Replica::handle_fence_reject(const ReplFrame& frame) {
  ++stats_.fence_rejects_received;
  // frame.fence here is the REJECTING side's epoch (send_control stamps the
  // sender's own fence): strictly higher than ours or it would not have
  // rejected.
  stand_down(frame.fence);
}

// ------------------------------------------------------------------ sending

void Replica::on_local_append(const std::string& payload) {
  ++last_seq_;
  retransmit_.emplace_back(last_seq_, payload);
  if (retransmit_.size() > config_.retransmit_cap) {
    // Standby too far behind to catch up in-session; stop buffering and
    // force its next hello down the snapshot path.
    retransmit_.clear();
    standby_synced_ = false;
  }
  if (!standby_synced_) return;
  ReplFrame frame{FrameType::kRecord, journal_.fence_epoch(), last_seq_,
                  session_nonce_, payload};
  batch_ += repl::encode_frame(frame);
  ++stats_.records_shipped;
  if (config_.flush_threshold == 0 || batch_.size() >= config_.flush_threshold) {
    flush();
  }
}

void Replica::send_snapshot() {
  flush();
  ReplFrame frame{FrameType::kSnapshot, journal_.fence_epoch(), last_seq_,
                  session_nonce_, Journal::snapshot_payload(manager_, erm_)};
  send_now(repl::encode_frame(frame));
  ++stats_.snapshots_sent;
  // The snapshot reflects every append up to last_seq_; nothing before it
  // can ever need retransmission.
  acked_seq_ = std::max(acked_seq_, last_seq_);
  retransmit_.clear();
  standby_synced_ = true;
}

void Replica::send_tail_from(std::uint64_t seq) {
  flush();
  for (const auto& [buffered_seq, payload] : retransmit_) {
    if (buffered_seq < seq) continue;
    ReplFrame frame{FrameType::kRecord, journal_.fence_epoch(), buffered_seq,
                    session_nonce_, payload};
    batch_ += repl::encode_frame(frame);
    ++stats_.records_shipped;
    ++stats_.retransmits;
  }
  flush();
}

void Replica::send_hello() {
  ++stats_.hellos_sent;
  send_control(FrameType::kHello, next_seq_);
}

void Replica::send_control(FrameType type, std::uint64_t seq, std::string payload) {
  flush();  // control frames must not overtake batched records
  ReplFrame frame{type, journal_.fence_epoch(), seq, session_nonce_,
                  std::move(payload)};
  send_now(repl::encode_frame(frame));
}

void Replica::send_now(const std::string& bytes) {
  if (!send_) return;
  stats_.bytes_shipped += bytes.size();
  send_(bytes);
}

void Replica::flush() {
  if (batch_.empty()) return;
  std::string out;
  out.swap(batch_);
  ++stats_.batches_flushed;
  send_now(out);
}

void Replica::tick_heartbeat() {
  if (!primary_) {
    if (health_ != nullptr) health_->poll();
    return;
  }
  ReplFrame frame{FrameType::kHeartbeat, journal_.fence_epoch(), last_seq_,
                  session_nonce_, {}};
  flush();
  send_now(repl::encode_frame(frame));
  ++stats_.heartbeats_sent;
}

}  // namespace dfi
