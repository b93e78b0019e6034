#include "core/proxy.h"

#include <type_traits>

#include "common/logging.h"
#include "core/health_monitor.h"
#include "core/journal.h"

namespace dfi {

DfiProxy::DfiProxy(PolicyCompilationPoint& pcp, DeferFn defer)
    : pcp_(pcp), defer_(std::move(defer)) {}

DfiProxy::~DfiProxy() {
  *alive_ = false;
  for (const auto& session : sessions_) {
    // Outstanding deferred deliveries must become no-ops: the sessions and
    // the pool die with the proxy.
    *session->alive_ = false;
    if (session->dpid_.has_value()) pcp_.unregister_switch(*session->dpid_);
  }
}

const ProxyStats& DfiProxy::stats() const {
  // Counters owned elsewhere are mirrored on read so ProxyStats stays one
  // flat struct for tests, benches and the harness recovery report.
  const FrameBufferPool::Stats pool = pool_.stats();
  stats_.pool_acquires = pool.acquires;
  stats_.pool_reuses = pool.reuses;
  stats_.resync_clears = pcp_.stats().resync_clears;
  if (health_ != nullptr) {
    stats_.degraded_entries = health_->stats().degraded_entries;
    stats_.degraded_exits = health_->stats().degraded_exits;
    stats_.backoff_retries = health_->stats().backoff_retries;
  }
  if (journal_ != nullptr) {
    stats_.journal_replays = journal_->stats().replays;
    stats_.journal_records_replayed = journal_->stats().records_replayed;
    stats_.journal_torn_tails = journal_->stats().torn_tails_truncated;
  }
  return stats_;
}

DfiProxy::Session& DfiProxy::add_session() {
  sessions_.push_back(std::make_unique<Session>(*this));
  return *sessions_.back();
}

DfiProxy::Session& DfiProxy::create_session(SendFn to_switch, SendFn to_controller) {
  Session& session = add_session();
  session.to_switch_ = std::move(to_switch);
  session.to_controller_ = std::move(to_controller);
  return session;
}

DfiProxy::Session& DfiProxy::create_socket_session(FrameSink to_switch,
                                                   FrameSink to_controller) {
  Session& session = add_session();
  session.switch_sink_ = std::move(to_switch);
  session.controller_sink_ = std::move(to_controller);
  return session;
}

void DfiProxy::destroy_session(Session& session) {
  // Kill outstanding closures first: an in-flight PCP decision callback or
  // deferred delivery may fire after the erase below frees the session.
  *session.alive_ = false;
  if (session.dpid_.has_value()) pcp_.unregister_switch(*session.dpid_);
  // Its undecided Packet-ins, submitted or still in the pending run: the
  // frames go home now, and their verdicts find the slots freed.
  for (std::uint32_t slot = 0; slot < in_flight_.size(); ++slot) {
    if (in_flight_[slot].session == &session) pool_.release(take_packet_in(slot));
  }
  for (auto it = sessions_.begin(); it != sessions_.end(); ++it) {
    if (it->get() == &session) {
      sessions_.erase(it);
      return;
    }
  }
}

std::uint32_t DfiProxy::hold_packet_in(Session& session,
                                       std::vector<std::uint8_t> frame) {
  std::uint32_t slot = 0;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(in_flight_.size());
    in_flight_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  in_flight_[slot].session = &session;
  in_flight_[slot].frame = std::move(frame);
  return slot;
}

std::vector<std::uint8_t> DfiProxy::take_packet_in(std::uint32_t slot) {
  InFlightPacketIn& held = in_flight_[slot];
  held.session = nullptr;
  ++held.generation;
  free_slots_.push_back(slot);
  return std::move(held.frame);
}

void DfiProxy::packet_in_decided(std::uint32_t slot, std::uint32_t generation,
                                 bool allow) {
  // Session torn down while the decision was in flight: its frame is
  // already back in the pool, and the slot may hold another Packet-in now.
  if (in_flight_[slot].generation != generation) return;
  Session& session = *in_flight_[slot].session;
  std::vector<std::uint8_t> frame = take_packet_in(slot);
  if (!allow) {
    ++stats_.packet_ins_suppressed;
    pool_.release(std::move(frame));
    return;  // denied: the controller never sees this packet
  }
  ++stats_.packet_ins_forwarded;
  // Table 0 in the controller's shifted view is its own first table, so
  // the frame's table_id 0 is already correct after the allow.
  session.emit(/*to_switch=*/false, std::move(frame));
}

DfiProxy::Session::Session(DfiProxy& proxy) : proxy_(proxy) {}

void DfiProxy::Session::send_to_switch(const OfMessage& message) {
  std::vector<std::uint8_t> frame = proxy_.pool_.acquire();
  // The PCP's decision FlowMod has a one-pass writer; everything else,
  // its deletes included, takes the general encoder.
  const auto* mod = std::get_if<FlowModMsg>(&message.payload);
  if (mod != nullptr && is_exact_rule(*mod)) {
    encode_exact_rule_into(message.xid, *mod, frame);
  } else {
    encode_into(message, frame);
  }
  emit(/*to_switch=*/true, std::move(frame));
}

void DfiProxy::Session::send_to_controller(const OfMessage& message) {
  std::vector<std::uint8_t> frame = proxy_.pool_.acquire();
  encode_into(message, frame);
  emit(/*to_switch=*/false, std::move(frame));
}

void DfiProxy::Session::emit(bool to_switch, std::vector<std::uint8_t> frame) {
  if (switch_sink_) {
    (to_switch ? switch_sink_ : controller_sink_)(std::move(frame));
    return;
  }
  proxy_.defer_([this, proxy = &proxy_, alive = alive_, proxy_alive = proxy_.alive_,
                 to_switch, out = std::move(frame)]() mutable {
    // Severed session: nothing is delivered. Either way the pooled buffer
    // goes home through the captured proxy pointer, never `this` — the
    // SendFn may request teardown of its own session, after which `this`
    // is untrusted.
    if (*alive) (to_switch ? to_switch_ : to_controller_)(out);
    if (*proxy_alive) proxy->pool_.release(std::move(out));
  });
}

void DfiProxy::Session::switch_frame(const FrameView& view) {
  ++proxy_.stats_.from_switch;
  fast_path_from_switch(view);
}

void DfiProxy::Session::controller_frame(const FrameView& view) {
  ++proxy_.stats_.from_controller;
  fast_path_from_controller(view);
}

void DfiProxy::Session::switch_batch_end() {
  // A Packet-in run never outlives its read batch: everything the switch
  // sent in this read is on its way to the PCP before control returns.
  flush_packet_ins();
  batch_admitted_ = 0;
}

void DfiProxy::Session::switch_stream_corrupt() {
  ++proxy_.stats_.from_switch;
  ++proxy_.stats_.malformed;
  DFI_WARN << "proxy: malformed frame from switch: frame length < 8";
}

void DfiProxy::Session::controller_stream_corrupt() {
  ++proxy_.stats_.from_controller;
  ++proxy_.stats_.malformed;
  DFI_WARN << "proxy: malformed frame from controller: frame length < 8";
}

void DfiProxy::Session::from_switch(const std::vector<std::uint8_t>& chunk) {
  switch_decoder_.feed(chunk);
  FrameView view;
  for (;;) {
    const FrameStatus status = switch_decoder_.next_frame(view);
    if (status == FrameStatus::kAwait) break;
    if (status == FrameStatus::kCorrupt) {
      switch_stream_corrupt();
      break;  // the decoder reset the stream
    }
    switch_frame(view);
  }
  switch_batch_end();
}

void DfiProxy::Session::from_controller(const std::vector<std::uint8_t>& chunk) {
  controller_decoder_.feed(chunk);
  FrameView view;
  for (;;) {
    const FrameStatus status = controller_decoder_.next_frame(view);
    if (status == FrameStatus::kAwait) break;
    if (status == FrameStatus::kCorrupt) {
      controller_stream_corrupt();
      break;
    }
    controller_frame(view);
  }
}

void DfiProxy::Session::fast_path_from_switch(const FrameView& view) {
  switch (classify(view, ProxyDirection::kSwitchToController, switch_num_tables_)) {
    case FrameClass::kPassThrough:
      ++proxy_.stats_.frames_fast_path;
      emit(/*to_switch=*/false, proxy_.pool_.acquire_copy(view.data(), view.size()));
      return;
    case FrameClass::kPacketIn:
      // Canonical table-0 Packet-in: its bytes are what an allow forwards.
      ++proxy_.stats_.frames_fast_path;
      packet_in_to_pcp(proxy_.pool_.acquire_copy(view.data(), view.size()));
      return;
    case FrameClass::kPatch: {
      if (view.type() == OfType::kFlowRemoved &&
          view.data()[kFlowRemovedTableOffset] == 0) {
        // DFI-internal rule expiry: invisible to the controller, dropped
        // without even a copy.
        ++proxy_.stats_.frames_fast_path;
        return;
      }
      std::vector<std::uint8_t> frame =
          proxy_.pool_.acquire_copy(view.data(), view.size());
      if (!patch_table_refs(frame.data(), frame.size(),
                            ProxyDirection::kSwitchToController)) {
        proxy_.pool_.release(std::move(frame));
        break;  // revalidation failed: slow path decides on the original bytes
      }
      ++proxy_.stats_.frames_patched;
      emit(/*to_switch=*/false, std::move(frame));
      return;
    }
    case FrameClass::kDecode:
      break;
  }
  ++proxy_.stats_.frames_decoded;
  auto result = decode(view);
  if (!result.ok()) {
    ++proxy_.stats_.malformed;
    DFI_WARN << "proxy: malformed frame from switch: " << result.error().message;
    return;
  }
  handle_switch_message(std::move(result).value());
}

void DfiProxy::Session::fast_path_from_controller(const FrameView& view) {
  switch (classify(view, ProxyDirection::kControllerToSwitch, switch_num_tables_)) {
    case FrameClass::kPassThrough:
      ++proxy_.stats_.frames_fast_path;
      emit(/*to_switch=*/true, proxy_.pool_.acquire_copy(view.data(), view.size()));
      return;
    case FrameClass::kPatch: {
      std::vector<std::uint8_t> frame =
          proxy_.pool_.acquire_copy(view.data(), view.size());
      if (!patch_table_refs(frame.data(), frame.size(),
                            ProxyDirection::kControllerToSwitch)) {
        proxy_.pool_.release(std::move(frame));
        break;
      }
      ++proxy_.stats_.frames_patched;
      if (view.type() == OfType::kFlowMod) ++proxy_.stats_.flow_mods_shifted;
      emit(/*to_switch=*/true, std::move(frame));
      return;
    }
    case FrameClass::kDecode:
    case FrameClass::kPacketIn:  // switch -> controller only
      break;
  }
  ++proxy_.stats_.frames_decoded;
  auto result = decode(view);
  if (!result.ok()) {
    ++proxy_.stats_.malformed;
    DFI_WARN << "proxy: malformed frame from controller: " << result.error().message;
    return;
  }
  handle_controller_message(std::move(result).value());
}

void DfiProxy::Session::flush_packet_ins() {
  if (pending_pins_.empty()) return;
  batch_admitted_ += proxy_.pcp_.handle_packet_in_batch(pending_pins_, batch_admitted_);
  for (std::size_t i = 0; i < pending_pins_.size(); ++i) {
    if (!pending_pins_[i].accepted) {
      // Admission rejected it (fail-secure: never forwarded undecided); the
      // flow re-enters on endpoint retransmission (paper Section V-A).
      ++proxy_.stats_.packet_ins_suppressed;
      proxy_.pool_.release(proxy_.take_packet_in(pending_slots_[i]));
    }
  }
  pending_pins_.clear();
  pending_slots_.clear();
}

void DfiProxy::Session::packet_in_to_pcp(std::vector<std::uint8_t> frame) {
  // Miss in DFI's table: this flow has no access-control decision yet.
  // The PCP decides first; only allowed packets reach the controller.
  if (!dpid_.has_value()) {
    ++proxy_.stats_.packet_ins_suppressed;
    proxy_.pool_.release(std::move(frame));
    DFI_WARN << "proxy: packet-in before handshake completed; dropped";
    return;
  }
  // Degraded-mode gate (DESIGN.md §6): while the control plane is
  // degraded or recovering the PCP's answer cannot be trusted — the
  // store may be mid-replay, shards may be dead. Fail-secure extends
  // default-deny to component failure: the flow is suppressed and
  // re-enters on retransmission once the plane is healthy (invariant
  // I1 holds through the window by construction). Fail-open is the
  // paper-discussed alternative stance, implemented for the ablation:
  // the controller sees the packet undecided.
  if (proxy_.health_ != nullptr && proxy_.health_->gating()) {
    if (proxy_.health_->mode() == DegradedMode::kFailSecure) {
      ++proxy_.stats_.packet_ins_suppressed;
      ++proxy_.stats_.degraded_suppressed;
      proxy_.pool_.release(std::move(frame));
      return;
    }
    ++proxy_.stats_.degraded_forwarded;
    ++proxy_.stats_.packet_ins_forwarded;
    emit(/*to_switch=*/false, std::move(frame));
    return;
  }
  ++proxy_.stats_.packet_ins_to_pcp;
  // Join the current run; the read batch's end (or the next decoded
  // non-Packet-in message) submits it to the PCP. The input is parsed from
  // the frame's packet bytes, and the frame waits in an in-flight slot for
  // the verdict the callback delivers.
  const PacketInFields fields = packet_in_fields(FrameView(frame.data(), frame.size()));
  PolicyCompilationPoint::BatchItem& item = pending_pins_.emplace_back();
  item.input = make_decision_input(*dpid_, fields.in_port, fields.data, fields.size);
  const std::uint32_t slot = proxy_.hold_packet_in(*this, std::move(frame));
  auto done = [proxy = &proxy_, slot, generation = proxy_.in_flight_[slot].generation](
                  const PcpDecision& decision) {
    proxy->packet_in_decided(slot, generation, decision.allow);
  };
  // std::function keeps a callable this small and trivially copyable in
  // its own storage: submitting a Packet-in allocates nothing.
  static_assert(sizeof(done) <= 16 && std::is_trivially_copyable_v<decltype(done)>);
  item.done = done;
  pending_slots_.push_back(slot);
}

void DfiProxy::Session::handle_switch_message(OfMessage message) {
  // A run collects *consecutive* table-0 Packet-ins only: any other message
  // type flushes the pending run first, so the PCP sees submissions in
  // exact arrival order.
  if (!pending_pins_.empty()) {
    const auto* packet_in = std::get_if<PacketInMsg>(&message.payload);
    if (packet_in == nullptr || packet_in->table_id != 0) flush_packet_ins();
  }

  // Learn identity from the handshake and register this switch with the
  // PCP; the PCP's writes (Table 0 flow mods) go straight to the switch,
  // not through table shifting.
  if (auto* features = std::get_if<FeaturesReplyMsg>(&message.payload)) {
    dpid_ = features->datapath_id;
    switch_num_tables_ = features->n_tables;
    proxy_.pcp_.register_switch(*dpid_, [this, alive = alive_](const OfMessage& msg) {
      if (*alive) send_to_switch(msg);
    });
    // Hide DFI's reserved table from the controller.
    FeaturesReplyMsg shifted = *features;
    if (shifted.n_tables > 0) --shifted.n_tables;
    send_to_controller(OfMessage{message.xid, shifted});
    return;
  }

  if (auto* packet_in = std::get_if<PacketInMsg>(&message.payload)) {
    if (packet_in->table_id == 0) {
      // A non-canonical table-0 Packet-in: re-encoded once into the
      // canonical frame, it takes the fast path's route to the PCP.
      std::vector<std::uint8_t> frame = proxy_.pool_.acquire();
      encode_into(message, frame);
      packet_in_to_pcp(std::move(frame));
      return;
    }
    // Miss in a controller table: the flow already passed DFI's Table 0.
    PacketInMsg shifted = *packet_in;
    --shifted.table_id;
    send_to_controller(OfMessage{message.xid, shifted});
    return;
  }

  if (auto* removed = std::get_if<FlowRemovedMsg>(&message.payload)) {
    if (removed->table_id == 0) return;  // DFI-internal; invisible to controller
    FlowRemovedMsg shifted = *removed;
    --shifted.table_id;
    send_to_controller(OfMessage{message.xid, shifted});
    return;
  }

  if (auto* reply = std::get_if<MultipartReplyMsg>(&message.payload)) {
    MultipartReplyMsg shifted;
    shifted.stats_type = reply->stats_type;
    shifted.port_stats = reply->port_stats;  // port stats carry no table ids
    for (const auto& entry : reply->flow_stats) {
      if (entry.table_id == 0) {
        ++proxy_.stats_.stats_entries_hidden;
        continue;  // DFI rules are not reported to the controller
      }
      FlowStatsEntry adjusted = entry;
      --adjusted.table_id;
      if (adjusted.instructions.goto_table.has_value() &&
          *adjusted.instructions.goto_table > 0) {
        --*adjusted.instructions.goto_table;
      }
      shifted.flow_stats.push_back(std::move(adjusted));
    }
    send_to_controller(OfMessage{message.xid, std::move(shifted)});
    return;
  }

  // Hello, Echo, Error, Barrier replies: pass through unchanged.
  send_to_controller(std::move(message));
}

void DfiProxy::Session::handle_controller_message(OfMessage message) {
  if (auto* flow_mod = std::get_if<FlowModMsg>(&message.payload)) {
    FlowModMsg shifted = *flow_mod;
    if (shifted.table_id == 0xff) {
      // OFPTT_ALL is only valid for deletes; it must not touch Table 0.
      // Expand to one delete per controller-visible table.
      if (shifted.command == FlowModCommand::kDelete ||
          shifted.command == FlowModCommand::kDeleteStrict) {
        const std::uint8_t tables = switch_num_tables_ == 0 ? 4 : switch_num_tables_;
        for (std::uint8_t table = 1; table < tables; ++table) {
          FlowModMsg per_table = shifted;
          per_table.table_id = table;
          if (per_table.instructions.goto_table.has_value()) {
            ++*per_table.instructions.goto_table;
          }
          ++proxy_.stats_.flow_mods_shifted;
          send_to_switch(OfMessage{message.xid, std::move(per_table)});
        }
        return;
      }
      // ADD/MODIFY to ALL is a controller bug; reject.
      ++proxy_.stats_.controller_errors;
      send_to_controller(OfMessage{
          message.xid, ErrorMsg{/*FLOW_MOD_FAILED*/ 5, /*BAD_TABLE_ID*/ 2, {}}});
      return;
    }
    const std::uint8_t tables = switch_num_tables_ == 0 ? 4 : switch_num_tables_;
    if (shifted.table_id + 1 >= tables) {
      // The controller addressed a table beyond its shifted range.
      ++proxy_.stats_.controller_errors;
      send_to_controller(OfMessage{
          message.xid, ErrorMsg{/*FLOW_MOD_FAILED*/ 5, /*BAD_TABLE_ID*/ 2, {}}});
      return;
    }
    ++shifted.table_id;
    if (shifted.instructions.goto_table.has_value()) {
      ++*shifted.instructions.goto_table;
    }
    ++proxy_.stats_.flow_mods_shifted;
    send_to_switch(OfMessage{message.xid, std::move(shifted)});
    return;
  }

  if (auto* request = std::get_if<MultipartRequestMsg>(&message.payload)) {
    MultipartRequestMsg shifted = *request;
    if (shifted.stats_type == kStatsTypeFlow && shifted.flow_request.table_id != 0xff) {
      ++shifted.flow_request.table_id;
    }
    send_to_switch(OfMessage{message.xid, std::move(shifted)});
    return;
  }

  // Hello, Echo, FeaturesRequest, PacketOut, Barrier: pass through.
  send_to_switch(std::move(message));
}

}  // namespace dfi
