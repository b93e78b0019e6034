// Layer replay of the traced run: the workload's own Packet-ins pushed
// through each layer's public entry points one stage at a time, in
// pipeline order, against the live system's current snapshots. Every
// figure is nanoseconds per call, averaged over the sample.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/dfi_system.h"
#include "workload.h"

namespace e2e {

struct ReplayCosts {
  double frame_ns = 0;          // FrameDecoder feed + next_frame, per frame
  double classify_ns = 0;       // classify(), switch->controller
  double decode_ns = 0;         // decode(FrameView) of a table-0 Packet-in
  double parse_ns = 0;          // make_decision_input
  double snapshot_view_ns = 0;  // ERM + policy snapshot_view(), both calls
  double decide_hit_ns = 0;     // decide_on_snapshots, decision-cache hit
  double decide_miss_ns = 0;    // decide_on_snapshots, zero-capacity cache
  double validate_ns = 0;       // ErmSnapshot::validate_identity
  double enrich_ns = 0;         // ErmSnapshot::enrich, per endpoint
  double query_ns = 0;          // PolicySnapshot::query
  double compile_ns = 0;        // compile_exact_rule
  double encode_ns = 0;         // encode_into, the decision FlowMod
  double encode_pin_ns = 0;     // encode_into, the Packet-in forwarded
  double patch_ns = 0;          // copy + patch_table_refs, controller reply
};

// `rounds` passes over up to 512 of the workload's flows per stage;
// `controller_reply` is the controller emulator's FlowMod.
ReplayCosts replay_layers(const Workload& workload, dfi::DfiSystem& system,
                          const std::vector<std::uint8_t>& controller_reply,
                          std::size_t rounds);

}  // namespace e2e
