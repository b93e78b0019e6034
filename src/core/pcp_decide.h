// Pure half of the Policy Compilation Point (DESIGN.md §5).
//
// PR 1 made the Packet-in decision cheap; this layer makes it *pure*:
// decide_on_snapshots() maps a DecisionInput plus an immutable
// (ErmSnapshot, PolicySnapshot) pair to a verdict, a compiled Table-0 rule,
// and a list of deferred effects — without touching live component state,
// publishing on the bus, writing to switches, or logging. Everything
// stateful (the MAC-location sensor, stats counters, rule installation, the
// done callback) is described by the returned DecisionEffects and applied
// by the stateful PCP shell, which lets the same decision function run
//   * synchronously on the control thread (the single-PCP oracle and the
//     live inline path),
//   * at the modelled completion of the paper's service stations, and
//   * on real worker threads (core/pcp_shard_pool.h),
// with byte-identical verdicts and rules.
//
// The one stateful concession is the per-shard DecisionCache: it is passed
// in by reference and each shard's cache is only ever touched by that
// shard's execution context, so the function stays data-race free without
// locks. An entry holds the verdict, the deciding policy and the compiled
// rule — not the enriched FlowView, which only a miss builds — so a hit
// copies no name vectors.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "core/decision_cache.h"
#include "core/erm_snapshot.h"
#include "core/policy_snapshot.h"
#include "net/packet.h"
#include "openflow/messages.h"

namespace dfi {

// Where the PCP runs decisions.
enum class PcpBackend {
  // On the control thread. Without a timing model (the live path) a
  // Packet-in is decided inline at submission; with the paper's model
  // (sim/paper_timing.h) it waits in its shard's modelled service station
  // and is decided when its Table II service time has elapsed.
  kSimulated,
  // On one std::thread worker per shard (core/pcp_shard_pool.h); effects
  // apply on the control thread in submission order. With the paper's
  // model each worker first blocks for its decision's Table II draw.
  kThreads,
};

struct PcpConfig {
  // Admission bound per shard. The paper's model queues this many jobs
  // past its busy workers; the threaded backend sizes its ingress rings
  // with it; the inline path admits at most this many Packet-ins from one
  // session's read batch (DESIGN.md §9).
  std::size_t queue_capacity = 32;

  // Scale-out (DESIGN.md §5): Packet-ins are partitioned across this many
  // logical PCP shards by canonical-flow-tuple hash. Each shard is a full
  // capacity unit (its own modelled station or worker thread, bounded
  // queue, and decision cache). 1 reproduces the paper's single PCP.
  std::size_t shards = 1;
  PcpBackend backend = PcpBackend::kSimulated;

  // Flow-rule shape.
  std::uint16_t rule_priority = 100;
  std::uint8_t controller_first_table = 1;  // allow -> goto this table

  // Extension (paper Section III-B future work, CAB-ACME): install safe
  // wildcard generalizations of the deciding policy instead of one
  // exact-match rule per flow. See core/rule_cache.h for the safety gates.
  bool wildcard_caching = false;

  // Decision cache (core/decision_cache.h): replay a prior decision for an
  // identical flow tuple when neither the policy epoch nor the binding
  // epoch has moved since it was derived. 0 disables. This trims real CPU
  // from the hot path only; the paper's model draws its Table II service
  // times regardless, so calibrated latency/throughput shapes (Table I,
  // Fig. 4) are unchanged.
  std::size_t decision_cache_capacity = 8192;
};

// Outcome of one access-control decision.
struct PcpDecision {
  bool allow = false;
  bool spoofed = false;
  PolicyDecision policy;
  // The enriched view the decision was made on. Filled on a decision-cache
  // miss only: the cache does not keep it, so a hit leaves it empty.
  FlowView flow;
  FlowModMsg installed_rule;
};

// Everything the pure decision function reads about one Packet-in, fixed
// before the decision runs.
struct DecisionInput {
  Dpid dpid{};
  PortNo in_port{};
  // Parsed packet; nullopt when the frame was unparsable (default deny, no
  // compilable rule).
  std::optional<Packet> packet;
  // Canonical flow tuple (valid iff `packet`): decision-cache key and shard
  // router.
  FlowKey flow_key{};
  // The ERM's (dpid, src MAC) location binding as of input capture. The MAC
  // location map is deliberately outside ErmSnapshot (core/erm_snapshot.h);
  // the location spoof check only bites for multicast source MACs — for
  // unicast sources the PCP's own sensor asserts the observed location
  // before deciding, making the check a tautology — so one scalar suffices.
  std::optional<PortNo> prior_src_location;
};

// The immutable state pair one decision is a function of.
struct DecisionSnapshots {
  ErmSnapshot erm;
  std::shared_ptr<const PolicySnapshot> policy;
};

// What the stateful shell must do with a finished decision. Produced on the
// deciding context, applied on the control thread.
struct DecisionEffects {
  PcpDecision decision;
  bool unparsable = false;
  bool cache_hit = false;        // replayed from the shard's decision cache
  bool has_rule = false;         // install decision.installed_rule
  bool wildcard_installed = false;
  bool wildcard_fallback = false;
  // The wildcard match was narrowed with identity bindings; the shell must
  // track decision.policy.rule_id for retraction-driven flushes.
  bool identity_derived = false;
  std::string spoof_reason;      // non-empty: log the spoof denial
};

// Parse + canonicalize one Packet-in's packet bytes into a DecisionInput
// (without prior_src_location, which the caller captures from the live ERM
// at the point in time its backend requires). The proxy calls it on the
// bytes inside the frame (packet_in_fields, openflow/wire.h): no decode.
DecisionInput make_decision_input(Dpid dpid, PortNo in_port, const std::uint8_t* data,
                                  std::size_t size);
DecisionInput make_decision_input(Dpid dpid, const PacketInMsg& msg);

// Compile the exact-match Table-0 rule for `packet` (every identifier
// available in the packet is specified — Section III-B).
FlowModMsg compile_exact_rule(const Packet& packet, PortNo in_port, bool allow,
                              Cookie cookie, const PcpConfig& config);

// The pure access-control decision: spoof validation, enrichment (late
// binding), policy query (default deny), rule compilation — all against the
// snapshot pair. `cache` is the executing shard's decision cache.
DecisionEffects decide_on_snapshots(const DecisionInput& input,
                                    const DecisionSnapshots& snapshots,
                                    DecisionCache<PcpDecision>& cache,
                                    const PcpConfig& config);

}  // namespace dfi
