// Supervised component health + fail-secure degradation (DESIGN.md §6).
//
// The paper's core guarantee — denied packets never reach the controller —
// must hold *especially* while the control plane is failing or recovering:
// a wedged sensor feed means bindings may be stale, a dead PCP shard means
// decisions may never complete, a store mid-replay means the policy
// database is not yet authoritative. The HealthMonitor makes those
// conditions explicit instead of undefined:
//
//   * components (sensor feeds, PDPs, shard-worker watchdogs) emit
//     heartbeats — directly or over the `health.heartbeats` bus topic; a
//     beat older than the configured deadline degrades the plane;
//   * subsystems hold explicit degraded windows (ref-counted) around
//     operations during which decisions must not be trusted: journal
//     replay, dead-shard recovery;
//   * supervised reconnects (ConnectionManager::dial_supervised) draw
//     their capped, jittered exponential backoff here and land their
//     attempts in the same ledger.
//
// State machine:  kHealthy -> kDegraded -> kRecovering -> kHealthy
//
//   kHealthy     all deadlines met, no degraded windows, no dead shards.
//   kDegraded    some condition holds. The proxy stops trusting the PCP:
//                in kFailSecure mode new flows are denied outright (the
//                paper's default-deny, extended to component failure); in
//                kFailOpen mode they are forwarded to the controller
//                undecided (the paper discusses this stance and rejects
//                it; it is implemented for the ablation, not the default).
//   kRecovering  conditions cleared; a dwell period guards against flapping.
//                Gating continues — a decision made from state that was
//                degraded a tick ago is not yet trustworthy.
//
// On the kRecovering -> kHealthy transition the DfiSystem resyncs Table 0
// on every switch (PolicyCompilationPoint::resync_all): rules installed or
// flushes missed across the degraded window cannot be trusted, so flows
// re-enter via Packet-in and are re-decided against current state.
//
// The monitor schedules nothing and reads time only through its ClockFn:
// the simulator's clock in simulated compositions, monotonic wall time on
// the socket path (the SocketFrontend switches it with set_clock()). State
// is re-evaluated on every mutation and every gating query, and
// periodically by the transport that owns the deadline: the frontend's
// tick, the replication link's heartbeat timer.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "bus/message_bus.h"
#include "common/rng.h"
#include "common/sim_time.h"
#include "services/events.h"

namespace dfi {

enum class HealthState { kHealthy, kDegraded, kRecovering };

inline const char* to_string(HealthState state) {
  switch (state) {
    case HealthState::kHealthy: return "healthy";
    case HealthState::kDegraded: return "degraded";
    case HealthState::kRecovering: return "recovering";
  }
  return "?";
}

// What the proxy does with undecided table-0 Packet-ins while degraded.
enum class DegradedMode { kFailSecure, kFailOpen };

// Warm-standby pair role (DESIGN.md §6.3). kNone: replication disabled —
// the monitor behaves exactly as before. A standby whose peer heartbeat
// goes stale past failover_deadline runs the handover:
//
//   kStandby -> kPromoting -> kPrimary
//
// kPromoting is entered inside a degraded window (decisions during the
// handover are gated fail-secure) and exits once the promotion callback —
// fence-epoch bump, journal finalize, Table-0 resync — returns.
enum class ReplicaRole { kNone, kPrimary, kStandby, kPromoting };

inline const char* to_string(ReplicaRole role) {
  switch (role) {
    case ReplicaRole::kNone: return "none";
    case ReplicaRole::kPrimary: return "primary";
    case ReplicaRole::kStandby: return "standby";
    case ReplicaRole::kPromoting: return "promoting";
  }
  return "?";
}

struct HealthConfig {
  bool enabled = false;  // default off: existing experiments unperturbed
  DegradedMode degraded_mode = DegradedMode::kFailSecure;

  // A watched component whose last beat is older than this degrades the
  // plane.
  SimDuration heartbeat_deadline = seconds(3.0);
  // Dwell in kRecovering before declaring kHealthy (anti-flap).
  SimDuration recovering_hold = seconds(1.0);

  // Capped jittered exponential backoff for supervised reconnects.
  SimDuration backoff_base = milliseconds(100);
  SimDuration backoff_cap = seconds(30.0);
  double backoff_jitter = 0.5;  // uniform in [1-j, 1+j] applied to the delay
  int max_reconnect_attempts = 20;  // 0 = unlimited

  // A standby whose peer heartbeat is older than this starts promotion.
  // Deliberately separate from heartbeat_deadline: the replication stream
  // beats at its own cadence, and failover should not be coupled to local
  // component liveness.
  SimDuration failover_deadline = seconds(2.0);
};

struct HealthStats {
  std::uint64_t heartbeats = 0;
  std::uint64_t deadline_misses = 0;
  std::uint64_t degraded_entries = 0;  // transitions into kDegraded
  std::uint64_t degraded_exits = 0;    // transitions into kHealthy
  std::uint64_t backoff_retries = 0;
  std::uint64_t reconnects_abandoned = 0;
  std::uint64_t shard_respawns = 0;
  std::uint64_t promotions = 0;   // kStandby -> kPrimary handovers completed
  std::uint64_t demotions = 0;    // set_role away from kPrimary (fenced out)
};

class HealthMonitor {
 public:
  using TransitionCallback = std::function<void(HealthState from, HealthState to)>;

  HealthMonitor(ClockFn clock, MessageBus& bus, HealthConfig config, Rng rng);

  HealthMonitor(const HealthMonitor&) = delete;
  HealthMonitor& operator=(const HealthMonitor&) = delete;

  const HealthConfig& config() const { return config_; }
  DegradedMode mode() const { return config_.degraded_mode; }

  // Read time from `clock` from now on. Every running deadline (component
  // beats, the peer beat, the recovering dwell) restarts at the new clock's
  // now, so a switch can delay a deadline but never trip one early.
  void set_clock(ClockFn clock);

  // ----------------------------------------------------------- heartbeats
  // Start tracking a component (its deadline clock starts now). Heartbeats
  // for unwatched components implicitly watch them.
  void watch(const std::string& component);
  void heartbeat(const std::string& component);
  void unwatch(const std::string& component);

  // ------------------------------------------------- explicit degradation
  // Ref-counted degraded windows around operations whose outputs must not
  // be trusted (journal replay, dead-shard recovery).
  void enter_degraded(const std::string& reason);
  void exit_degraded(const std::string& reason);

  // ---------------------------------------------------------- shard watch
  // Supervise a shard pool through two probes: how many workers are dead,
  // and how to respawn them. Dead workers degrade the plane for at least
  // one evaluation, then are respawned.
  void watch_shards(std::function<std::size_t()> dead,
                    std::function<std::size_t()> respawn);

  // ------------------------------------------------------------ reconnect
  // Capped jittered exponential backoff delay for the given 0-based
  // attempt number.
  SimDuration backoff_delay(int attempt);

  // The reconnect supervisor (ConnectionManager::dial_supervised) holds a
  // degraded window while its link is down and accounts its attempts here,
  // so HealthStats is the single ledger of reconnect activity.
  void count_backoff_retry() { ++stats_.backoff_retries; }
  void count_reconnect_abandoned() { ++stats_.reconnects_abandoned; }

  // ------------------------------------------------------------- failover
  // Place this node in a warm-standby pair (DESIGN.md §6.3). `on_promote`
  // runs synchronously inside the promotion's degraded window; it is the
  // embedder's handover: bump the journal fence epoch, finalize replication
  // state, resync Table 0. A standby promotes when its peer heartbeat goes
  // stale past failover_deadline (evaluated on every poll), or immediately
  // via promote_now() — e.g. on a peer RST/FIN from the replication link.
  void enable_failover(ReplicaRole role, std::function<void()> on_promote);
  // Reassign the role without a handover: a freshly (re)connected replica
  // adopting standby, or a deposed primary standing down after observing a
  // higher fence. Demoting away from kPrimary counts stats().demotions and
  // (re)arms the peer-staleness clock.
  void set_role(ReplicaRole role);
  ReplicaRole role() const { return role_; }
  // Liveness beat from the replication peer (stream heartbeat or any
  // received record). Only meaningful for a standby.
  void peer_heartbeat();
  // Run the handover now (peer declared dead out-of-band). No-op unless
  // failover is enabled and the role is kStandby.
  void promote_now();

  // ----------------------------------------------------------- evaluation
  // Re-evaluate conditions, run transitions (and their callbacks), respawn
  // dead shards. Called internally by every mutator and by gating().
  void poll();

  // Should the proxy treat the plane as degraded right now? True whenever
  // monitoring is enabled and the state is not kHealthy (kRecovering still
  // gates — see the header comment).
  bool gating();

  HealthState state() const { return state_; }
  std::uint64_t degraded_refs() const { return degraded_refs_; }

  // Observe state transitions (e.g. the DfiSystem's Table-0 resync on the
  // transition to kHealthy). Callbacks run synchronously inside poll().
  void on_transition(TransitionCallback callback);

  const HealthStats& stats() const { return stats_; }

 private:
  void transition_to(HealthState next);
  bool conditions_bad(std::size_t dead_shards);
  // The handover itself: kPromoting + degraded window around on_promote_.
  void run_promotion();
  bool peer_stale() const;

  ClockFn clock_;
  MessageBus& bus_;
  HealthConfig config_;
  Rng rng_;
  Subscription heartbeat_subscription_;

  std::map<std::string, SimTime> last_beat_;
  std::uint64_t degraded_refs_ = 0;
  std::function<std::size_t()> dead_shards_;
  std::function<std::size_t()> respawn_shards_;

  ReplicaRole role_ = ReplicaRole::kNone;
  bool failover_enabled_ = false;
  std::function<void()> on_promote_;
  SimTime last_peer_beat_{};

  HealthState state_ = HealthState::kHealthy;
  SimTime recovering_since_{};
  std::vector<TransitionCallback> transition_callbacks_;
  bool in_poll_ = false;
  HealthStats stats_;
};

}  // namespace dfi
