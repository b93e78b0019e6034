#include "core/health_monitor.h"

#include <algorithm>

#include "common/logging.h"

namespace dfi {

HealthMonitor::HealthMonitor(ClockFn clock, MessageBus& bus, HealthConfig config,
                             Rng rng)
    : clock_(std::move(clock)),
      bus_(bus),
      config_(config),
      rng_(rng),
      heartbeat_subscription_(bus.subscribe<HeartbeatEvent>(
          topics::kHealthHeartbeats,
          [this](const HeartbeatEvent& event) { heartbeat(event.component); })) {}

void HealthMonitor::set_clock(ClockFn clock) {
  clock_ = std::move(clock);
  const SimTime now = clock_();
  for (auto& [component, beat] : last_beat_) beat = now;
  last_peer_beat_ = now;
  recovering_since_ = now;
}

void HealthMonitor::watch(const std::string& component) {
  last_beat_.emplace(component, clock_());
  poll();
}

void HealthMonitor::heartbeat(const std::string& component) {
  ++stats_.heartbeats;
  last_beat_[component] = clock_();
  poll();
}

void HealthMonitor::unwatch(const std::string& component) {
  last_beat_.erase(component);
  poll();
}

void HealthMonitor::enter_degraded(const std::string& reason) {
  ++degraded_refs_;
  DFI_DEBUG << "health: degraded window opened (" << reason << "), refs "
            << degraded_refs_;
  poll();
}

void HealthMonitor::exit_degraded(const std::string& reason) {
  if (degraded_refs_ > 0) --degraded_refs_;
  DFI_DEBUG << "health: degraded window closed (" << reason << "), refs "
            << degraded_refs_;
  poll();
}

void HealthMonitor::watch_shards(std::function<std::size_t()> dead,
                                 std::function<std::size_t()> respawn) {
  dead_shards_ = std::move(dead);
  respawn_shards_ = std::move(respawn);
  poll();
}

SimDuration HealthMonitor::backoff_delay(int attempt) {
  // base * 2^attempt, capped, then jittered by a uniform factor in
  // [1 - j, 1 + j]. The shift is bounded so the doubling cannot overflow
  // before the cap applies.
  const int shift = std::min(attempt, 30);
  SimDuration delay = config_.backoff_base * (std::int64_t{1} << shift);
  if (delay > config_.backoff_cap || delay.us < 0) delay = config_.backoff_cap;
  const double jitter = std::clamp(config_.backoff_jitter, 0.0, 1.0);
  const double factor = rng_.uniform_real(1.0 - jitter, 1.0 + jitter);
  delay.us = static_cast<std::int64_t>(static_cast<double>(delay.us) * factor);
  if (delay.us < 1) delay.us = 1;
  return delay;
}

void HealthMonitor::enable_failover(ReplicaRole role,
                                    std::function<void()> on_promote) {
  failover_enabled_ = true;
  on_promote_ = std::move(on_promote);
  set_role(role);
}

void HealthMonitor::set_role(ReplicaRole role) {
  if (role_ == ReplicaRole::kPrimary && role != ReplicaRole::kPrimary) {
    ++stats_.demotions;
    DFI_WARN << "health: primary demoted to " << to_string(role);
  }
  role_ = role;
  // (Re)arm the peer-staleness clock: a primary that never shows up is as
  // dead as one that stopped beating.
  if (role_ == ReplicaRole::kStandby) last_peer_beat_ = clock_();
  poll();
}

void HealthMonitor::peer_heartbeat() {
  if (!failover_enabled_ || role_ != ReplicaRole::kStandby) return;
  ++stats_.heartbeats;
  last_peer_beat_ = clock_();
  poll();
}

void HealthMonitor::promote_now() {
  if (!failover_enabled_ || role_ != ReplicaRole::kStandby) return;
  if (in_poll_) {
    run_promotion();
    return;
  }
  in_poll_ = true;
  run_promotion();
  in_poll_ = false;
  poll();  // settle the state machine through the post-handover conditions
}

bool HealthMonitor::peer_stale() const {
  return failover_enabled_ && role_ == ReplicaRole::kStandby &&
         clock_() - last_peer_beat_ > config_.failover_deadline;
}

void HealthMonitor::run_promotion() {
  role_ = ReplicaRole::kPromoting;
  DFI_WARN << "health: replication peer stale, promoting standby";
  // The handover runs inside an explicit degraded window: between the
  // peer's death and the promoted node's Table-0 resync no decision is
  // trustworthy. Refs are touched directly (not enter/exit_degraded) —
  // this already runs under the in_poll_ guard.
  ++degraded_refs_;
  if (state_ == HealthState::kHealthy) transition_to(HealthState::kDegraded);
  if (on_promote_) on_promote_();
  if (degraded_refs_ > 0) --degraded_refs_;
  role_ = ReplicaRole::kPrimary;
  ++stats_.promotions;
}

void HealthMonitor::poll() {
  if (in_poll_) return;  // transition callbacks may mutate; don't recurse
  in_poll_ = true;

  // Failover first: the handover changes the conditions the state machine
  // below evaluates (the stale peer is the standby's problem to inherit,
  // not to stay degraded over forever).
  if (peer_stale()) run_promotion();

  const std::size_t dead = dead_shards_ ? dead_shards_() : 0;
  const bool bad = conditions_bad(dead);

  switch (state_) {
    case HealthState::kHealthy:
      if (bad) transition_to(HealthState::kDegraded);
      break;
    case HealthState::kDegraded:
      if (!bad) {
        recovering_since_ = clock_();
        transition_to(HealthState::kRecovering);
        // A zero hold recovers in the same evaluation.
        if (clock_() - recovering_since_ >= config_.recovering_hold) {
          transition_to(HealthState::kHealthy);
        }
      }
      break;
    case HealthState::kRecovering:
      if (bad) {
        transition_to(HealthState::kDegraded);
      } else if (clock_() - recovering_since_ >= config_.recovering_hold) {
        transition_to(HealthState::kHealthy);
      }
      break;
  }

  // Respawn only after the evaluation above: a dead worker degrades the
  // plane for at least one window before the supervisor replaces it.
  if (dead > 0 && respawn_shards_) {
    stats_.shard_respawns += respawn_shards_();
  }
  in_poll_ = false;
}

bool HealthMonitor::conditions_bad(std::size_t dead_shards) {
  if (degraded_refs_ > 0) return true;
  if (dead_shards > 0) return true;
  const SimTime now = clock_();
  for (const auto& [component, beat] : last_beat_) {
    if (now - beat > config_.heartbeat_deadline) {
      ++stats_.deadline_misses;
      return true;
    }
  }
  return false;
}

void HealthMonitor::transition_to(HealthState next) {
  const HealthState from = state_;
  if (from == next) return;
  state_ = next;
  if (next == HealthState::kDegraded) ++stats_.degraded_entries;
  if (next == HealthState::kHealthy) ++stats_.degraded_exits;
  DFI_DEBUG << "health: " << to_string(from) << " -> " << to_string(next);
  for (const auto& callback : transition_callbacks_) callback(from, next);
}

bool HealthMonitor::gating() {
  if (!config_.enabled) return false;
  poll();
  return state_ != HealthState::kHealthy;
}

void HealthMonitor::on_transition(TransitionCallback callback) {
  transition_callbacks_.push_back(std::move(callback));
}

}  // namespace dfi
