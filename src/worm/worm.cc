#include "worm/worm.h"

#include <cassert>

#include "common/logging.h"

namespace dfi {

WormScenario::WormScenario(EnterpriseTestbed& testbed, WormConfig config)
    : testbed_(testbed), config_(config), rng_(config.seed) {}

void WormScenario::infect_foothold(const Hostname& host, SimTime at) {
  testbed_.sim().schedule_at(at, [this, host]() {
    infect(host, Hostname{}, /*via_exploit=*/false);
  });
}

bool WormScenario::infect(const Hostname& host, const Hostname& from, bool via_exploit) {
  if (infected_.count(host) != 0) return false;
  infected_.insert(host);
  records_.push_back(InfectionRecord{host, from, testbed_.sim().now(), via_exploit});
  DFI_INFO << format_clock(testbed_.sim().now()) << " worm: " << host.value
           << " infected"
           << (from.value.empty() ? " (foothold)"
                                  : " from " + from.value +
                                        (via_exploit ? " [exploit]" : " [credential]"));
  start_instance(host);
  return true;
}

void WormScenario::start_instance(const Hostname& host) {
  auto instance = std::make_shared<Instance>();
  instance->host = host;
  instance->rng = rng_.fork();
  const double active_minutes = instance->rng.uniform_real(
      config_.min_active_minutes, config_.max_active_minutes);
  instance->active_until = testbed_.sim().now() + minutes(active_minutes);

  // Reconnaissance: every endpoint except ourselves, shuffled.
  for (const auto& endpoint : testbed_.endpoints()) {
    if (endpoint != host) instance->targets.push_back(endpoint);
  }
  instance->rng.shuffle(instance->targets);

  attempt_next(std::move(instance));
}

void WormScenario::attempt_next(std::shared_ptr<Instance> instance) {
  Simulator& sim = testbed_.sim();
  if (sim.now() >= instance->active_until) {
    ++stats_.timed_out_instances;
    DFI_INFO << format_clock(sim.now()) << " worm: " << instance->host.value
             << " timed out (lock-down)";
    return;
  }
  if (instance->next_target >= instance->targets.size()) {
    // Sweep complete: wait, reshuffle, go again.
    instance->next_target = 0;
    instance->rng.shuffle(instance->targets);
    sim.schedule_after(config_.sweep_pause, [this, instance = std::move(instance)]() mutable {
      attempt_next(std::move(instance));
    });
    return;
  }
  const Hostname target = instance->targets[instance->next_target++];
  attack_target(std::move(instance), target);
}

void WormScenario::attack_target(std::shared_ptr<Instance> instance,
                                 const Hostname& target) {
  Host* attacker = testbed_.host(instance->host);
  Host* victim = testbed_.host(target);
  assert(attacker != nullptr && victim != nullptr);

  ++stats_.connection_attempts;
  attacker->connect(
      victim->ip(), config_.target_port,
      [this, instance = std::move(instance), target](const ConnectResult& result) mutable {
        Simulator& inner_sim = testbed_.sim();
        if (!result.connected) {
          // Unreachable (policy-denied, queue-dropped, or refused): move on.
          attempt_next(std::move(instance));
          return;
        }
        ++stats_.connections_succeeded;

        // Vector 1: exploit payload, sent first.
        inner_sim.schedule_after(config_.exploit_time, [this, instance =
                                                            std::move(instance),
                                                        target]() mutable {
          if (config_.exploit_vector && testbed_.is_vulnerable(target)) {
            if (infect(target, instance->host, /*via_exploit=*/true)) {
              ++stats_.exploit_successes;
            }
            attempt_next(std::move(instance));
            return;
          }
          if (!config_.credential_vector) {
            attempt_next(std::move(instance));
            return;
          }
          // Vector 2: credential theft — any credential cached on the local
          // host that grants Local Administrator on the target.
          const auto creds = testbed_.directory().cached_credentials(instance->host);
          bool usable = false;
          for (const auto& user : creds) {
            if (testbed_.directory().is_local_admin(user, target)) {
              usable = true;
              break;
            }
          }
          testbed_.sim().schedule_after(
              config_.credential_time,
              [this, instance = std::move(instance), target, usable]() mutable {
                if (usable && infect(target, instance->host, /*via_exploit=*/false)) {
                  ++stats_.credential_successes;
                }
                attempt_next(std::move(instance));
              });
        });
      },
      config_.connect);
}

TimeSeries WormScenario::infection_curve() const {
  TimeSeries series;
  series.add(0.0, 0.0);
  std::size_t count = 0;
  for (const auto& record : records_) {
    ++count;
    series.add(static_cast<double>(record.at.us) / 1e6, static_cast<double>(count));
  }
  return series;
}

}  // namespace dfi
