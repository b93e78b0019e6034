#include "sim/paper_timing.h"

#include <algorithm>
#include <utility>

namespace dfi {

PaperTiming::PaperTiming(Simulator& sim, std::size_t shards,
                         std::size_t queue_capacity, double service_scale,
                         std::uint64_t seed)
    : sim_(sim),
      pcp_rng_(seed),
      proxy_rng_(seed ^ 0x9e3779b97f4a7c15ull),
      binding_(LogNormalParams::from_moments(2.41 * service_scale, 0.97 * service_scale)),
      policy_(LogNormalParams::from_moments(2.52 * service_scale, 0.85 * service_scale)),
      other_(LogNormalParams::from_moments(0.39 * service_scale, 0.27 * service_scale)),
      proxy_(LogNormalParams::from_moments(0.16, 0.72)) {
  for (std::size_t i = 0; i < std::max<std::size_t>(1, shards); ++i) {
    stations_.push_back(
        std::make_unique<ServiceStation>(sim, kWorkersPerShard, queue_capacity));
  }
}

PaperTiming::Draw PaperTiming::draw() {
  Draw d;
  d.binding_ms = pcp_rng_.lognormal(binding_);
  d.policy_ms = pcp_rng_.lognormal(policy_);
  d.other_ms = pcp_rng_.lognormal(other_);
  d.total_ms = d.binding_ms + d.policy_ms + d.other_ms;
  return d;
}

void PaperTiming::record(const Draw& d) {
  binding_ms_.add(d.binding_ms);
  policy_ms_.add(d.policy_ms);
  other_ms_.add(d.other_ms);
  total_ms_.add(d.total_ms);
}

bool PaperTiming::admit(std::size_t shard, std::function<void()> decide) {
  // Drawn before admission: a dropped job still consumes its draws, so the
  // sequence depends only on the arrival order.
  const Draw d = draw();
  return stations_[shard]->submit(
      [total_ms = d.total_ms] { return milliseconds(total_ms); },
      [this, d, decide = std::move(decide)](SimTime, SimTime) {
        record(d);
        decide();
      });
}

double PaperTiming::draw_blocking_ms() {
  const Draw d = draw();
  record(d);
  return d.total_ms;
}

void PaperTiming::delay(std::function<void()> deliver) {
  const double delay_ms = proxy_rng_.lognormal(proxy_);
  proxy_ms_.add(delay_ms);
  sim_.schedule_after(milliseconds(delay_ms), std::move(deliver));
}

}  // namespace dfi
