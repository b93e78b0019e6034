#include "harness/cbench.h"

#include <cassert>

namespace dfi {
namespace {

constexpr Dpid kCbenchDpid{0xcb};

}  // namespace

CbenchEmulator::CbenchEmulator(CbenchConfig config) : rng_(config.seed) {
  dfi_ = std::make_unique<DfiSystem>(sim_, bus_, config.dfi);

  ControllerConfig controller_config;
  controller_config.zero_latency = true;  // isolate DFI, per the paper
  controller_ = std::make_unique<LearningController>(sim_, controller_config,
                                                     Rng(config.seed ^ 0xc0ull));

  SwitchConfig switch_config;
  switch_config.dpid = kCbenchDpid;
  switch_config.table_capacity = 1 << 20;  // never the bottleneck here
  switch_ = std::make_unique<SwitchDevice>(switch_config, sim_.clock());

  // Wire switch <-> proxy <-> controller with zero-latency channels. The
  // proxy->switch leg counts FLOW_MOD frames: one completed DFI decision
  // each (the PCP's compiled rule or a flush).
  struct Wiring {
    DfiProxy::Session* proxy = nullptr;
    LearningController::Session* ctrl = nullptr;
  };
  auto wiring = std::make_shared<Wiring>();

  DfiProxy::Session& proxy_session = dfi_->proxy().create_session(
      [this](const std::vector<std::uint8_t>& bytes) {
        if (bytes.size() >= 2 &&
            bytes[1] == static_cast<std::uint8_t>(OfType::kFlowMod)) {
          ++flow_mods_seen_;
          // Like cbench, count the response but do not apply it: the
          // emulated switch would otherwise accumulate one exact-match
          // rule per randomized flow.
          return;
        }
        switch_->receive_control(bytes);
      },
      [wiring](const std::vector<std::uint8_t>& bytes) {
        if (wiring->ctrl != nullptr) wiring->ctrl->receive(bytes);
      });
  wiring->proxy = &proxy_session;

  LearningController::Session& ctrl_session =
      controller_->accept_connection([wiring](const std::vector<std::uint8_t>& bytes) {
        if (wiring->proxy != nullptr) wiring->proxy->from_controller(bytes);
      });
  wiring->ctrl = &ctrl_session;

  switch_->add_port(PortNo{1}, [](PortNo, const std::vector<std::uint8_t>&) {});
  switch_->add_port(PortNo{2}, [](PortNo, const std::vector<std::uint8_t>&) {});
  switch_->connect_control([wiring](const std::vector<std::uint8_t>& bytes) {
    if (wiring->proxy != nullptr) wiring->proxy->from_switch(bytes);
  });
  sim_.run_until(sim_.now() + seconds(1.0));  // settle the handshake

  // Allow-all policy: cbench measures processing cost, not policy outcome.
  PolicyRule allow_all;
  allow_all.action = PolicyAction::kAllow;
  dfi_->policy_manager().insert(allow_all, PdpPriority{1}, "cbench-allow-all");
}

CbenchEmulator::~CbenchEmulator() = default;

void CbenchEmulator::inject_random_flow() {
  // Randomized headers, as cbench generates: unique MACs/IPs/ports so every
  // packet is a new flow (exact-match DFI rules never match it).
  const MacAddress src = MacAddress::from_u64(0x060000000000ull | (rng_.next_u64() & 0xffffffff));
  const MacAddress dst = MacAddress::from_u64(0x0a0000000000ull | (rng_.next_u64() & 0xffffffff));
  const Ipv4Address src_ip(static_cast<std::uint32_t>(rng_.next_u64()));
  const Ipv4Address dst_ip(static_cast<std::uint32_t>(rng_.next_u64()));
  const auto sport = static_cast<std::uint16_t>(rng_.uniform_int(1024, 65535));
  const auto dport = static_cast<std::uint16_t>(rng_.uniform_int(1, 1023));
  const Packet packet = make_tcp_packet(src, dst, src_ip, dst_ip, sport, dport);
  switch_->receive_packet(PortNo{1}, packet.serialize());
}

SampleStats CbenchEmulator::run_latency_mode(int samples) {
  SampleStats latency_ms;
  for (int i = 0; i < samples; ++i) {
    const std::uint64_t before = flow_mods_seen_;
    const SimTime start = sim_.now();
    inject_random_flow();
    // Serial mode: run until this flow's rule lands in the switch.
    while (flow_mods_seen_ == before && !sim_.empty()) {
      sim_.run_until(sim_.now() + milliseconds(1.0));
    }
    latency_ms.add((sim_.now() - start).to_ms());
    sim_.run();  // drain any trailing controller traffic
  }
  return latency_ms;
}

double CbenchEmulator::run_throughput_mode(double offered_fps, SimDuration duration) {
  assert(offered_fps > 0.0);
  const SimTime window_start = sim_.now();
  const SimTime window_end = window_start + duration;

  // Open-loop Poisson arrivals.
  std::function<void()> arrival = [&]() {
    if (sim_.now() >= window_end) return;
    inject_random_flow();
    sim_.schedule_after(seconds(rng_.exponential(1.0 / offered_fps)), arrival);
  };
  const std::uint64_t before = flow_mods_seen_;
  sim_.schedule_at(window_start, arrival);
  sim_.run_until(window_end);
  const std::uint64_t completed = flow_mods_seen_ - before;
  sim_.run();  // drain
  return static_cast<double>(completed) / duration.to_seconds();
}

double CbenchEmulator::find_saturation(double start_fps, double step_fps,
                                       double max_fps, SimDuration window) {
  double best = 0.0;
  for (double rate = start_fps; rate <= max_fps; rate += step_fps) {
    const double achieved = run_throughput_mode(rate, window);
    if (achieved > best) best = achieved;
    // Past saturation the achieved rate stops tracking the offered rate.
    if (achieved < rate * 0.85 && rate > start_fps) break;
  }
  return best;
}

}  // namespace dfi
