// Time-to-First-Byte experiment (paper Section V-A, Fig. 4).
//
// Reproduces the paper's end-to-end setup: a small data plane (one software
// switch, three end hosts) attached to the ONOS-surrogate controller either
// directly (no DFI) or through the DFI proxy. A prober host repeatedly
// opens TCP connections to a responder and measures SYN -> SYN-ACK time;
// simultaneously, randomized Ethernet packets are injected into the data
// plane at a configured rate as background traffic. Each background packet
// is a fresh flow, so the configured rate is the new-flow arrival rate on
// the control plane.
//
// End-to-end calibration: the paper's end-to-end DFI path saturates near
// 700-800 flows/sec although the isolated control plane sustains ~1350
// (Table I); the difference is per-connection overhead (OVS rule
// application, OpenFlow session handling) absent from the microbenchmark.
// `e2e_service_scale` models that overhead; see EXPERIMENTS.md.
#pragma once

#include <cstdint>

#include "common/sim_time.h"
#include "core/proxy.h"
#include "sim/paper_timing.h"
#include "sim/stats.h"

namespace dfi {

struct TtfbConfig {
  bool with_dfi = true;
  double background_fps = 0.0;        // new background flows per second
  SimDuration duration = seconds(30.0);
  SimDuration probe_interval = milliseconds(250);
  std::uint64_t seed = 0x77fb;
  // The paper timing model's service_scale in the end-to-end configuration
  // (see header comment). 1.0 reproduces Table I conditions.
  double e2e_service_scale = PaperTiming::kEndToEndServiceScale;
};

struct TtfbResult {
  SampleStats ttfb_ms;        // successful probes only
  int probes_sent = 0;
  int probes_failed = 0;      // timed out entirely
  std::uint64_t background_flows = 0;
  std::uint64_t control_plane_drops = 0;  // PCP queue rejections
  // Full proxy counters at end of run (with_dfi only), including the
  // recovery/degradation mirrors — feed to recovery_report().
  ProxyStats proxy;
};

TtfbResult run_ttfb_experiment(const TtfbConfig& config);

}  // namespace dfi
