// Reproduces paper Table II: per-component latency breakdown of a DFI
// flow-start decision.
//
//   Component               Paper (mean ± sd, ms)
//   Binding query           2.41 ± 0.97
//   Policy query            2.52 ± 0.85
//   Other PCP processing    0.39 ± 0.27
//   Proxy                   0.16 ± 0.72
//   Overall                 5.73 ± 3.39
#include <cstdio>

#include "harness/cbench.h"
#include "harness/report.h"
#include "sim/paper_timing.h"

using namespace dfi;

int main() {
  std::printf("DFI reproduction — Table II: latency breakdown\n");

  CbenchEmulator bench{CbenchConfig{}};
  const SampleStats overall = bench.run_latency_mode(3000);

  const PaperTiming& timing = *bench.dfi().timing();
  const auto fmt_pair = [](const SampleStats& stats) {
    return Report::fmt(stats.mean()) + " +/- " + Report::fmt(stats.stddev());
  };

  Report report("Table II: Latency Breakdown (ms)");
  report.columns({"Component", "Paper", "Measured"});
  report.row({"Binding Query", "2.41 +/- 0.97", fmt_pair(timing.binding_latency_ms())});
  report.row({"Policy Query", "2.52 +/- 0.85", fmt_pair(timing.policy_latency_ms())});
  report.row({"Other PCP Processing", "0.39 +/- 0.27", fmt_pair(timing.other_latency_ms())});
  report.row({"Proxy", "0.16 +/- 0.72", fmt_pair(timing.proxy_latency_ms())});
  report.row({"Overall", "5.73 +/- 3.39", fmt_pair(overall)});
  report.note("overall measured end-to-end at the emulated switch (packet-in -> rule)");
  report.print();
  return 0;
}
