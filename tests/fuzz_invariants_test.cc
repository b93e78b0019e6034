// Model-based invariant fuzz campaign (DESIGN.md §6).
//
// Replays thousands of seeded fault schedules against the full DFI control
// plane (tests/support/fuzz_harness.h) and asserts the five safety
// invariants I1-I5 after every step. The campaign is split across backend
// variants; each schedule derives its seed deterministically from the
// variant salt and the schedule index, so the whole campaign is one pure
// function of the build.
//
// Reproduction: a failing schedule prints replay instructions. Re-running
// with DFI_FUZZ_SEED=<seed> (or --seed=<seed>) replays exactly that
// schedule in every variant; DFI_FUZZ_SCHEDULES=<n> (or --schedules=<n>)
// bounds the campaign size (CI uses this to keep the sanitizer stages
// inside their budget).
#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <string>

#include "common/logging.h"
#include "support/fuzz_harness.h"

namespace dfi::test {
namespace {

std::optional<std::uint64_t> g_seed_override;
std::size_t g_total_schedules = 2000;

void expect_clean(const FuzzOptions& options, const FuzzResult& result) {
  if (result.violations.empty()) return;
  std::string details;
  for (const std::string& violation : result.violations) {
    details += "  " + violation + "\n";
  }
  ADD_FAILURE() << result.violations.size() << " invariant violation(s):\n"
                << details << replay_instructions(options);
}

// Aggregate coverage over one variant's schedules: the campaign must have
// actually exercised the machinery it claims to test.
struct Coverage {
  std::uint64_t packet_ins = 0;
  std::uint64_t installs = 0;
  std::uint64_t forwards = 0;
  std::uint64_t denies = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t severs = 0;
  std::uint64_t reconnects = 0;
  std::uint64_t resync_clears = 0;
  std::uint64_t stale_redecides = 0;
  std::uint64_t jobs_abandoned = 0;
  std::uint64_t pool_jobs = 0;
  std::uint64_t dropped = 0;
  std::uint64_t duplicated = 0;
  std::uint64_t delayed = 0;
  std::uint64_t reordered = 0;
  std::uint64_t severed_drops = 0;
  std::uint64_t frames_fast_path = 0;
  std::uint64_t frames_patched = 0;
  std::uint64_t frames_decoded = 0;
  std::uint64_t batch_bursts = 0;
  std::uint64_t snapshot_probes = 0;
  std::uint64_t socket_reads = 0;
  std::uint64_t socket_writes = 0;
  std::uint64_t socket_would_block = 0;

  void add(const FuzzResult& result) {
    packet_ins += result.packet_ins;
    installs += result.installs_seen;
    forwards += result.forwards_seen;
    denies += result.denies;
    cache_hits += result.decision_cache_hits;
    severs += result.severs;
    reconnects += result.reconnects;
    resync_clears += result.resync_clears;
    stale_redecides += result.stale_redecides;
    jobs_abandoned += result.jobs_abandoned;
    pool_jobs += result.pool_jobs_checked;
    dropped += result.fault_stats.dropped;
    duplicated += result.fault_stats.duplicated;
    delayed += result.fault_stats.delayed;
    reordered += result.fault_stats.reordered_flushes;
    severed_drops += result.fault_stats.severed_drops;
    frames_fast_path += result.frames_fast_path;
    frames_patched += result.frames_patched;
    frames_decoded += result.frames_decoded;
    batch_bursts += result.batch_bursts;
    snapshot_probes += result.snapshot_probes;
    socket_reads += result.socket_reads;
    socket_writes += result.socket_writes;
    socket_would_block += result.socket_would_block;
  }
};

// Runs `share` percent of the campaign with this variant's options. With a
// seed override the campaign collapses to one replayed schedule.
Coverage run_campaign(FuzzOptions base, std::uint64_t salt, int share) {
  std::size_t schedules =
      std::max<std::size_t>(1, g_total_schedules * static_cast<std::size_t>(share) / 100);
  if (g_seed_override.has_value()) schedules = 1;
  Coverage coverage;
  for (std::size_t i = 0; i < schedules; ++i) {
    FuzzOptions options = base;
    options.seed =
        g_seed_override.value_or(salt * 1000003ull + i);
    const FuzzResult result = run_fuzz_schedule(options);
    coverage.add(result);
    expect_clean(options, result);
    if (::testing::Test::HasFailure()) break;  // first failing seed is enough
  }
  return coverage;
}

TEST(FuzzCampaign, SimulatedSingleShard) {
  FuzzOptions base;
  base.backend = PcpBackend::kSimulated;
  base.shards = 1;
  base.steps = 8;
  const Coverage c = run_campaign(base, 11, 22);
  if (g_seed_override.has_value()) return;
  // The paper-shaped single-PCP plane, fully exercised end to end.
  EXPECT_GT(c.packet_ins, 0u);
  EXPECT_GT(c.installs, 0u);
  EXPECT_GT(c.forwards, 0u);
  EXPECT_GT(c.denies, 0u);
  EXPECT_GT(c.cache_hits, 0u);
  EXPECT_GT(c.severs, 0u);
  EXPECT_GT(c.reconnects, 0u);
  EXPECT_GT(c.resync_clears, 0u);
  EXPECT_GT(c.pool_jobs, 0u);
  // Every fault class fired somewhere in the campaign.
  EXPECT_GT(c.dropped, 0u);
  EXPECT_GT(c.duplicated, 0u);
  EXPECT_GT(c.delayed, 0u);
  EXPECT_GT(c.reordered, 0u);
  EXPECT_GT(c.severed_drops, 0u);
  // The proxied streams must actually ride the wire fast path: verbatim
  // pass-throughs, in-place table patches, and decode fallbacks all fire
  // under faults — I1-I5 above hold across all three.
  EXPECT_GT(c.frames_fast_path, 0u);
  EXPECT_GT(c.frames_patched, 0u);
  EXPECT_GT(c.frames_decoded, 0u);
}

TEST(FuzzCampaign, SimulatedFourShards) {
  FuzzOptions base;
  base.backend = PcpBackend::kSimulated;
  base.shards = 4;
  base.steps = 8;
  const Coverage c = run_campaign(base, 23, 13);
  if (g_seed_override.has_value()) return;
  EXPECT_GT(c.packet_ins, 0u);
  EXPECT_GT(c.installs, 0u);
  EXPECT_GT(c.severs, 0u);
}

TEST(FuzzCampaign, WildcardCaching) {
  FuzzOptions base;
  base.backend = PcpBackend::kSimulated;
  base.shards = 2;
  base.steps = 8;
  base.wildcard_caching = true;
  const Coverage c = run_campaign(base, 37, 15);
  if (g_seed_override.has_value()) return;
  EXPECT_GT(c.packet_ins, 0u);
  EXPECT_GT(c.installs, 0u);
}

TEST(FuzzCampaign, ThreadedTwoShards) {
  FuzzOptions base;
  base.backend = PcpBackend::kThreads;
  base.shards = 2;
  base.steps = 6;
  const Coverage c = run_campaign(base, 47, 15);
  if (g_seed_override.has_value()) return;
  EXPECT_GT(c.packet_ins, 0u);
  EXPECT_GT(c.installs, 0u);
  EXPECT_GT(c.severs, 0u);
  // The threaded consistency machinery fired: completions raced policy or
  // binding mutations and were re-decided on fresh snapshots.
  EXPECT_GT(c.stale_redecides, 0u);
}

TEST(FuzzCampaign, ThreadedWorkerFaults) {
  FuzzOptions base;
  base.backend = PcpBackend::kThreads;
  base.shards = 2;
  base.steps = 6;
  base.worker_faults = true;
  const Coverage c = run_campaign(base, 59, 15);
  if (g_seed_override.has_value()) return;
  EXPECT_GT(c.packet_ins, 0u);
  EXPECT_GT(c.installs, 0u);
  // The kill probe actually abandoned jobs somewhere in the campaign, and
  // the pool survived (no wedge, no order violation — I5).
  EXPECT_GT(c.jobs_abandoned, 0u);
}

// Incremental snapshot publication (DESIGN.md §8): binding churn schedules
// interleave snapshot captures with policy revokes; snapshots held across
// steps must keep answering from the world they were published in while
// I3/I4 keep holding for the live plane.
TEST(FuzzCampaign, IncrementalSnapshots) {
  FuzzOptions base;
  base.backend = PcpBackend::kSimulated;
  base.shards = 2;
  base.steps = 8;
  base.incremental_snapshots = true;
  const Coverage c = run_campaign(base, 97, 12);
  if (g_seed_override.has_value()) return;
  EXPECT_GT(c.packet_ins, 0u);
  EXPECT_GT(c.installs, 0u);
  EXPECT_GT(c.severs, 0u);
  EXPECT_GT(c.snapshot_probes, 0u);  // held publications actually verified
}

// Same churn/revoke interleave against the threaded backend: in-flight
// decisions carry yet more snapshot references, so held publications race
// stale-completion re-decides too.
TEST(FuzzCampaign, IncrementalSnapshotsThreaded) {
  FuzzOptions base;
  base.backend = PcpBackend::kThreads;
  base.shards = 2;
  base.steps = 6;
  base.incremental_snapshots = true;
  const Coverage c = run_campaign(base, 103, 10);
  if (g_seed_override.has_value()) return;
  EXPECT_GT(c.packet_ins, 0u);
  EXPECT_GT(c.installs, 0u);
  EXPECT_GT(c.snapshot_probes, 0u);
}

// Packet-in bursts (DESIGN.md §5): multi-Packet-in chunks form real runs,
// so batch decide, severs and policy churn interleave. Same five
// invariants, plus the pool-quiesce check the harness runs at final settle
// (in_use() == 0: buffers of deliveries dropped with severed sessions must
// still return to the pool).
TEST(FuzzCampaign, BatchedDatapath) {
  FuzzOptions base;
  base.backend = PcpBackend::kSimulated;
  base.shards = 2;
  base.steps = 8;
  base.batched_datapath = true;
  const Coverage c = run_campaign(base, 71, 10);
  if (g_seed_override.has_value()) return;
  EXPECT_GT(c.packet_ins, 0u);
  EXPECT_GT(c.installs, 0u);
  EXPECT_GT(c.severs, 0u);
  EXPECT_GT(c.batch_bursts, 0u);  // multi-Packet-in chunks actually formed
}

// Packet-in bursts on the threaded backend with the full kill probe armed
// (kKill, kStall, and kKillAfterDecide — a worker dying between running a
// batch item's decision and publishing its completion). Severs race the
// window between batch decide and the deferred deliveries.
TEST(FuzzCampaign, BatchedThreadedWorkerFaults) {
  FuzzOptions base;
  base.backend = PcpBackend::kThreads;
  base.shards = 2;
  base.steps = 6;
  base.worker_faults = true;
  base.batched_datapath = true;
  const Coverage c = run_campaign(base, 83, 10);
  if (g_seed_override.has_value()) return;
  EXPECT_GT(c.packet_ins, 0u);
  EXPECT_GT(c.installs, 0u);
  EXPECT_GT(c.batch_bursts, 0u);
  EXPECT_GT(c.jobs_abandoned, 0u);
}

// Socket transport (DESIGN.md §9): the switch<->proxy streams ride the
// real Connection machinery — scatter readv into the decoder, bounded
// writev egress — over seeded FaultSockets whose lossless fault repertoire
// (short reads/writes, EAGAIN storms, slow drain) reshapes every IO call.
// I1-I5 must hold unchanged, including across severed and reconnected
// peers (each reconnect builds fresh sockets mid-campaign).
TEST(FuzzCampaign, SocketTransport) {
  FuzzOptions base;
  base.backend = PcpBackend::kSimulated;
  base.shards = 2;
  base.steps = 8;
  base.socket_transport = true;
  const Coverage c = run_campaign(base, 109, 15);
  if (g_seed_override.has_value()) return;
  EXPECT_GT(c.packet_ins, 0u);
  EXPECT_GT(c.installs, 0u);
  EXPECT_GT(c.forwards, 0u);
  EXPECT_GT(c.severs, 0u);
  EXPECT_GT(c.reconnects, 0u);
  // The socket layer really carried the streams and really misbehaved.
  EXPECT_GT(c.socket_reads, 0u);
  EXPECT_GT(c.socket_writes, 0u);
  EXPECT_GT(c.socket_would_block, 0u);
}

TEST(FuzzCampaign, SocketTransportBatched) {
  FuzzOptions base;
  base.backend = PcpBackend::kSimulated;
  base.shards = 2;
  base.steps = 8;
  base.socket_transport = true;
  base.batched_datapath = true;
  const Coverage c = run_campaign(base, 127, 10);
  if (g_seed_override.has_value()) return;
  EXPECT_GT(c.packet_ins, 0u);
  EXPECT_GT(c.batch_bursts, 0u);
  EXPECT_GT(c.socket_reads, 0u);
  EXPECT_GT(c.socket_would_block, 0u);
}

// The transport-differential proof: the same schedule with the socket
// layer on and off must emit byte-identical proxy egress (FNV hash over
// both directions in delivery order) and identical observable counters —
// the socket datapath is a transparent carrier, faults and all.
TEST(FuzzDifferential, SocketTransportEgressByteIdentical) {
  for (std::uint64_t seed : {9001ull, 9002ull, 9003ull, 9004ull, 9005ull}) {
    FuzzOptions off;
    off.seed = seed;
    off.backend = PcpBackend::kSimulated;
    off.shards = 2;
    off.steps = 8;
    FuzzOptions on = off;
    on.socket_transport = true;
    const FuzzResult direct = run_fuzz_schedule(off);
    const FuzzResult socketed = run_fuzz_schedule(on);
    expect_clean(off, direct);
    expect_clean(on, socketed);
    EXPECT_EQ(direct.egress_hash, socketed.egress_hash) << "seed " << seed;
    EXPECT_EQ(direct.packet_ins, socketed.packet_ins) << "seed " << seed;
    EXPECT_EQ(direct.installs_seen, socketed.installs_seen) << "seed " << seed;
    EXPECT_EQ(direct.forwards_seen, socketed.forwards_seen) << "seed " << seed;
    EXPECT_EQ(direct.denies, socketed.denies) << "seed " << seed;
    EXPECT_EQ(direct.resync_clears, socketed.resync_clears) << "seed " << seed;
    EXPECT_GT(socketed.socket_reads, 0u) << "seed " << seed;
  }
}

// Same seed + options => byte-identical fault trace and equal observable
// counters. This is the replayability contract every debugging workflow
// rests on.
TEST(FuzzDeterminism, SimulatedScheduleIsByteIdentical) {
  FuzzOptions options;
  options.seed = 424242;
  options.backend = PcpBackend::kSimulated;
  options.shards = 4;
  options.steps = 8;
  const FuzzResult a = run_fuzz_schedule(options);
  const FuzzResult b = run_fuzz_schedule(options);
  expect_clean(options, a);
  EXPECT_EQ(a.trace, b.trace);
  EXPECT_EQ(a.violations, b.violations);
  EXPECT_EQ(a.packet_ins, b.packet_ins);
  EXPECT_EQ(a.installs_seen, b.installs_seen);
  EXPECT_EQ(a.forwards_seen, b.forwards_seen);
  EXPECT_EQ(a.denies, b.denies);
  EXPECT_EQ(a.decision_cache_hits, b.decision_cache_hits);
  EXPECT_EQ(a.severs, b.severs);
  EXPECT_EQ(a.reconnects, b.reconnects);
  EXPECT_EQ(a.resync_clears, b.resync_clears);
  EXPECT_EQ(a.fault_stats.dropped, b.fault_stats.dropped);
  EXPECT_EQ(a.fault_stats.delayed, b.fault_stats.delayed);
  EXPECT_EQ(a.fault_stats.reordered_flushes, b.fault_stats.reordered_flushes);
}

TEST(FuzzDeterminism, ThreadedScheduleIsByteIdentical) {
  FuzzOptions options;
  options.seed = 777001;
  options.backend = PcpBackend::kThreads;
  options.shards = 2;
  options.steps = 6;
  const FuzzResult a = run_fuzz_schedule(options);
  const FuzzResult b = run_fuzz_schedule(options);
  expect_clean(options, a);
  EXPECT_EQ(a.trace, b.trace);
  EXPECT_EQ(a.violations, b.violations);
  EXPECT_EQ(a.packet_ins, b.packet_ins);
  EXPECT_EQ(a.installs_seen, b.installs_seen);
  EXPECT_EQ(a.forwards_seen, b.forwards_seen);
  EXPECT_EQ(a.severs, b.severs);
}

TEST(FuzzDeterminism, BatchedScheduleIsByteIdentical) {
  FuzzOptions options;
  options.seed = 515151;
  options.backend = PcpBackend::kSimulated;
  options.shards = 2;
  options.steps = 8;
  options.batched_datapath = true;
  const FuzzResult a = run_fuzz_schedule(options);
  const FuzzResult b = run_fuzz_schedule(options);
  expect_clean(options, a);
  EXPECT_EQ(a.trace, b.trace);
  EXPECT_EQ(a.violations, b.violations);
  EXPECT_EQ(a.packet_ins, b.packet_ins);
  EXPECT_EQ(a.installs_seen, b.installs_seen);
  EXPECT_EQ(a.forwards_seen, b.forwards_seen);
  EXPECT_EQ(a.batch_bursts, b.batch_bursts);
  EXPECT_GT(a.batch_bursts, 0u);
}

TEST(FuzzDeterminism, SocketScheduleIsByteIdentical) {
  FuzzOptions options;
  options.seed = 606060;
  options.backend = PcpBackend::kSimulated;
  options.shards = 2;
  options.steps = 8;
  options.socket_transport = true;
  const FuzzResult a = run_fuzz_schedule(options);
  const FuzzResult b = run_fuzz_schedule(options);
  expect_clean(options, a);
  EXPECT_EQ(a.trace, b.trace);
  EXPECT_EQ(a.violations, b.violations);
  EXPECT_EQ(a.egress_hash, b.egress_hash);
  EXPECT_EQ(a.socket_reads, b.socket_reads);
  EXPECT_EQ(a.socket_writes, b.socket_writes);
  EXPECT_EQ(a.socket_would_block, b.socket_would_block);
  EXPECT_GT(a.socket_reads, 0u);
}

TEST(FuzzDeterminism, IncrementalSnapshotScheduleIsByteIdentical) {
  FuzzOptions options;
  options.seed = 626262;
  options.backend = PcpBackend::kSimulated;
  options.shards = 2;
  options.steps = 8;
  options.incremental_snapshots = true;
  const FuzzResult a = run_fuzz_schedule(options);
  const FuzzResult b = run_fuzz_schedule(options);
  expect_clean(options, a);
  EXPECT_EQ(a.trace, b.trace);
  EXPECT_EQ(a.violations, b.violations);
  EXPECT_EQ(a.packet_ins, b.packet_ins);
  EXPECT_EQ(a.installs_seen, b.installs_seen);
  EXPECT_EQ(a.snapshot_probes, b.snapshot_probes);
  EXPECT_GT(a.snapshot_probes, 0u);
}

TEST(FuzzDeterminism, WorkerFaultScheduleTraceIsStable) {
  // With worker kills armed, *which* jobs a dying shard still accepts races
  // the kill — so install counts may differ run to run. The fault schedule
  // itself (every drop/delay/kill decision) and the submission-side
  // counters stay byte-identical.
  FuzzOptions options;
  options.seed = 909090;
  options.backend = PcpBackend::kThreads;
  options.shards = 2;
  options.steps = 6;
  options.worker_faults = true;
  const FuzzResult a = run_fuzz_schedule(options);
  const FuzzResult b = run_fuzz_schedule(options);
  expect_clean(options, a);
  expect_clean(options, b);
  EXPECT_EQ(a.trace, b.trace);
  EXPECT_EQ(a.packet_ins, b.packet_ins);
  EXPECT_EQ(a.severs, b.severs);
  EXPECT_EQ(a.reconnects, b.reconnects);
}

// ------------------------------------------------------- pinned regressions
//
// Each pins a schedule that reproduced a real bug fixed in this tree. The
// seeds are load-bearing: they drive the exact interleaving that failed.

// PcpShardPool::wait_idle() used to wedge forever when the fault probe
// killed a worker whose queue still held jobs: nothing ever completed the
// stranded sequence numbers, so the control thread slept through its own
// recovery path. Fixed by waking on worker death and draining stranded
// queues inline (pcp_shard_pool.cc). Without the fix this test hangs until
// the ctest timeout kills it.
TEST(FuzzRegression, WaitIdleSurvivesWorkerKill) {
  FuzzOptions options;
  options.seed = 6151;  // drives the kill probe into both shards
  options.backend = PcpBackend::kThreads;
  options.shards = 2;
  options.steps = 8;
  options.worker_faults = true;
  const FuzzResult result = run_fuzz_schedule(options);
  expect_clean(options, result);
  EXPECT_GT(result.pool_jobs_checked, 0u);
}

// DfiProxy::Session used to be freed with PCP decision callbacks and
// deferred deliveries still pointing at it: a sever while Packet-ins were
// in flight made the callback write through a dangling `this`
// (use-after-free under ASan). Fixed with the per-session alive token
// (proxy.cc). This schedule severs sessions mid-decision in both backends.
TEST(FuzzRegression, SessionTeardownWithInFlightDecisions) {
  for (const PcpBackend backend :
       {PcpBackend::kSimulated, PcpBackend::kThreads}) {
    FuzzOptions options;
    options.seed = 3301;  // schedules severs while decisions are in flight
    options.backend = backend;
    options.shards = 2;
    options.steps = 10;
    const FuzzResult result = run_fuzz_schedule(options);
    expect_clean(options, result);
    EXPECT_GT(result.severs, 0u);
  }
}

// A revoke racing an in-flight threaded decision used to install the
// pre-revoke allow rule *after* the flush DELETE had already cleaned
// Table 0, leaving a permanent rule citing a revoked policy (I3). Fixed by
// re-deciding stale completions on fresh snapshots (pcp.cc,
// stats_.stale_redecides). This schedule makes midflight policy churn hit
// in-flight submissions.
TEST(FuzzRegression, RevokeRacingInFlightDecision) {
  FuzzOptions options;
  options.seed = 14081;
  options.backend = PcpBackend::kThreads;
  options.shards = 2;
  options.steps = 10;
  const FuzzResult result = run_fuzz_schedule(options);
  expect_clean(options, result);
  EXPECT_GT(result.stale_redecides, 0u);
}

// A revoke issued while a switch's session was severed used to leave the
// revoked rule installed forever: the flush DELETE died with the session
// and nothing re-synced on reconnect. Fixed with the Table-0 resync clear
// on re-registration (pcp.cc, stats_.resync_clears).
TEST(FuzzRegression, RevokeWhileSevered) {
  FuzzOptions options;
  options.seed = 20011;
  options.backend = PcpBackend::kSimulated;
  options.shards = 1;
  options.steps = 12;
  const FuzzResult result = run_fuzz_schedule(options);
  expect_clean(options, result);
  EXPECT_GT(result.severs, 0u);
  EXPECT_GT(result.resync_clears, 0u);
}

}  // namespace
}  // namespace dfi::test

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  // Severed sessions legitimately leave the PCP installing into switches it
  // no longer knows; thousands of schedules of that WARN would bury real
  // failures.
  dfi::Logger::instance().set_level(dfi::LogLevel::kError);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--seed=", 0) == 0) {
      dfi::test::g_seed_override = std::strtoull(arg.c_str() + 7, nullptr, 10);
    } else if (arg.rfind("--schedules=", 0) == 0) {
      dfi::test::g_total_schedules =
          std::strtoull(arg.c_str() + 12, nullptr, 10);
    }
  }
  if (const char* seed = std::getenv("DFI_FUZZ_SEED")) {
    dfi::test::g_seed_override = std::strtoull(seed, nullptr, 10);
  }
  if (const char* schedules = std::getenv("DFI_FUZZ_SCHEDULES")) {
    dfi::test::g_total_schedules = std::strtoull(schedules, nullptr, 10);
  }
  return RUN_ALL_TESTS();
}
