// Loopback end-to-end benchmark of the DFI control plane (see README.md).
//
//   e2e_bench --workload warm_hits|cold_misses|churn --seed N --seconds S
//             --trace 0|1 [--workdir DIR]
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones.
// The last line of standard output is the result object; everything above
// it is run context for reading a noisy run, never gated.
#include <signal.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "core/persistence.h"
#include "host.h"
#include "replay.h"
#include "rig.h"
#include "trace.h"
#include "workload.h"

namespace e2e {
namespace {

// A run is a sequence of blocks: one latency block and one burst block of
// 0.25 s each (README: "The harness"). Every kBlocksPerRig blocks the rig
// is torn down and a fresh one is built, timed and warmed up.
constexpr int kBlocksPerSecond = 2;
constexpr int kBlocksPerRig = 3;
constexpr std::uint32_t kBurst = 24;  // per switch, within PCP admission
// Flush probe rounds at the end of each rig's last block (warm_hits,
// cold_misses): their epoch bumps then never reach a measured block.
constexpr std::size_t kProbeRoundsPerRig = 6;
constexpr std::size_t kReplayRounds = 200;
// Span records kept for the dump (the totals count every span).
constexpr std::size_t kSpanCapacity = 1 << 17;

struct Args {
  WorkloadKind kind = WorkloadKind::kWarmHits;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string workdir = ".";
};

bool parse_args(int argc, char** argv, Args* args) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      have_workload = parse_workload(value, &args->kind);
      if (!have_workload) return false;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (key == "--seconds") {
      args->seconds = static_cast<int>(std::strtol(value.c_str(), &end, 10));
      if (*end != '\0' || args->seconds < 1 || args->seconds > 120) return false;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (key == "--workdir") {
      args->workdir = value;
    } else {
      return false;
    }
  }
  return have_workload && argc % 2 == 1;
}

// Nearest-rank percentile of values[from..] (that range is reordered).
double percentile(std::vector<double>& values, std::size_t from, double p) {
  if (values.size() <= from) return 0.0;
  const std::size_t n = values.size() - from;
  const auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(n)));
  const std::size_t index = from + std::min(n - 1, rank == 0 ? 0 : rank - 1);
  std::nth_element(values.begin() + static_cast<std::ptrdiff_t>(from),
                   values.begin() + static_cast<std::ptrdiff_t>(index), values.end());
  return values[index];
}

double median(std::vector<double> values) { return percentile(values, 0, 0.5); }

// The best of the per-block values: the lowest of a lower-is-better
// metric, the highest of a higher-is-better one (README: "Reading the
// numbers"). Host interference only ever slows a block down.
enum class Better { kLower, kHigher };
double best(const std::vector<double>& blocks, Better better) {
  if (blocks.empty()) return 0.0;
  return better == Better::kLower ? *std::min_element(blocks.begin(), blocks.end())
                                  : *std::max_element(blocks.begin(), blocks.end());
}

double per(double value, double base) { return base == 0 ? 0.0 : value / base; }

double pins_per_cpu_s(const PhaseTotals& phase) {
  return per(static_cast<double>(phase.pins), static_cast<double>(phase.cpu_ns) * 1e-9);
}

void accumulate(PhaseTotals* total, const PhaseTotals& part) {
  total->pins += part.pins;
  total->allowed += part.allowed;
  total->wall_ns += part.wall_ns;
  total->cpu_ns += part.cpu_ns;
  total->steal_ticks += part.steal_ticks;
  total->ok = total->ok && part.ok;
}

void print_phase(const char* name, const PhaseTotals& phase) {
  std::printf("phase %-8s pins %9llu  wall %8.3f s  cpu %8.3f s  cpu/wall %.3f  "
              "steal %llu ticks\n",
              name, static_cast<unsigned long long>(phase.pins),
              static_cast<double>(phase.wall_ns) * 1e-9,
              static_cast<double>(phase.cpu_ns) * 1e-9,
              per(static_cast<double>(phase.cpu_ns), static_cast<double>(phase.wall_ns)),
              static_cast<unsigned long long>(phase.steal_ticks));
}

void print_blocks(const char* name, const std::vector<double>& blocks) {
  std::printf("blocks %-16s median %.6g:", name, median(blocks));
  for (const double v : blocks) std::printf(" %.5g", v);
  std::printf("\n");
}

class Metrics {
 public:
  void add(const char* name, double value, const char* unit) {
    if (!std::isfinite(value)) value = 0.0;
    char buffer[256];
    std::snprintf(buffer, sizeof(buffer), "%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}",
                  body_.empty() ? "" : ", ", name, value, unit);
    body_ += buffer;
  }
  const std::string& json() const { return body_; }

 private:
  std::string body_;
};

// Public counters of every layer the traced run reads.
enum Counter : std::size_t {
  kPolls,
  kDispatches,
  kTimersFired,
  kSimEvents,
  kDecoded,
  kPatched,
  kFastPath,
  kPoolAcquires,
  kPoolReuses,
  kCacheHits,
  kCacheLookups,
  kCacheStale,
  kCacheEvictions,
  kBindingUpdates,
  kCowPages,
  kOverlapCandidates,
  kJournalAppends,
  kJournalBytes,
  kStoreAppends,
  kStoreSyncs,
  kInserts,
  kFlushDirectives,
  kAllocs,
  kAllocBytes,
  kCounters,
};

struct Counters {
  std::array<std::uint64_t, kCounters> c{};
  Tracer::TotalsTable spans{};

  // Accumulate (after - before) into this.
  void add_delta(const Counters& after, const Counters& before) {
    for (std::size_t i = 0; i < kCounters; ++i) c[i] += after.c[i] - before.c[i];
    for (std::size_t i = 0; i < kSpanNames; ++i) {
      spans[i].count += after.spans[i].count - before.spans[i].count;
      spans[i].total_ns += after.spans[i].total_ns - before.spans[i].total_ns;
      spans[i].self_ns += after.spans[i].self_ns - before.spans[i].self_ns;
    }
  }
  double get(Counter counter) const { return static_cast<double>(c[counter]); }
  double span_us(SpanName name, bool self) const {
    const Tracer::Totals& t = spans[static_cast<std::size_t>(name)];
    return static_cast<double>(self ? t.self_ns : t.total_ns) * 1e-3;
  }
  double span_mean_us(SpanName name, bool self) const {
    return per(span_us(name, self),
               static_cast<double>(spans[static_cast<std::size_t>(name)].count));
  }
};

Counters capture(Rig& rig) {
  Counters out;
  auto& c = out.c;
  dfi::DfiSystem& system = rig.system();
  const dfi::net::EventLoopStats& loop = rig.loop().stats();
  c[kPolls] = loop.polls;
  c[kDispatches] = loop.fd_dispatches;
  c[kTimersFired] = loop.timers_fired;
  c[kSimEvents] = system.sim().executed();
  const dfi::ProxyStats& proxy = system.proxy().stats();
  c[kDecoded] = proxy.frames_decoded;
  c[kPatched] = proxy.frames_patched;
  c[kFastPath] = proxy.frames_fast_path;
  c[kPoolAcquires] = proxy.pool_acquires;
  c[kPoolReuses] = proxy.pool_reuses;
  const dfi::DecisionCacheStats cache = system.pcp().aggregate_decision_cache_stats();
  c[kCacheHits] = cache.hits;
  c[kCacheLookups] = cache.lookups();
  c[kCacheStale] = cache.stale_policy + cache.stale_binding;
  c[kCacheEvictions] = cache.evictions;
  c[kBindingUpdates] = system.erm().stats().binding_updates;
  c[kCowPages] = system.erm().cow_stats().page_copies;
  c[kOverlapCandidates] = system.policy_manager().index_stats().overlap_candidates;
  if (rig.journal() != nullptr) {
    c[kJournalAppends] = rig.journal()->stats().appends;
    c[kJournalBytes] = rig.journal()->stats().bytes_appended;
    c[kStoreAppends] = rig.wal_store()->appends();
    c[kStoreSyncs] = rig.wal_store()->syncs();
  }
  c[kInserts] = rig.inserts();
  c[kFlushDirectives] = system.pcp().stats().flush_directives;
  const AllocCounts alloc = alloc_counts();
  c[kAllocs] = alloc.count;
  c[kAllocBytes] = alloc.bytes;
  if (g_tracer != nullptr) out.spans = g_tracer->totals();
  return out;
}

// churn: a fresh journal replay must reproduce the live databases exactly.
bool recovery_matches(Rig& rig, std::string* why) {
  dfi::MessageBus bus;
  dfi::PolicyManager policy(bus);
  dfi::EntityResolutionManager erm(bus);
  dfi::FileJournalStore store(rig.wal_path());
  dfi::Journal journal(store);
  const auto recovered = journal.recover(policy, erm);
  if (!recovered.ok()) {
    *why = "journal recovery failed: " + recovered.error().message;
    return false;
  }
  if (dfi::save_policies(policy) != dfi::save_policies(rig.system().policy_manager())) {
    *why = "recovered policies differ from the live database";
    return false;
  }
  if (dfi::save_bindings(erm) != dfi::save_bindings(rig.system().erm())) {
    *why = "recovered bindings differ from the live database";
    return false;
  }
  return true;
}

// The rigs of one run, built in turn, with what they did summed up.
class Rigs {
 public:
  Rigs(const Args& args, const Workload& workload, Buffers& buffers, int cpu)
      : args_(args), workload_(workload), buffers_(buffers), cpu_(cpu) {}

  // Retire the current rig (if any), then build, time and warm up the next.
  bool next() {
    retire();
    rig_ = std::make_unique<Rig>(workload_, buffers_, args_.workdir, cpu_, built_++);
    std::string error;
    const std::int64_t start = thread_cpu_ns();
    if (!rig_->setup(&error)) {
      std::fprintf(stderr, "setup failed: %s\n", error.c_str());
      return false;
    }
    setup_s_.push_back(static_cast<double>(thread_cpu_ns() - start) * 1e-9);
    // Every rig holds the same population, so one oracle serves them all.
    if (built_ == 1 && workload_.kind != WorkloadKind::kChurn) rig_->compute_oracle();
    warmed_ok_ = rig_->warm_up() && warmed_ok_;
    return true;
  }

  Rig& rig() { return *rig_; }
  const std::vector<double>& setup_s() const { return setup_s_; }

  // Shape checks and failure totals over every rig; keeps the last alive.
  void finish(std::vector<std::string>* violations, Failures* failures,
              std::uint64_t* attempted) {
    if (workload_.kind == WorkloadKind::kChurn) {
      std::string why;
      if (!recovery_matches(*rig_, &why)) violations->push_back(why);
    }
    absorb(*rig_);
    const double hit_rate = per(static_cast<double>(hits_), static_cast<double>(lookups_));
    if (workload_.kind == WorkloadKind::kWarmHits && hit_rate < 0.99) {
      violations->push_back("warm_hits cache hit ratio " + std::to_string(hit_rate));
    }
    if (workload_.kind == WorkloadKind::kColdMisses && hits_ != 0) {
      violations->push_back("cold_misses saw " + std::to_string(hits_) + " cache hits");
    }
    if (mac_moves_ != 0) violations->push_back("MAC moves seen");
    if (spoof_denied_ != 0) violations->push_back("spoof denials seen");
    if (unparsable_ != 0) violations->push_back("unparsable Packet-ins seen");
    if (!warmed_ok_) violations->push_back("a warm-up failed");
    *failures = failures_;
    *attempted = attempted_;
    std::printf("context: workload %s seed %llu cpu %d rigs %d bindings %zu rules %zu "
                "cache hit ratio %.4f (%llu lookups) revokes %llu binding writes %llu\n",
                workload_name(workload_.kind), static_cast<unsigned long long>(args_.seed),
                cpu_, built_, rig_->system().erm().binding_count(),
                rig_->system().policy_manager().size(), hit_rate,
                static_cast<unsigned long long>(lookups_),
                static_cast<unsigned long long>(revokes_),
                static_cast<unsigned long long>(binding_writes_));
  }

 private:
  void retire() {
    if (rig_ == nullptr) return;
    absorb(*rig_);
    rig_.reset();
  }

  void absorb(Rig& rig) {
    failures_ += rig.failures();
    attempted_ += rig.attempted();
    revokes_ += rig.revokes();
    binding_writes_ += rig.binding_writes();
    const dfi::PcpStats& pcp = rig.system().pcp().stats();
    mac_moves_ += pcp.mac_moves;
    spoof_denied_ += pcp.spoof_denied;
    unparsable_ += pcp.unparsable;
    const dfi::DecisionCacheStats cache = rig.system().pcp().aggregate_decision_cache_stats();
    hits_ += cache.hits;
    lookups_ += cache.lookups();
  }

  const Args& args_;
  const Workload& workload_;
  Buffers& buffers_;
  int cpu_;
  std::unique_ptr<Rig> rig_;
  int built_ = 0;
  bool warmed_ok_ = true;
  std::vector<double> setup_s_;
  Failures failures_;
  std::uint64_t attempted_ = 0;
  std::uint64_t revokes_ = 0;
  std::uint64_t binding_writes_ = 0;
  std::uint64_t mac_moves_ = 0;
  std::uint64_t spoof_denied_ = 0;
  std::uint64_t unparsable_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t lookups_ = 0;
};

// --trace 0: latency and burst blocks alternate through the run, with the
// flush probes closing each rig; each metric is taken per block (per rig
// for the flush) and the best one is reported.
bool run_end_to_end(const Args& args, Rigs& rigs, Buffers& buffers, double rss_mb,
                    Metrics* metrics) {
  const int blocks = kBlocksPerSecond * args.seconds;
  const std::int64_t block_ns = std::int64_t{1'000'000'000} / (2 * kBlocksPerSecond);
  std::vector<double> decision_p50, decision_p90, ttfb_p50, flush_p50, rate;
  PhaseTotals latency, burst, probe;
  for (int b = 0; b < blocks; ++b) {
    if (b > 0 && b % kBlocksPerRig == 0 && !rigs.next()) return false;
    Rig& rig = rigs.rig();
    const std::size_t decided_from = buffers.decision_us.size();
    const std::size_t ttfb_from = buffers.ttfb_us.size();
    const std::size_t flush_from = buffers.flush_us.size();
    const PhaseTotals l = rig.latency_phase(block_ns);
    const PhaseTotals t = rig.burst_phase(block_ns, kBurst);
    PhaseTotals p;
    const bool rig_done = b % kBlocksPerRig == kBlocksPerRig - 1 || b == blocks - 1;
    if (args.kind != WorkloadKind::kChurn && rig_done) p = rig.flush_probe(kProbeRoundsPerRig);
    decision_p50.push_back(percentile(buffers.decision_us, decided_from, 0.5));
    decision_p90.push_back(percentile(buffers.decision_us, decided_from, 0.9));
    ttfb_p50.push_back(percentile(buffers.ttfb_us, ttfb_from, 0.5));
    if (buffers.flush_us.size() > flush_from) {
      flush_p50.push_back(percentile(buffers.flush_us, flush_from, 0.5));
    }
    rate.push_back(pins_per_cpu_s(t));
    accumulate(&latency, l);
    accumulate(&burst, t);
    accumulate(&probe, p);
  }
  print_phase("latency", latency);
  print_phase("burst", burst);
  if (args.kind != WorkloadKind::kChurn) print_phase("probe", probe);
  print_blocks("decision_p50_us", decision_p50);
  print_blocks("decision_p90_us", decision_p90);
  print_blocks("ttfb_p50_us", ttfb_p50);
  print_blocks("flush_p50_us", flush_p50);
  print_blocks("pins_per_cpu_s", rate);
  print_blocks("setup_s", rigs.setup_s());

  std::vector<double>& decision = buffers.decision_us;
  std::vector<double>& ttfb = buffers.ttfb_us;
  std::vector<double>& flush = buffers.flush_us;
  std::printf("pooled decision_us n=%zu p50 %.2f p90 %.2f p99 %.2f p99.9 %.2f\n",
              decision.size(), percentile(decision, 0, 0.5), percentile(decision, 0, 0.9),
              percentile(decision, 0, 0.99), percentile(decision, 0, 0.999));
  std::printf("pooled ttfb_us     n=%zu p50 %.2f p90 %.2f p99 %.2f\n", ttfb.size(),
              percentile(ttfb, 0, 0.5), percentile(ttfb, 0, 0.9), percentile(ttfb, 0, 0.99));
  std::printf("pooled flush_us    n=%zu p50 %.2f p90 %.2f\n", flush.size(),
              percentile(flush, 0, 0.5), percentile(flush, 0, 0.9));
  metrics->add("decision_p50_us", best(decision_p50, Better::kLower), "us");
  metrics->add("decision_p90_us", best(decision_p90, Better::kLower), "us");
  metrics->add("ttfb_p50_us", best(ttfb_p50, Better::kLower), "us");
  metrics->add("pins_per_cpu_s", best(rate, Better::kHigher), "1/s");
  metrics->add("flush_p50_us", best(flush_p50, Better::kLower), "us");
  metrics->add("setup_s", best(rigs.setup_s(), Better::kLower), "s");
  metrics->add("rss_mb", rss_mb, "MiB");
  return latency.ok && burst.ok && probe.ok;
}

// --trace 1: per block, an untraced burst block (the base of the overhead
// and of the replayed share), then traced latency and burst blocks, with
// traced flush probes closing each rig; the layer replay runs once at the
// end.
bool run_traced(const Args& args, const Workload& workload, Rigs& rigs,
                Buffers& buffers, Metrics* metrics) {
  const int blocks = kBlocksPerSecond * args.seconds;
  const std::int64_t slice_ns = std::int64_t{1'000'000'000} / kBlocksPerSecond;
  Tracer tracer(kSpanCapacity);
  Counters whole;  // every traced phase
  Counters burst;  // traced burst blocks only
  PhaseTotals untraced_total, latency_total, burst_total;
  for (int b = 0; b < blocks; ++b) {
    if (b > 0 && b % kBlocksPerRig == 0 && !rigs.next()) return false;
    Rig& rig = rigs.rig();
    accumulate(&untraced_total, rig.burst_phase(slice_ns * 35 / 100, kBurst));
    g_tracer = &tracer;
    set_alloc_counting(true);
    const Counters start = capture(rig);
    accumulate(&latency_total, rig.latency_phase(slice_ns * 20 / 100));
    const Counters burst_start = capture(rig);
    accumulate(&burst_total, rig.burst_phase(slice_ns * 45 / 100, kBurst));
    const Counters burst_end = capture(rig);
    if (args.kind != WorkloadKind::kChurn &&
        (b % kBlocksPerRig == kBlocksPerRig - 1 || b == blocks - 1)) {
      rig.flush_probe(kProbeRoundsPerRig / 2);
    }
    const Counters end = capture(rig);
    set_alloc_counting(false);
    g_tracer = nullptr;
    whole.add_delta(end, start);
    burst.add_delta(burst_end, burst_start);
  }
  print_phase("untraced", untraced_total);
  print_phase("latency", latency_total);
  print_phase("burst", burst_total);
  const ReplayCosts replay =
      replay_layers(workload, rigs.rig().system(), buffers.reply, kReplayRounds);
  const std::string spans = args.workdir + "/spans-" + workload_name(args.kind) + ".tsv";
  if (tracer.write_tsv(spans)) {
    std::printf("spans: %zu recorded (%llu beyond capacity) in %s\n", tracer.recorded(),
                static_cast<unsigned long long>(tracer.unrecorded()), spans.c_str());
  }

  Metrics& m = *metrics;
  const double pins = static_cast<double>(burst_total.pins);
  const auto per_pin = [&](Counter counter) { return per(burst.get(counter), pins); };
  m.add("loop.turn_us_per_pin", per(burst.span_us(SpanName::kLoopTurn, false), pins), "us");
  m.add("loop.self_us_per_pin", per(burst.span_us(SpanName::kLoopTurn, true), pins), "us");
  m.add("loop.polls_per_pin", per_pin(kPolls), "count");
  m.add("loop.dispatches_per_pin", per_pin(kDispatches), "count");
  m.add("loop.timers_fired", burst.get(kTimersFired), "count");
  m.add("emu.send_us_per_pin", per(burst.span_us(SpanName::kEmuSend, true), pins), "us");
  m.add("emu.recv_us_per_pin", per(burst.span_us(SpanName::kEmuRecv, true), pins), "us");
  m.add("sim.events_per_pin", per_pin(kSimEvents), "count");

  m.add("wire.frame_ns", replay.frame_ns, "ns");
  m.add("wire.classify_ns", replay.classify_ns, "ns");
  m.add("wire.decode_ns", replay.decode_ns, "ns");
  m.add("wire.encode_ns", replay.encode_ns, "ns");
  m.add("wire.encode_pin_ns", replay.encode_pin_ns, "ns");
  m.add("wire.patch_ns", replay.patch_ns, "ns");
  m.add("proxy.decoded_per_pin", per_pin(kDecoded), "count");
  m.add("proxy.patched_per_pin", per_pin(kPatched), "count");
  m.add("proxy.fast_path_per_pin", per_pin(kFastPath), "count");
  m.add("proxy.pool_hit_rate", per(burst.get(kPoolReuses), burst.get(kPoolAcquires)),
        "ratio");
  m.add("alloc.per_pin", per_pin(kAllocs), "count");
  m.add("alloc.bytes_per_pin", per_pin(kAllocBytes), "B");

  const double hit_ratio = per(burst.get(kCacheHits), burst.get(kCacheLookups));
  m.add("pcp.parse_ns", replay.parse_ns, "ns");
  m.add("pcp.snapshot_view_ns", replay.snapshot_view_ns, "ns");
  m.add("pcp.decide_hit_ns", replay.decide_hit_ns, "ns");
  m.add("pcp.decide_miss_ns", replay.decide_miss_ns, "ns");
  m.add("pcp.compile_ns", replay.compile_ns, "ns");
  m.add("pcp.cache_hit_ratio", hit_ratio, "ratio");
  m.add("pcp.cache_stale_ratio", per(burst.get(kCacheStale), burst.get(kCacheLookups)),
        "ratio");
  m.add("pcp.cache_evictions_per_pin", per_pin(kCacheEvictions), "count");

  m.add("erm.validate_ns", replay.validate_ns, "ns");
  m.add("erm.enrich_ns", replay.enrich_ns, "ns");
  m.add("erm.apply_us", whole.span_mean_us(SpanName::kChurnPublish, true), "us");
  m.add("erm.snapshot_us", whole.span_mean_us(SpanName::kErmSnapshot, false), "us");
  m.add("erm.cow_pages_per_event", per(whole.get(kCowPages), whole.get(kBindingUpdates)),
        "count");
  m.add("policy.query_ns", replay.query_ns, "ns");
  m.add("policy.insert_us", whole.span_mean_us(SpanName::kChurnInsert, true), "us");
  m.add("policy.revoke_us", whole.span_mean_us(SpanName::kChurnRevoke, true), "us");
  m.add("policy.snapshot_us", whole.span_mean_us(SpanName::kPolicySnapshot, false), "us");
  m.add("policy.overlap_candidates_per_insert",
        per(whole.get(kOverlapCandidates), whole.get(kInserts)), "count");

  m.add("journal.append_us", whole.span_mean_us(SpanName::kJournalAppend, false), "us");
  m.add("journal.sync_us", whole.span_mean_us(SpanName::kJournalSync, false), "us");
  m.add("journal.records_per_sync", per(whole.get(kStoreAppends), whole.get(kStoreSyncs)),
        "count");
  m.add("journal.bytes_per_record",
        per(whole.get(kJournalBytes), whole.get(kJournalAppends)), "B");
  m.add("journal.appends_per_pin", per_pin(kJournalAppends), "count");
  m.add("bus.binding_events_per_pin", per_pin(kBindingUpdates), "count");
  m.add("bus.flush_directives", whole.get(kFlushDirectives), "count");

  // What the replayed stages add up to for one Packet-in of the burst
  // blocks, against the untraced CPU time one Packet-in costs.
  const double allowed_share = per(static_cast<double>(burst_total.allowed), pins);
  const double replayed_us =
      1e-3 * (replay.frame_ns + replay.classify_ns + replay.decode_ns + replay.parse_ns +
              replay.snapshot_view_ns + hit_ratio * replay.decide_hit_ns +
              (1.0 - hit_ratio) * replay.decide_miss_ns + replay.encode_ns +
              allowed_share * (replay.encode_pin_ns + replay.frame_ns +
                               replay.classify_ns + replay.patch_ns));
  const double untraced_us = per(static_cast<double>(untraced_total.cpu_ns) * 1e-3,
                                 static_cast<double>(untraced_total.pins));
  const double untraced_rate = pins_per_cpu_s(untraced_total);
  const double traced_rate = pins_per_cpu_s(burst_total);
  m.add("trace.replayed_us_per_pin", replayed_us, "us");
  m.add("trace.replayed_share", per(replayed_us, untraced_us), "ratio");
  m.add("trace.remainder_us_per_pin", untraced_us - replayed_us, "us");
  m.add("trace.overhead", per(untraced_rate - traced_rate, untraced_rate), "ratio");
  m.add("trace.pins_per_cpu_s_untraced", untraced_rate, "1/s");
  m.add("trace.pins_per_cpu_s_traced", traced_rate, "1/s");
  return untraced_total.ok && latency_total.ok && burst_total.ok;
}

int run(const Args& args) {
  const int cpu = pin_to_last_allowed_cpu();
  const Workload workload(args.kind, args.seed);
  Buffers buffers(workload, static_cast<std::size_t>(args.seconds) * 40000);
  Rigs rigs(args, workload, buffers, cpu);

  const std::uint64_t rss_base_kib = proc_status_kib("VmRSS");
  if (!rigs.next()) return 1;
  // Peak memory of the first built, warmed system. Read here rather than at
  // exit: the program keeps every latency sample it draws (sim/stats.h
  // SampleStats), so a later reading would grow with however many
  // Packet-ins a time-bounded run happens to push.
  const double rss_mb =
      static_cast<double>(proc_status_kib("VmHWM") - rss_base_kib) / 1024.0;

  Metrics metrics;
  const bool phases_ok = args.trace ? run_traced(args, workload, rigs, buffers, &metrics)
                                    : run_end_to_end(args, rigs, buffers, rss_mb, &metrics);
  std::vector<std::string> violations;
  if (!phases_ok) violations.push_back("a phase stalled or a socket failed");
  Failures failures;
  std::uint64_t attempted = 0;
  rigs.finish(&violations, &failures, &attempted);

  std::printf("failures: no_decision %llu unexpected_flow_mod %llu verdict_mismatch %llu "
              "denied_forwarded %llu unknown_forward %llu duplicate %llu missing_reply %llu "
              "table_shift %llu flush_missed %llu overload_drops %llu transport %llu\n",
              static_cast<unsigned long long>(failures.no_decision),
              static_cast<unsigned long long>(failures.unexpected_flow_mod),
              static_cast<unsigned long long>(failures.verdict_mismatch),
              static_cast<unsigned long long>(failures.denied_forwarded),
              static_cast<unsigned long long>(failures.unknown_forward),
              static_cast<unsigned long long>(failures.duplicate),
              static_cast<unsigned long long>(failures.missing_reply),
              static_cast<unsigned long long>(failures.table_shift),
              static_cast<unsigned long long>(failures.flush_missed),
              static_cast<unsigned long long>(failures.overload_drops),
              static_cast<unsigned long long>(failures.transport));
  for (const std::string& v : violations) std::printf("check failed: %s\n", v.c_str());

  const bool correct = failures.total() == 0 && violations.empty();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(std::max<std::uint64_t>(1, attempted)),
              static_cast<unsigned long long>(failures.total()), metrics.json().c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  e2e::Args args;
  if (!e2e::parse_args(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload warm_hits|cold_misses|churn --seed N --seconds S "
                 "--trace 0|1 [--workdir DIR]\n",
                 argv[0]);
    return 2;
  }
  ::signal(SIGPIPE, SIG_IGN);
  return e2e::run(args);
}
