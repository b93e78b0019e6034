#include "rig.h"

#include <unistd.h>

#include <algorithm>

#include "core/decision_cache.h"
#include "core/pcp_decide.h"
#include "host.h"
#include "openflow/wire.h"

namespace e2e {

namespace {

constexpr std::int64_t kStallNs = 5'000'000'000;
constexpr std::uint8_t kAllSwitches = (1u << kSwitches) - 1;
constexpr std::uint64_t kChurnBindingEvery = 4;
constexpr std::uint64_t kChurnRuleEvery = 256;

// What a learning controller installs for a new flow: a forwarding rule in
// its first table (Table 1 on the switch once the proxy shifts it).
std::vector<std::uint8_t> controller_reply_template() {
  dfi::FlowModMsg mod;
  mod.command = dfi::FlowModCommand::kAdd;
  mod.table_id = 0;
  mod.priority = 10;
  mod.idle_timeout = 10;
  mod.match.eth_type = 0x0800;
  mod.instructions = dfi::Instructions::output(dfi::PortNo{2});
  return dfi::encode(dfi::OfMessage{0, mod});
}

std::uint64_t verdict_code(std::uint64_t cookie, bool allow) {
  return (cookie << 1) | (allow ? 1 : 0);
}

}  // namespace

Buffers::Buffers(const Workload& workload, std::size_t max_latency_samples)
    : expected(workload.flows.size(), 0), reply(controller_reply_template()) {
  decision_us.reserve(max_latency_samples);
  ttfb_us.reserve(max_latency_samples);
  flush_us.reserve(4096);
  for (auto& scratch : send) scratch.reserve(2 * Rig::kMaxBurst * 128);
  // Touch what was reserved so the RSS baseline already holds it.
  decision_us.assign(max_latency_samples, 0.0);
  ttfb_us.assign(max_latency_samples, 0.0);
  decision_us.clear();
  ttfb_us.clear();
}

Rig::Rig(const Workload& workload, Buffers& buffers, std::string workdir, int cpu,
         int id)
    : workload_(workload),
      buffers_(buffers),
      workdir_(std::move(workdir)),
      cpu_(cpu),
      id_(id) {
  flushes_.reserve(64);
}

Rig::~Rig() {
  for (auto& sw : switches_) sw.reset();
  controller_peers_.clear();
  controller_.reset();
  frontend_.reset();
  system_.reset();
  journal_.reset();
  wal_store_.reset();
  wal_file_.reset();
  if (!wal_path_.empty()) {
    ::unlink(wal_path_.c_str());
    ::unlink((wal_path_ + ".rewrite").c_str());
  }
}

bool Rig::setup(std::string* error) {
  system_ = std::make_unique<dfi::DfiSystem>(sim_, bus_, dfi::DfiConfig::functional());
  dfi::EntityResolutionManager& erm = system_->erm();
  dfi::PolicyManager& policy = system_->policy_manager();

  workload_.gen.emit_initial_bindings(
      [&erm](const dfi::BindingEvent& event) { erm.apply(event); });
  const std::vector<dfi::PolicyRule> rules = workload_.rules();
  for (std::uint32_t i = 0; i < rules.size(); ++i) {
    policy.insert(rules[i], dfi::PdpPriority{Workload::rule_priority(i)}, "population");
  }
  // The churn rules a revoke will find alive (README: churn writes).
  while (churn_ids_.size() < kChurnDepth) {
    churn_ids_.push_back(policy.insert(workload_.churn_rule(churn_next_++),
                                       dfi::PdpPriority{kChurnPriority}, "churn"));
  }

  if (workload_.kind == WorkloadKind::kChurn) {
    wal_path_ = workdir_ + "/wal-" + std::to_string(::getpid()) + "-" +
                std::to_string(id_) + ".log";
    ::unlink(wal_path_.c_str());
    wal_file_ = std::make_unique<dfi::FileJournalStore>(wal_path_);
    wal_store_ = std::make_unique<TimingJournalStore>(*wal_file_);
    journal_ = std::make_unique<dfi::Journal>(*wal_store_);
    system_->enable_durability(*journal_);
    if (!journal_->compact(policy, erm).ok() || wal_file_->io_failures() != 0) {
      *error = "journal compaction failed at " + wal_path_;
      return false;
    }
  }

  controller_ = std::make_unique<Listener>(loop_, [this](int fd) {
    const std::size_t index = controller_peers_.size();
    controller_peers_.push_back(std::make_unique<Peer>(
        loop_, fd,
        [this, index](const std::uint8_t* f, std::size_t n, std::int64_t) {
          on_controller_frame(index, f, n);
        },
        [this, index] {
          if (!controller_peers_[index]->flush_queued()) ++failures_.transport;
        }));
  });
  if (controller_->port() == 0) {
    *error = "controller emulator cannot listen";
    return false;
  }
  dfi::net::FrontendConfig config;
  config.controller_port = controller_->port();
  frontend_ = std::make_unique<dfi::net::SocketFrontend>(loop_, *system_, config);
  const auto port = frontend_->start();
  if (!port.ok()) {
    *error = "frontend cannot listen: " + port.error().message;
    return false;
  }
  for (std::uint32_t sw = 0; sw < kSwitches; ++sw) {
    const int fd = connect_loopback(port.value());
    if (fd < 0) {
      *error = "switch emulator cannot connect";
      return false;
    }
    switches_[sw] = std::make_unique<Peer>(
        loop_, fd,
        [this, sw](const std::uint8_t* f, std::size_t n, std::int64_t t) {
          on_switch_frame(sw, f, n, t);
        },
        nullptr);
    std::vector<std::uint8_t> hello = dfi::encode(dfi::OfMessage{1, dfi::HelloMsg{}});
    dfi::FeaturesReplyMsg features;
    features.datapath_id = dfi::Dpid{sw + 1u};
    features.n_buffers = 256;
    features.n_tables = kSwitchTables;
    const std::vector<std::uint8_t> reply = dfi::encode(dfi::OfMessage{2, features});
    hello.insert(hello.end(), reply.begin(), reply.end());
    if (!switches_[sw]->write_all(hello.data(), hello.size())) {
      *error = "switch emulator handshake write failed";
      return false;
    }
  }
  const std::int64_t deadline = wall_ns() + kStallNs;
  while (handshakes_ < kSwitches) {
    if (wall_ns() > deadline) {
      *error = "handshakes did not complete";
      return false;
    }
    loop_.run_once(1);
  }
  return true;
}

void Rig::compute_oracle() {
  const dfi::DecisionSnapshots snapshots{system_->erm().snapshot_view(),
                                         system_->policy_manager().snapshot_view()};
  dfi::DecisionCache<dfi::PcpDecision> no_cache(0);
  const dfi::PcpConfig config = dfi::DfiConfig::functional().pcp;
  for (std::uint32_t i = 0; i < workload_.flows.size(); ++i) {
    const dfi::Dpid dpid = workload_.dpid(i);
    const dfi::PacketInMsg msg = workload_.packet_in(i);
    dfi::DecisionInput input = dfi::make_decision_input(dpid, msg);
    if (input.packet.has_value()) {
      input.prior_src_location = system_->erm().location_of_mac(dpid, input.packet->eth.src);
    }
    const dfi::DecisionEffects effects =
        dfi::decide_on_snapshots(input, snapshots, no_cache, config);
    buffers_.expected[i] = verdict_code(effects.decision.installed_rule.cookie.value,
                                        effects.decision.allow);
  }
}

void Rig::send_pins(std::uint32_t sw, std::uint32_t count) {
  std::vector<std::uint8_t>& out = buffers_.send[sw];
  out.clear();
  const std::vector<std::uint32_t>& mine = workload_.by_switch[sw];
  const std::uint32_t first_xid = next_xid_;
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint32_t flow = mine[cursor_[sw]++ % mine.size()];
    const std::uint32_t xid = next_xid_++;
    if (next_xid_ == 0) next_xid_ = 1;
    Exchange& x = slots_[xid & 0xff];
    if (x.active || pending_count_[sw] == pending_[sw].size()) {
      ++failures_.transport;  // more in flight than the xid ring holds
      continue;
    }
    x = Exchange{};
    x.xid = xid;
    x.flow = flow;
    x.sw = static_cast<std::uint8_t>(sw);
    x.active = true;
    pending_[sw][pending_count_[sw]++] = static_cast<std::uint8_t>(xid & 0xff);
    ++outstanding_;
    ++pins_sent_;
    const Flow& f = workload_.flows[flow];
    const std::size_t at = out.size();
    out.insert(out.end(), workload_.frames.begin() + f.frame_offset,
               workload_.frames.begin() + f.frame_offset + f.frame_size);
    put_be32(out.data() + at + 4, xid);
  }
  ScopedSpan span(SpanName::kEmuSend, first_xid);
  const std::int64_t t = wall_ns();
  for (std::uint32_t i = 0; i < count; ++i) {
    Exchange& x = slots_[(first_xid + i) & 0xff];
    if (x.active && x.t_send == 0) x.t_send = t;
  }
  if (!switches_[sw]->write_all(out.data(), out.size())) ++failures_.transport;
}

void Rig::churn_writes(std::uint64_t count) {
  if (workload_.kind != WorkloadKind::kChurn) return;
  for (std::uint64_t n = pins_sent_; n < pins_sent_ + count; ++n) {
    if (n % kChurnBindingEvery == 0) publish_binding();
    if (n % kChurnRuleEvery == 0 && n > 0) insert_and_revoke(record_latency_);
  }
}

void Rig::publish_binding() {
  const dfi::BindingEvent event = workload_.churn_binding(binding_writes_++);
  {
    ScopedSpan span(SpanName::kChurnPublish);
    bus_.publish(dfi::topics::kErmBindings, event);
  }
  if (g_tracer != nullptr) {
    // Traced only: take the capture here so its cost is its own span.
    ScopedSpan span(SpanName::kErmSnapshot);
    (void)system_->erm().snapshot_view();
  }
}

void Rig::insert_and_revoke(bool record) {
  dfi::PolicyManager& policy = system_->policy_manager();
  dfi::PolicyRule rule = workload_.churn_rule(churn_next_++);
  {
    ScopedSpan span(SpanName::kChurnInsert);
    churn_ids_.push_back(
        policy.insert(std::move(rule), dfi::PdpPriority{kChurnPriority}, "churn"));
  }
  ++inserts_;
  const dfi::PolicyRuleId victim = churn_ids_.front();
  churn_ids_.pop_front();
  PendingFlush flush;
  flush.cookie = victim.value;
  flush.record = record;
  {
    ScopedSpan span(SpanName::kChurnRevoke);
    flush.t_revoke = wall_ns();
    if (!policy.revoke(victim)) ++failures_.flush_missed;
  }
  ++revokes_;
  flushes_.push_back(flush);
  if (g_tracer != nullptr) {
    // Traced only: the rebuild the next decision would pay, timed here.
    ScopedSpan span(SpanName::kPolicySnapshot);
    (void)policy.snapshot_view();
  }
}

void Rig::on_switch_frame(std::uint32_t sw, const std::uint8_t* f, std::size_t n,
                          std::int64_t t) {
  if (f[1] != kOfptFlowMod) return;  // e.g. a controller HELLO passed through
  FlowModView mod;
  if (!parse_flow_mod(f, n, &mod)) {
    ++failures_.transport;
    return;
  }
  if (mod.table != 0) {
    // The controller's reply, shifted from its table 0 into Table 1.
    Exchange& x = slots_[mod.xid & 0xff];
    if (mod.table != 1) ++failures_.table_shift;
    if (!x.active || x.xid != mod.xid || x.sw != sw || !x.forwarded) {
      ++failures_.unknown_forward;
      return;
    }
    if (x.replied) {
      ++failures_.duplicate;
      return;
    }
    x.replied = true;
    x.t_replied = t;
    maybe_complete(x);
    return;
  }
  if (mod.command == kFlowModDelete) {
    on_delete(sw, mod, t);
    return;
  }
  // A decision: match it to the outstanding Packet-in of the same flow.
  auto& pending = pending_[sw];
  std::uint32_t& count = pending_count_[sw];
  for (std::uint32_t i = 0; i < count; ++i) {
    Exchange& x = slots_[pending[i]];
    const Flow& flow = workload_.flows[x.flow];
    if (flow.in_port != mod.in_port || flow.ip_src != mod.ip_src ||
        flow.ip_dst != mod.ip_dst || flow.sport != mod.tcp_src ||
        flow.dport != mod.tcp_dst) {
      continue;
    }
    pending[i] = pending[--count];
    if (mod.command != kFlowModAdd) ++failures_.unexpected_flow_mod;
    x.decided = true;
    x.t_decided = t;
    x.allow = mod.goto_table;
    const std::uint64_t expected = buffers_.expected[x.flow];
    if (expected != 0 && expected != verdict_code(mod.cookie, mod.goto_table)) {
      ++failures_.verdict_mismatch;
    }
    if (x.forwarded && !x.allow) ++failures_.denied_forwarded;
    maybe_complete(x);
    return;
  }
  ++failures_.unexpected_flow_mod;
}

void Rig::on_delete(std::uint32_t sw, const FlowModView& mod, std::int64_t t) {
  if (mod.cookie_mask != ~0ull) return;  // Table-0 resync clear
  for (std::size_t i = 0; i < flushes_.size(); ++i) {
    PendingFlush& flush = flushes_[i];
    if (flush.cookie != mod.cookie) continue;
    flush.seen |= static_cast<std::uint8_t>(1u << sw);
    if (flush.seen == kAllSwitches) {
      if (flush.record) {
        buffers_.flush_us.push_back(static_cast<double>(t - flush.t_revoke) * 1e-3);
      }
      flushes_[i] = flushes_.back();
      flushes_.pop_back();
    }
    return;
  }
  // Conflict and default-deny flushes of inserts are not tracked.
}

void Rig::on_controller_frame(std::size_t peer, const std::uint8_t* f, std::size_t n) {
  if (f[1] == kOfptFeaturesReply) {
    // Shifted by the proxy: the controller never learns of Table 0.
    if (n < 21 || f[20] != kSwitchTables - 1) ++failures_.table_shift;
    ++handshakes_;
    return;
  }
  if (f[1] != kOfptPacketIn) return;
  const std::uint32_t xid = be32(f + 4);
  if (n < 16 || f[15] != 0) ++failures_.table_shift;
  Exchange& x = slots_[xid & 0xff];
  if (!x.active || x.xid != xid) {
    ++failures_.unknown_forward;
    return;
  }
  if (x.forwarded) {
    ++failures_.duplicate;
    return;
  }
  if (x.decided && !x.allow) ++failures_.denied_forwarded;
  x.forwarded = true;
  std::vector<std::uint8_t>& reply = buffers_.reply;
  put_be32(reply.data() + 4, xid);
  controller_peers_[peer]->queue(reply.data(), reply.size());
}

void Rig::maybe_complete(Exchange& x) {
  if (!x.decided || (x.allow && !(x.forwarded && x.replied))) return;
  if (record_latency_) {
    buffers_.decision_us.push_back(static_cast<double>(x.t_decided - x.t_send) * 1e-3);
    if (x.allow) {
      buffers_.ttfb_us.push_back(static_cast<double>(x.t_replied - x.t_send) * 1e-3);
    }
  }
  ++decided_;
  if (x.allow) ++allowed_;
  x.active = false;
  --outstanding_;
}

bool Rig::run_until_idle() {
  const std::int64_t deadline = wall_ns() + kStallNs;
  while (outstanding_ != 0 || !flushes_.empty()) {
    for (const auto& sw : switches_) {
      if (!sw->ok()) return false;
    }
    if (wall_ns() > deadline) return false;
    ScopedSpan span(SpanName::kLoopTurn, request_);
    loop_.run_once(1);
  }
  return true;
}

void Rig::settle() {
  for (Exchange& x : slots_) {
    if (!x.active) continue;
    if (!x.decided) {
      ++failures_.no_decision;
    } else {
      ++failures_.missing_reply;
    }
    x.active = false;
  }
  outstanding_ = 0;
  pending_count_.fill(0);
  failures_.flush_missed += flushes_.size();
  flushes_.clear();
  const std::uint64_t drops = system_->pcp().stats().dropped_overload;
  failures_.overload_drops += drops - overload_seen_;
  overload_seen_ = drops;
}

PhaseTotals Rig::begin_phase() const {
  PhaseTotals totals;
  totals.pins = decided_;
  totals.allowed = allowed_;
  totals.wall_ns = wall_ns();
  totals.cpu_ns = thread_cpu_ns();
  totals.steal_ticks = steal_ticks(cpu_);
  return totals;
}

void Rig::end_phase(PhaseTotals* totals) const {
  totals->wall_ns = wall_ns() - totals->wall_ns;
  totals->cpu_ns = thread_cpu_ns() - totals->cpu_ns;
  totals->steal_ticks = steal_ticks(cpu_) - totals->steal_ticks;
  totals->pins = decided_ - totals->pins;
  totals->allowed = allowed_ - totals->allowed;
}

bool Rig::warm_up() {
  // One pass over (up to) a thousand flows one at a time, then a few
  // bursts: caches, pools and buffers reach their working sizes.
  const std::size_t flows = std::min<std::size_t>(workload_.flows.size(), 1024);
  for (std::size_t i = 0; i < flows; ++i) {
    churn_writes(1);
    send_pins(static_cast<std::uint32_t>(i % kSwitches), 1);
    if (!run_until_idle()) break;
  }
  for (int b = 0; b < 8; ++b) {
    churn_writes(std::uint64_t{kSwitches} * kMaxBurst);
    for (std::uint32_t sw = 0; sw < kSwitches; ++sw) send_pins(sw, kMaxBurst);
    if (!run_until_idle()) break;
  }
  const bool ok = outstanding_ == 0 && flushes_.empty();
  settle();
  return ok && failures_.total() == 0;
}

PhaseTotals Rig::latency_phase(std::int64_t duration_ns) {
  record_latency_ = true;
  PhaseTotals totals = begin_phase();
  const std::int64_t end = totals.wall_ns + duration_ns;
  std::uint32_t sw = 0;
  while (wall_ns() < end) {
    churn_writes(1);
    request_ = next_xid_;
    send_pins(sw, 1);
    sw = (sw + 1) % kSwitches;
    if (!run_until_idle()) {
      totals.ok = false;
      break;
    }
  }
  request_ = 0;
  end_phase(&totals);
  record_latency_ = false;
  settle();
  return totals;
}

PhaseTotals Rig::burst_phase(std::int64_t duration_ns, std::uint32_t burst) {
  burst = std::min(burst, kMaxBurst);
  PhaseTotals totals = begin_phase();
  const std::int64_t end = totals.wall_ns + duration_ns;
  while (wall_ns() < end) {
    churn_writes(std::uint64_t{kSwitches} * burst);
    for (std::uint32_t sw = 0; sw < kSwitches; ++sw) send_pins(sw, burst);
    if (!run_until_idle()) {
      totals.ok = false;
      break;
    }
  }
  end_phase(&totals);
  settle();
  return totals;
}

PhaseTotals Rig::flush_probe(std::size_t rounds) {
  PhaseTotals totals = begin_phase();
  std::uint32_t sw = 0;
  for (std::size_t i = 0; i < rounds; ++i) {
    insert_and_revoke(/*record=*/true);
    send_pins(sw, 1);
    sw = (sw + 1) % kSwitches;
    if (!run_until_idle()) {
      totals.ok = false;
      break;
    }
  }
  end_phase(&totals);
  settle();
  return totals;
}

}  // namespace e2e
