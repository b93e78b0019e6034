#include "core/pcp.h"

#include <cassert>
#include <chrono>
#include <thread>
#include <utility>

#include "common/logging.h"

namespace dfi {

PolicyCompilationPoint::PolicyCompilationPoint(Simulator& sim, MessageBus& bus,
                                               EntityResolutionManager& erm,
                                               PolicyManager& policy,
                                               PcpConfig config, TimingHook* timing)
    : sim_(sim),
      bus_(bus),
      erm_(erm),
      policy_(policy),
      config_(config),
      timing_(timing),
      pool_(config),
      flush_subscription_(bus.subscribe<FlushDirective>(
          topics::kRuleFlush,
          [this](const FlushDirective& directive) { flush(directive); })) {
  caches_.reserve(pool_.shards());
  for (std::size_t i = 0; i < pool_.shards(); ++i) {
    caches_.push_back(std::make_unique<DecisionCache<PcpDecision>>(
        config_.decision_cache_capacity));
  }
  if (config_.wildcard_caching) {
    // Identity-derived cached rules depend on the bindings used to narrow
    // them; retraction invalidates those caches (see core/rule_cache.h).
    binding_subscription_ = bus.subscribe<BindingEvent>(
        topics::kErmBindings,
        [this](const BindingEvent& event) { on_binding_changed(event); });
  }
}

namespace {

// Delete-all FLOW_MOD for Table 0: cookie mask 0 selects every rule.
FlowModMsg make_clear_all() {
  FlowModMsg del;
  del.command = FlowModCommand::kDelete;
  del.table_id = 0;
  del.cookie = Cookie{0};
  del.cookie_mask = Cookie{0};
  del.out_port = kPortAny;
  return del;
}

}  // namespace

void PolicyCompilationPoint::register_switch(Dpid dpid, SwitchWriter writer) {
  const bool reconnect = !known_dpids_.insert(dpid).second;
  switches_[dpid] = std::move(writer);
  if (!reconnect) return;
  // Reconnect resync: rules installed before the session was lost may cite
  // policies revoked while the switch was unreachable — the flush DELETE
  // could not be delivered. Clear Table 0 wholesale; flows re-enter via
  // Packet-in and are re-decided against current policy.
  ++stats_.resync_clears;
  switches_[dpid](OfMessage{0, make_clear_all()});
}

void PolicyCompilationPoint::resync_all() {
  const FlowModMsg del = make_clear_all();
  for (const auto& [dpid, writer] : switches_) {
    ++stats_.resync_clears;
    writer(OfMessage{0, del});
  }
}

void PolicyCompilationPoint::unregister_switch(Dpid dpid) {
  switches_.erase(dpid);
}

DecisionSnapshots PolicyCompilationPoint::capture_snapshots() const {
  return DecisionSnapshots{erm_.snapshot_view(), policy_.snapshot_view()};
}

bool PolicyCompilationPoint::admit_modelled(BatchItem& item) {
  // Parse once, on the control thread: the canonical flow tuple both keys
  // the decision cache and pins the flow to its shard. The model draws the
  // service times before shard routing, so the draw sequence is independent
  // of the shard count (shards=1 replays the single PCP exactly).
  DecisionInput input = make_decision_input(item.dpid, item.msg);
  const std::size_t shard = pool_.shard_of(input.flow_key);
  // Decision-time context capture: the DES serializes everything, so
  // running the sensor + snapshot capture when service *completes* makes
  // each completion exactly one step of the single-threaded oracle.
  return timing_->admit(shard, [this, dpid = item.dpid, input = std::move(input),
                                done = std::move(item.done)]() mutable {
    const DecisionEffects effects = decide_from_input(input);
    apply_effects(dpid, effects, done);
  });
}

std::size_t PolicyCompilationPoint::submit_threaded_batch(BatchItem* items,
                                                          std::size_t count) {
  // One snapshot pair for the whole batch (the refcount hoist): no
  // control-thread effect can run between these submissions, so per-item
  // captures would return the identical pair anyway — batch submission is
  // byte-identical to a back-to-back handle_packet_in loop by construction.
  // Workers borrow the context by raw pointer; retire_batches frees it.
  auto context = std::make_unique<BatchContext>();
  context->snapshots = capture_snapshots();
  context->policy_epoch = context->snapshots.policy->epoch();
  context->binding_epoch = context->snapshots.erm.epoch();
  BatchContext* ctx = context.get();

  std::size_t accepted = 0;
  for (std::size_t i = 0; i < count; ++i) {
    BatchItem& item = items[i];
    ++stats_.packet_ins;

    // The modelled blocking, drawn per item before shard routing in
    // submission order.
    const double blocking_ms = timing_ != nullptr ? timing_->draw_blocking_ms() : 0.0;

    DecisionInput input = make_decision_input(item.dpid, item.msg);
    const std::size_t shard = pool_.shard_of(input.flow_key);

    // Submit-time context capture: workers must not read live ERM/policy
    // state, so the snapshot pair (batch-wide) and the one location scalar
    // (per item) are fixed here, on the control thread. The location
    // sensor runs later, in the apply closure, so binding updates still
    // happen in submission order against the live ERM.
    if (input.packet.has_value()) {
      input.prior_src_location =
          erm_.location_of_mac(item.dpid, input.packet->eth.src);
    }
    item.accepted = pool_.submit_threaded(
        shard,
        [this, ctx, dpid = item.dpid, shard, input = std::move(input),
         done = std::move(item.done), blocking_ms]() mutable -> std::function<void()> {
          if (blocking_ms > 0.0) {
            // The paper's PCP spends its Table II service time blocked on
            // component queries (IPC to the ERM and Policy Manager), not on
            // CPU. Model that as real blocking time so wall-clock
            // throughput scales with the number of in-flight decisions,
            // exactly like the model's service stations.
            std::this_thread::sleep_for(
                std::chrono::duration<double, std::milli>(blocking_ms));
          }
          DecisionEffects effects =
              decide_on_snapshots(input, ctx->snapshots, *caches_[shard], config_);
          return [this, dpid, input = std::move(input),
                  effects = std::move(effects), done = std::move(done),
                  policy_epoch = ctx->policy_epoch,
                  binding_epoch = ctx->binding_epoch]() mutable {
            if (input.packet.has_value()) {
              observe_mac_location(dpid, input.in_port, input.packet->eth.src);
            }
            if (!effects.unparsable && (policy_.epoch() != policy_epoch ||
                                        erm_.epoch() != binding_epoch)) {
              // The decision raced a policy or binding mutation: its
              // snapshots predate the change, so installing its rule could
              // resurrect a just-revoked policy (the flush DELETE already
              // ran). Re-decide on fresh snapshots before any effect lands.
              ++stats_.stale_redecides;
              effects =
                  decide_on_snapshots(input, capture_snapshots(),
                                      redecide_cache_, config_);
            }
            apply_effects(dpid, effects, done);
          };
        });
    if (item.accepted) {
      ++accepted;
    } else {
      ++stats_.dropped_overload;
    }
  }
  if (accepted > 0) {
    batches_.push_back(PendingBatch{pool_.submitted_seq(), std::move(context)});
  }
  return accepted;
}

void PolicyCompilationPoint::retire_batches() {
  const std::uint64_t applied = pool_.applied_seq();
  while (!batches_.empty() && batches_.front().end_seq <= applied) {
    batches_.pop_front();
  }
}

std::size_t PolicyCompilationPoint::poll_completions() {
  const std::size_t applied = pool_.poll_completions();
  retire_batches();
  return applied;
}

void PolicyCompilationPoint::wait_idle() {
  pool_.wait_idle();
  retire_batches();
}

bool PolicyCompilationPoint::handle_packet_in(Dpid dpid, PacketInMsg msg,
                                              DecisionCallback done) {
  BatchItem item{dpid, std::move(msg), std::move(done)};
  submit(&item, 1, 0);
  return item.accepted;
}

std::size_t PolicyCompilationPoint::handle_packet_in_batch(
    std::vector<BatchItem>& items, std::size_t admitted) {
  return submit(items.data(), items.size(), admitted);
}

std::size_t PolicyCompilationPoint::submit(BatchItem* items, std::size_t count,
                                           std::size_t admitted) {
  if (count == 0) return 0;
  // Threaded: per-packet and batched submission share the batch path, so
  // they are the same code (and provably byte-identical).
  if (pool_.backend() == PcpBackend::kThreads) return submit_threaded_batch(items, count);
  std::size_t accepted = 0;
  for (std::size_t i = 0; i < count; ++i) {
    BatchItem& item = items[i];
    ++stats_.packet_ins;
    if (timing_ != nullptr) {
      item.accepted = admit_modelled(item);
    } else {
      item.accepted = admitted + accepted < config_.queue_capacity;
      if (item.accepted) {
        // The live path: the oracle's steps (see decide()), here and now.
        DecisionInput input = make_decision_input(item.dpid, item.msg);
        apply_effects(item.dpid, decide_from_input(input), item.done);
      }
    }
    if (item.accepted) {
      ++accepted;
    } else {
      ++stats_.dropped_overload;
    }
  }
  return accepted;
}

DecisionEffects PolicyCompilationPoint::decide_from_input(DecisionInput& input) {
  if (input.packet.has_value()) {
    // MAC<->switch-port sensor: the PCP observes data-plane locations from
    // Packet-in metadata and keeps the ERM binding current (Section IV-A).
    observe_mac_location(input.dpid, input.in_port, input.packet->eth.src);
    input.prior_src_location =
        erm_.location_of_mac(input.dpid, input.packet->eth.src);
  }
  const DecisionSnapshots snapshots = capture_snapshots();
  return decide_on_snapshots(input, snapshots,
                             *caches_[pool_.shard_of(input.flow_key)], config_);
}

PcpDecision PolicyCompilationPoint::decide(Dpid dpid, const PacketInMsg& msg) {
  DecisionInput input = make_decision_input(dpid, msg);
  const DecisionEffects effects = decide_from_input(input);
  apply_effects(dpid, effects, nullptr);
  return effects.decision;
}

void PolicyCompilationPoint::apply_effects(Dpid dpid,
                                           const DecisionEffects& effects,
                                           const DecisionCallback& done) {
  if (effects.unparsable) {
    ++stats_.unparsable;
    ++stats_.default_denied;
  } else {
    if (effects.cache_hit) ++stats_.decision_cache_hits;
    count_outcome(effects.decision);
    if (effects.wildcard_installed) {
      ++stats_.wildcard_rules_installed;
      if (effects.identity_derived) {
        identity_cached_policies_.insert(effects.decision.policy.rule_id);
      }
    }
    if (effects.wildcard_fallback) ++stats_.wildcard_fallbacks;
    if (!effects.spoof_reason.empty()) {
      DFI_INFO << "PCP: spoofed packet denied (" << effects.spoof_reason << ")";
    }
    if (effects.has_rule) install(dpid, effects.decision.installed_rule);
  }
  if (done) done(effects.decision);
}

void PolicyCompilationPoint::count_outcome(const PcpDecision& decision) {
  if (decision.spoofed) {
    ++stats_.spoof_denied;
  } else if (decision.allow) {
    ++stats_.allowed;
  } else if (decision.policy.default_deny) {
    ++stats_.default_denied;
  } else {
    ++stats_.denied;
  }
}

DecisionCacheStats PolicyCompilationPoint::aggregate_decision_cache_stats() const {
  DecisionCacheStats total;
  for (const auto& cache : caches_) {
    const DecisionCacheStats& s = cache->stats();
    total.hits += s.hits;
    total.misses += s.misses;
    total.stale_policy += s.stale_policy;
    total.stale_binding += s.stale_binding;
    total.insertions += s.insertions;
    total.evictions += s.evictions;
  }
  return total;
}

std::size_t PolicyCompilationPoint::decision_cache_size() const {
  std::size_t size = 0;
  for (const auto& cache : caches_) size += cache->size();
  return size;
}

void PolicyCompilationPoint::on_binding_changed(const BindingEvent& event) {
  if (!event.retracted) return;
  if (event.kind != BindingKind::kUserHost && event.kind != BindingKind::kHostIp) {
    return;
  }
  if (identity_cached_policies_.empty()) return;
  // Conservative invalidation: flush every identity-derived cached rule.
  // (Tracking which identities narrowed which rule would allow precision;
  // correctness only needs that no stale cached rule survives.)
  ++stats_.binding_invalidations;
  const std::set<PolicyRuleId> to_flush = std::move(identity_cached_policies_);
  identity_cached_policies_.clear();
  for (const PolicyRuleId id : to_flush) {
    bus_.publish(topics::kRuleFlush, FlushDirective{id});
  }
}

void PolicyCompilationPoint::observe_mac_location(Dpid dpid, PortNo port,
                                                  const MacAddress& mac) {
  if (mac.is_multicast()) return;
  const auto current = erm_.location_of_mac(dpid, mac);
  if (current.has_value() && *current == port) return;
  if (current.has_value()) {
    ++stats_.mac_moves;
    BindingEvent retract;
    retract.kind = BindingKind::kMacLocation;
    retract.retracted = true;
    retract.mac = mac;
    retract.dpid = dpid;
    retract.port = *current;
    retract.at = sim_.now();
    bus_.publish(topics::kErmBindings, retract);
  }
  BindingEvent assert_event;
  assert_event.kind = BindingKind::kMacLocation;
  assert_event.mac = mac;
  assert_event.dpid = dpid;
  assert_event.port = port;
  assert_event.at = sim_.now();
  bus_.publish(topics::kErmBindings, assert_event);
}

void PolicyCompilationPoint::install(Dpid dpid, const FlowModMsg& rule) {
  const auto it = switches_.find(dpid);
  if (it == switches_.end()) {
    DFI_WARN << "PCP: no registered switch for " << to_string(dpid);
    return;
  }
  ++stats_.rules_installed;
  it->second(OfMessage{0, rule});
}

void PolicyCompilationPoint::flush(const FlushDirective& directive) {
  ++stats_.flush_directives;
  FlowModMsg del;
  del.command = FlowModCommand::kDelete;
  del.table_id = 0;
  del.cookie = Cookie{directive.policy.value};
  del.cookie_mask = Cookie{~0ull};
  del.out_port = kPortAny;
  // Wildcard match + cookie filter: removes exactly the rules derived from
  // this policy, in every switch.
  for (const auto& [dpid, writer] : switches_) {
    writer(OfMessage{0, del});
  }
}

}  // namespace dfi
