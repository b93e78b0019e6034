#include "core/dfi_system.h"

#include "core/journal.h"
#include "sim/paper_timing.h"

namespace dfi {
namespace {

// In-process sessions defer every delivery: through the model's proxy
// delay when there is one, at zero delay on the simulator otherwise.
DfiProxy::DeferFn make_defer(Simulator& sim, PaperTiming* timing) {
  if (timing != nullptr) {
    return [timing](std::function<void()> deliver) { timing->delay(std::move(deliver)); };
  }
  return [&sim](std::function<void()> deliver) {
    sim.schedule_after(SimDuration{}, std::move(deliver));
  };
}

}  // namespace

DfiSystem::DfiSystem(Simulator& sim, MessageBus& bus, DfiConfig config)
    : sim_(sim),
      bus_(bus),
      timing_(config.timing.enabled
                  ? std::make_unique<PaperTiming>(sim, config.pcp.shards,
                                                  config.pcp.queue_capacity,
                                                  config.timing.service_scale,
                                                  config.seed)
                  : nullptr),
      erm_(bus),
      policy_manager_(bus),
      pcp_(sim, bus, erm_, policy_manager_, config.pcp, timing_.get()),
      proxy_(pcp_, make_defer(sim, timing_.get())),
      sensors_(bus),
      health_(sim, bus, config.health, Rng(config.seed ^ 0xc2b2ae3d27d4eb4full)) {
  proxy_.attach_health(&health_);
  // Exiting a degraded window invalidates whatever Table 0 accumulated
  // across it: resync every switch so flows re-enter via Packet-in.
  health_.on_transition([this](HealthState, HealthState to) {
    if (to == HealthState::kHealthy) pcp_.resync_all();
  });
}

DfiSystem::~DfiSystem() = default;

void DfiSystem::pump() {
  sim_.run();
  pcp_.wait_idle();
  sim_.run();
}

void DfiSystem::enable_durability(Journal& journal) {
  policy_manager_.attach_journal(&journal);
  erm_.attach_journal(&journal);
  proxy_.attach_journal_stats(&journal);
}

Result<JournalRecovery> DfiSystem::recover_from(Journal& journal) {
  // The degraded window covers the whole replay: any Packet-in arriving
  // before the store is authoritative again is handled by the proxy's
  // fail-secure gate, never decided against half-replayed state.
  health_.enter_degraded("journal-replay");
  Result<JournalRecovery> recovery = journal.recover(policy_manager_, erm_);
  health_.exit_degraded("journal-replay");
  if (recovery.ok()) enable_durability(journal);
  return recovery;
}

void DfiSystem::attach_store_health(FileJournalStore& store) {
  store.attach_health(&health_);
}

}  // namespace dfi
