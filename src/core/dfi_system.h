// DfiSystem: facade wiring the complete DFI control plane.
//
// Owns the message bus, Entity Resolution Manager, Policy Manager, Policy
// Compilation Point, DFI Proxy, data-plane binding sensors and the health
// monitor, in the topology of paper Figure 1. PDPs are created by the
// application (they embody specific policies) against `policy_manager()`
// and `bus()`.
//
// Durability (DESIGN.md §6): the system does not own a Journal — storage
// lifetime belongs to the deployment — but enable_durability() attaches
// one so every policy/binding mutation is journaled before it takes
// effect, and recover_from() replays one into the empty managers inside an
// explicit degraded window (fail-secure while the store is not yet
// authoritative).
#pragma once

#include <memory>

#include "bus/message_bus.h"
#include "common/result.h"
#include "common/rng.h"
#include "core/entity_resolution.h"
#include "core/health_monitor.h"
#include "core/pcp.h"
#include "core/policy_manager.h"
#include "core/proxy.h"
#include "services/sensors.h"
#include "sim/simulator.h"

namespace dfi {

class Journal;
class FileJournalStore;
class PaperTiming;
struct JournalRecovery;

// The paper's timing model (sim/paper_timing.h): Table II latency draws
// and the Section V-A service stations.
struct TimingConfig {
  bool enabled = true;
  // Scales the modelled PCP service times: 1.0 for Table I/II, 1.8 for
  // the Fig. 4 end-to-end path (harness/ttfb.h).
  double service_scale = 1.0;
};

struct DfiConfig {
  PcpConfig pcp;
  TimingConfig timing;
  HealthConfig health;
  std::uint64_t seed = 0xdf1df1df1ull;

  // No timing model: decisions inline, no modelled delays. What the live
  // socket path and the functional tests run.
  static DfiConfig functional() {
    DfiConfig config;
    config.timing.enabled = false;
    return config;
  }
};

class DfiSystem {
 public:
  // `bus` is the deployment's message bus, shared with the data-plane
  // services whose sensors feed the ERM; it must outlive this object.
  DfiSystem(Simulator& sim, MessageBus& bus, DfiConfig config = {});
  ~DfiSystem();

  DfiSystem(const DfiSystem&) = delete;
  DfiSystem& operator=(const DfiSystem&) = delete;

  Simulator& sim() { return sim_; }
  MessageBus& bus() { return bus_; }
  EntityResolutionManager& erm() { return erm_; }
  PolicyManager& policy_manager() { return policy_manager_; }
  PolicyCompilationPoint& pcp() { return pcp_; }
  DfiProxy& proxy() { return proxy_; }
  SensorSuite& sensors() { return sensors_; }
  HealthMonitor& health() { return health_; }
  // The paper's timing model; null for a functional config.
  PaperTiming* timing() { return timing_.get(); }

  // Drain everything that is ready to run right now: run due simulator
  // events (modelled decisions, deferred in-process deliveries), wait out
  // in-flight threaded decisions, then run what their effects deferred.
  // The socket frontend (src/net/asyncio/frontend.cc) calls this at
  // read-batch boundaries; on the live path it finds nothing to do.
  void pump();

  // Attach `journal` as the durable write-ahead log: every PolicyManager
  // insert/revoke and ERM binding event is appended (and synced) before it
  // takes effect, and the proxy's stats() mirror its recovery counters.
  // The journal must outlive this object.
  void enable_durability(Journal& journal);

  // Replay `journal` into the (expected-empty) managers, holding an
  // explicit degraded window for the duration: while the store is not yet
  // authoritative, the proxy's gate applies (fail-secure suppresses new
  // flows). Attaches the journal afterwards, so post-recovery mutations
  // are journaled. Returns the replay summary or the first corruption
  // beyond the torn tail.
  Result<JournalRecovery> recover_from(Journal& journal);

  // Route `store`'s durable-IO failures (failed fsync/rename) into this
  // system's HealthMonitor as a `journal-io` degraded window: a database
  // whose durability barrier is failing must not back trusted decisions.
  void attach_store_health(FileJournalStore& store);

 private:
  Simulator& sim_;
  MessageBus& bus_;
  // Declared before the PCP and proxy that hold it as their TimingHook.
  std::unique_ptr<PaperTiming> timing_;
  EntityResolutionManager erm_;
  PolicyManager policy_manager_;
  PolicyCompilationPoint pcp_;
  DfiProxy proxy_;
  SensorSuite sensors_;
  HealthMonitor health_;
};

}  // namespace dfi
