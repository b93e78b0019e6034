// The benchmark rig: one DfiSystem served through net::SocketFrontend on
// loopback TCP, four switch emulators and one controller emulator, all on
// one EventLoop driven from the calling thread.
//
// Every Packet-in is an "exchange" identified by its xid. It completes when
// its switch has read the Table-0 FlowMod deciding it and, if allowed, the
// controller has seen it and the switch has read the controller's
// table-shifted reply. The rig checks every step of that exchange against
// the invariants listed in README.md and counts what fails.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "bus/message_bus.h"
#include "core/dfi_system.h"
#include "core/journal.h"
#include "net/asyncio/event_loop.h"
#include "net/asyncio/frontend.h"
#include "ofwire.h"
#include "peer.h"
#include "sim/simulator.h"
#include "trace.h"
#include "workload.h"

namespace e2e {

struct Failures {
  std::uint64_t no_decision = 0;          // no Table-0 FlowMod by phase end
  std::uint64_t unexpected_flow_mod = 0;  // Table-0 add for no outstanding Packet-in
  std::uint64_t verdict_mismatch = 0;     // differs from the snapshot oracle
  std::uint64_t denied_forwarded = 0;     // I1: a denied xid reached the controller
  std::uint64_t unknown_forward = 0;      // controller saw an xid nobody has outstanding
  std::uint64_t duplicate = 0;            // second forward or reply for one xid
  std::uint64_t missing_reply = 0;        // allowed, but never forwarded or answered
  std::uint64_t table_shift = 0;          // wrong table id seen by switch or controller
  std::uint64_t flush_missed = 0;         // a revoke's delete missed a switch
  std::uint64_t overload_drops = 0;       // PCP admission rejected a Packet-in
  std::uint64_t transport = 0;            // socket error, stall or xid collision

  Failures& operator+=(const Failures& o) {
    no_decision += o.no_decision;
    unexpected_flow_mod += o.unexpected_flow_mod;
    verdict_mismatch += o.verdict_mismatch;
    denied_forwarded += o.denied_forwarded;
    unknown_forward += o.unknown_forward;
    duplicate += o.duplicate;
    missing_reply += o.missing_reply;
    table_shift += o.table_shift;
    flush_missed += o.flush_missed;
    overload_drops += o.overload_drops;
    transport += o.transport;
    return *this;
  }

  std::uint64_t total() const {
    return no_decision + unexpected_flow_mod + verdict_mismatch + denied_forwarded +
           unknown_forward + duplicate + missing_reply + table_shift + flush_missed +
           overload_drops + transport;
  }
};

// Benchmark-owned memory, allocated and touched before the RSS baseline
// and reused by every rig a run builds.
struct Buffers {
  Buffers(const Workload& workload, std::size_t max_latency_samples);

  // Per flow: oracle verdict (cookie << 1 | allow); 0 = not computed.
  std::vector<std::uint64_t> expected;
  std::vector<double> decision_us;
  std::vector<double> ttfb_us;
  std::vector<double> flush_us;
  std::array<std::vector<std::uint8_t>, kSwitches> send;
  std::vector<std::uint8_t> reply;  // controller FlowMod template (xid patched)
};

struct PhaseTotals {
  std::uint64_t pins = 0;     // decided Packet-ins
  std::uint64_t allowed = 0;
  std::int64_t wall_ns = 0;
  std::int64_t cpu_ns = 0;    // thread CPU time
  std::uint64_t steal_ticks = 0;
  bool ok = true;
};

class Rig {
 public:
  // Largest per-switch burst: the PCP admits 7 in service + 32 queued per
  // read batch by default.
  static constexpr std::uint32_t kMaxBurst = 32;

  // `id` tells apart the journal files of rigs alive at the same time.
  Rig(const Workload& workload, Buffers& buffers, std::string workdir, int cpu, int id);
  ~Rig();
  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;

  // Build the system, load the population, attach the journal (churn),
  // start the frontend and complete all four handshakes.
  bool setup(std::string* error);
  // warm_hits / cold_misses: every flow's verdict from decide_on_snapshots
  // with a zero-capacity cache on the snapshots as of now.
  void compute_oracle();

  bool warm_up();
  // One Packet-in outstanding, round-robin over the switches. Records
  // decision and TTFB latencies, and churn's flush latencies.
  PhaseTotals latency_phase(std::int64_t duration_ns);
  // `burst` Packet-ins per switch in one write each; the next burst starts
  // once every exchange of the last has completed.
  PhaseTotals burst_phase(std::int64_t duration_ns, std::uint32_t burst);
  // Churn's insert+revoke write followed by one Packet-in, `rounds` times;
  // records flush latencies (warm_hits and cold_misses).
  PhaseTotals flush_probe(std::size_t rounds);

  dfi::DfiSystem& system() { return *system_; }
  dfi::net::EventLoop& loop() { return loop_; }
  const Failures& failures() const { return failures_; }
  std::uint64_t attempted() const { return pins_sent_ + revokes_; }
  std::uint64_t revokes() const { return revokes_; }
  std::uint64_t inserts() const { return inserts_; }
  std::uint64_t binding_writes() const { return binding_writes_; }
  dfi::Journal* journal() { return journal_.get(); }
  TimingJournalStore* wal_store() { return wal_store_.get(); }
  const std::string& wal_path() const { return wal_path_; }

 private:
  struct Exchange {
    std::int64_t t_send = 0;
    std::int64_t t_decided = 0;
    std::int64_t t_replied = 0;
    std::uint32_t xid = 0;
    std::uint32_t flow = 0;
    std::uint8_t sw = 0;
    bool active = false;
    bool decided = false;
    bool allow = false;
    bool forwarded = false;
    bool replied = false;
  };
  struct PendingFlush {
    std::uint64_t cookie = 0;
    std::int64_t t_revoke = 0;
    std::uint8_t seen = 0;  // one bit per switch
    bool record = false;
  };

  void send_pins(std::uint32_t sw, std::uint32_t count);
  void churn_writes(std::uint64_t count);
  void publish_binding();
  void insert_and_revoke(bool record);
  void on_switch_frame(std::uint32_t sw, const std::uint8_t* f, std::size_t n,
                       std::int64_t t);
  void on_delete(std::uint32_t sw, const FlowModView& mod, std::int64_t t);
  void on_controller_frame(std::size_t peer, const std::uint8_t* f, std::size_t n);
  void maybe_complete(Exchange& x);
  // Drive the loop until every exchange and tracked flush has completed.
  bool run_until_idle();
  // Close a phase: count whatever is still outstanding as failed.
  void settle();
  PhaseTotals begin_phase() const;
  void end_phase(PhaseTotals* totals) const;

  const Workload& workload_;
  Buffers& buffers_;
  std::string workdir_;
  int cpu_;
  int id_;

  // Declaration order is teardown order reversed: the emulators and the
  // frontend leave the loop before it dies, the system before the journal
  // it writes to and the bus it subscribes to.
  dfi::net::EventLoop loop_;
  dfi::Simulator sim_;
  dfi::MessageBus bus_;
  std::string wal_path_;
  std::unique_ptr<dfi::FileJournalStore> wal_file_;
  std::unique_ptr<TimingJournalStore> wal_store_;
  std::unique_ptr<dfi::Journal> journal_;
  std::unique_ptr<dfi::DfiSystem> system_;
  std::unique_ptr<dfi::net::SocketFrontend> frontend_;
  std::unique_ptr<Listener> controller_;
  std::vector<std::unique_ptr<Peer>> controller_peers_;
  std::array<std::unique_ptr<Peer>, kSwitches> switches_;

  std::array<Exchange, 256> slots_{};
  std::array<std::array<std::uint8_t, 2 * kMaxBurst>, kSwitches> pending_{};
  std::array<std::uint32_t, kSwitches> pending_count_{};
  std::array<std::size_t, kSwitches> cursor_{};
  std::uint32_t outstanding_ = 0;
  std::uint32_t next_xid_ = 1;
  std::uint32_t request_ = 0;  // traced request id of the latency phase
  std::vector<PendingFlush> flushes_;
  std::deque<dfi::PolicyRuleId> churn_ids_;
  std::uint64_t churn_next_ = 0;
  std::uint32_t handshakes_ = 0;

  // Latency blocks record decision, TTFB and churn flush latencies.
  bool record_latency_ = false;
  std::uint64_t pins_sent_ = 0;
  std::uint64_t decided_ = 0;
  std::uint64_t allowed_ = 0;
  std::uint64_t revokes_ = 0;
  std::uint64_t inserts_ = 0;
  std::uint64_t binding_writes_ = 0;
  std::uint64_t overload_seen_ = 0;
  Failures failures_;
};

}  // namespace e2e
