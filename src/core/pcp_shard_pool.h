// Sharded execution plane for Packet-in decisions (DESIGN.md §5).
//
// The pool partitions Packet-ins across N logical PCP shards (the caller
// routes by canonical-flow-tuple hash, so one flow always lands on one
// shard — and therefore one decision cache). For the kThreads backend each
// shard is one std::thread worker fed by a pair of bounded lock-free SPSC
// rings (common/spsc_ring.h): an ingress ring the control thread pushes
// jobs into, and a completion ring the worker pushes finished "apply"
// closures into, drained by the control thread. No mutex is taken on the
// per-packet path; the per-shard mutex and the global done_mu_ exist only
// to park idle/backpressured threads, and are touched exclusively through
// an armed-sleeper flag handshake (see spsc_ring.h's ordering notes). Apply
// closures are released back to the control thread strictly in submission
// order via a sequence-numbered reorder buffer, so all side effects —
// stats, bus publishes, rule installation, done callbacks — happen
// single-threaded and in a deterministic order regardless of how worker
// execution interleaves.
//
// For the kSimulated backend the pool starts no workers and only routes:
// the PCP decides on the control thread (inline, or at the completion of
// the paper model's service station — sim/paper_timing.h).
//
// The pool is pure transport: it never inspects packets, snapshots, or
// decisions. The PCP shell decides what runs where (core/pcp.cc).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/hash.h"
#include "common/spsc_ring.h"
#include "core/decision_cache.h"
#include "core/pcp_decide.h"

namespace dfi {

// Fault-injection verdict for one threaded-backend job (DESIGN.md §6).
// Consulted by the worker just before it runs the job.
enum class WorkerFault {
  kNone,
  kStall,  // worker sleeps briefly first — models a wedged decision
  kKill,   // worker abandons the job and exits — models a crashed shard
  // Worker runs the decision, then dies before publishing the completion on
  // its ring — models a crash in the window where shard-local state (the
  // decision cache) already saw the job but its effects never reach the
  // control thread. Observably identical to kKill (the job is abandoned)
  // except for that cache residue.
  kKillAfterDecide,
};

class PcpShardPool {
 public:
  // Thread-backend job: runs on the shard's worker thread and returns the
  // apply closure, which the pool runs later on the control thread (via
  // poll_completions/wait_idle) in submission order.
  using ThreadWork = std::function<std::function<void()>()>;

  // Fault probe for the threaded backend: called from the worker thread
  // with (shard, submission seq) before each job runs, so it must be a
  // pure, thread-safe function. Deterministic probes (hash of seed, shard
  // and seq) make worker crashes replayable.
  using WorkerFaultProbe = std::function<WorkerFault(std::size_t, std::uint64_t)>;

  explicit PcpShardPool(const PcpConfig& config);
  ~PcpShardPool();

  PcpShardPool(const PcpShardPool&) = delete;
  PcpShardPool& operator=(const PcpShardPool&) = delete;

  PcpBackend backend() const { return backend_; }
  std::size_t shards() const { return shards_; }

  // The shard one flow is pinned to. mix64 gives the modulo high-entropy
  // low bits (common/hash.h).
  std::size_t shard_of(const FlowKey& key) const {
    return mix64(FlowKeyHash{}(key)) % shards_;
  }

  // Enqueue work on a shard's worker. Control thread only. Returns false
  // when the shard's ingress ring is full (the caller counts the drop).
  bool submit_threaded(std::size_t shard, ThreadWork work);

  // Run apply closures of finished jobs, in submission order, stopping at
  // the first job still in flight. Control thread only. Returns how many
  // were applied. No-op for kSimulated.
  //
  // Fault recovery: jobs stranded on a dead shard (worker killed by the
  // fault probe) are executed inline on the control thread first, so the
  // submission-order contract survives worker death. The one job the
  // worker was killed *on* is abandoned — its apply never runs and its
  // callback never fires, exactly like an overload drop.
  std::size_t poll_completions();

  // Block until every accepted job has been applied or abandoned. Control
  // thread only. Sleeps with an armed-waiter flag: workers take done_mu_
  // and notify only while the control thread is actually parked, so a
  // pipelined caller never pays a wakeup (or a lock) per completion.
  // Wakes on worker death too, so a killed shard can never wedge the
  // caller (the recovery path above drains its rings).
  void wait_idle();

  // Sequence counters, control thread only. Every accepted job gets the
  // next submit seq; applied_seq advances past applied *and* abandoned
  // jobs. The PCP shell uses these to retire batch-shared snapshot
  // contexts once every job borrowing them has retired (core/pcp.h).
  std::uint64_t submitted_seq() const { return next_submit_seq_; }
  std::uint64_t applied_seq() const { return next_apply_seq_; }

  // ---------------------------------------------------- fault injection
  // Install (or clear, with nullptr) the worker fault probe. Threaded
  // backend only; call from the control thread.
  void set_worker_fault_probe(WorkerFaultProbe probe);

  // Join and restart workers the probe killed; their shards accept
  // submissions again. Returns how many workers were respawned. Control
  // thread only.
  std::size_t respawn_dead_workers();

  std::size_t dead_workers() const;
  // Jobs killed by the probe: accepted but never applied.
  std::uint64_t jobs_abandoned() const { return jobs_abandoned_.load(); }

 private:
  struct IngressJob {
    std::uint64_t seq = 0;
    ThreadWork work;
  };
  // A null apply marks a job the probe abandoned (poll_completions skips
  // its seq without running anything).
  struct Completion {
    std::uint64_t seq = 0;
    std::function<void()> apply;
  };

  struct ThreadShard {
    std::size_t index = 0;
    // control thread -> worker; capacity is the configured queue bound.
    SpscRing<IngressJob> ingress;
    // worker -> control thread. Sized past the ingress bound so a worker
    // only blocks when the control thread has not drained for a long time;
    // push_completion handles that backpressure.
    SpscRing<Completion> done;
    std::atomic<bool> stop{false};
    // Set by the worker when the fault probe kills it, strictly before the
    // abandoning completion is published (so any control thread that has
    // drained that completion also sees dead). A dead shard rejects
    // submissions; its stranded ingress ring is drained inline by
    // poll_completions until respawn_dead_workers revives the worker —
    // safe, because a dead worker never touches its rings again.
    std::atomic<bool> dead{false};
    // Armed-sleeper handshake (spsc_ring.h): true only while the worker is
    // parked on cv (idle ingress or full done ring). The control thread
    // locks mu and notifies only when it observes the flag.
    std::atomic<bool> sleeping{false};
    std::mutex mu;
    std::condition_variable cv;
    std::thread worker;

    ThreadShard(std::size_t idx, std::size_t queue_capacity)
        : index(idx), ingress(queue_capacity), done(2 * queue_capacity + 2) {}
  };

  void worker_loop(ThreadShard& shard);
  void spawn_worker(ThreadShard& shard);
  // Worker side: publish a completion, blocking (armed sleep) while the
  // done ring is full. Returns false only when stop was requested first.
  bool push_completion(ThreadShard& shard, Completion completion);
  // Worker side: die on `seq` — mark the shard dead, publish the
  // abandoning null completion, wake the control thread.
  void kill_worker(ThreadShard& shard, std::uint64_t seq);
  // Control side: wake a shard's worker if it is parked (new ingress work
  // or freed done-ring space).
  void wake_worker(ThreadShard& shard);
  // Worker side: wake the control thread if wait_idle is parked.
  void wake_control();
  // Control side: pop every shard's done ring into the reorder buffer.
  // Returns how many completions moved.
  std::size_t drain_completion_rings();
  // Execute jobs stranded on dead shards inline (control thread), filing
  // their applies into the reorder buffer under their original seq.
  void recover_dead_shards();
  // wait_idle's wake predicate: some completion is drainable or some dead
  // shard has stranded work to recover.
  bool completions_pending() const;

  const PcpBackend backend_;
  const std::size_t shards_;
  const std::size_t queue_capacity_;

  // kThreads: workers + the submission-order reorder buffer.
  std::vector<std::unique_ptr<ThreadShard>> thread_shards_;
  std::uint64_t next_submit_seq_ = 0;  // control thread only
  std::uint64_t next_apply_seq_ = 0;   // control thread only
  // seq -> apply closure, control thread only (filled by draining the
  // completion rings; no lock — workers never touch it).
  std::map<std::uint64_t, std::function<void()>> completed_;
  // Armed-waiter handshake for wait_idle: done_mu_ guards nothing but the
  // park itself; workers take it only when control_waiting_ is set.
  std::mutex done_mu_;
  std::condition_variable done_cv_;
  std::atomic<bool> control_waiting_{false};
  // Probe storage: has_probe_ keeps the common case (no probe armed) free
  // of locks; probe_mu_ serializes the read-vs-install race while armed.
  std::mutex probe_mu_;
  std::atomic<bool> has_probe_{false};
  WorkerFaultProbe fault_probe_;
  std::atomic<std::uint64_t> jobs_abandoned_{0};
};

}  // namespace dfi
