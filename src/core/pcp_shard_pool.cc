#include "core/pcp_shard_pool.h"

#include <algorithm>
#include <chrono>
#include <utility>

#ifdef __linux__
#include <pthread.h>
#include <sched.h>
#endif

namespace dfi {

PcpShardPool::PcpShardPool(const PcpConfig& config)
    : backend_(config.backend),
      shards_(std::max<std::size_t>(1, config.shards)),
      queue_capacity_(config.queue_capacity),
      pin_workers_(config.pin_workers) {
  if (backend_ != PcpBackend::kThreads) return;
  thread_shards_.reserve(shards_);
  for (std::size_t i = 0; i < shards_; ++i) {
    thread_shards_.push_back(std::make_unique<ThreadShard>(i, queue_capacity_));
  }
  // Start workers only after every shard exists: a worker never touches
  // the vector, but symmetry with the destructor keeps this obvious.
  for (auto& shard : thread_shards_) spawn_worker(*shard);
}

PcpShardPool::~PcpShardPool() {
  for (auto& shard : thread_shards_) {
    shard->stop.store(true);
    {
      std::lock_guard<std::mutex> lock(shard->mu);
    }
    shard->cv.notify_all();
  }
  for (auto& shard : thread_shards_) {
    if (shard->worker.joinable()) shard->worker.join();
  }
}

void PcpShardPool::spawn_worker(ThreadShard& shard) {
  shard.worker = std::thread([this, &shard] {
#ifdef __linux__
    if (pin_workers_) {
      // Optional affinity (PcpConfig.pin_workers): shard i on core
      // i mod hw_concurrency. Best effort — a failed set is ignored.
      const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
      cpu_set_t set;
      CPU_ZERO(&set);
      CPU_SET(shard.index % cores, &set);
      pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
    }
#endif
    worker_loop(shard);
  });
}

bool PcpShardPool::submit_threaded(std::size_t shard, ThreadWork work) {
  ThreadShard& target = *thread_shards_[shard];
  // A dead shard has no worker to run the job; reject like a full queue
  // (the caller counts the drop) until respawn_dead_workers revives it.
  if (target.dead.load()) return false;
  // The sequence number is allocated only for accepted jobs, so drops
  // leave no hole in the apply order.
  IngressJob job{next_submit_seq_, std::move(work)};
  if (!target.ingress.try_push(std::move(job))) return false;
  ++next_submit_seq_;
  wake_worker(target);
  return true;
}

void PcpShardPool::set_worker_fault_probe(WorkerFaultProbe probe) {
  std::lock_guard<std::mutex> lock(probe_mu_);
  fault_probe_ = std::move(probe);
  has_probe_.store(fault_probe_ != nullptr);
}

void PcpShardPool::wake_worker(ThreadShard& shard) {
  // Armed-sleeper handshake: the push above published seq_cst; if the
  // worker's flag is not visible yet, the worker is mid-recheck and will
  // see the push instead (spsc_ring.h's ordering notes). The empty lock
  // serializes with the flag-set-to-wait window so the notify cannot fall
  // between the worker's predicate check and its park.
  if (!shard.sleeping.load()) return;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
  }
  shard.cv.notify_all();
}

void PcpShardPool::wake_control() {
  if (!control_waiting_.load()) return;
  {
    std::lock_guard<std::mutex> lock(done_mu_);
  }
  done_cv_.notify_all();
}

bool PcpShardPool::push_completion(ThreadShard& shard, Completion completion) {
  while (!shard.done.try_push(std::move(completion))) {
    // Done ring full: the control thread has not drained in a long while.
    // Park until it does (it wakes us after popping) — unless the pool is
    // being torn down, in which case the completion will never be drained
    // and the worker must not wedge the destructor.
    if (shard.stop.load()) return false;
    std::unique_lock<std::mutex> lock(shard.mu);
    shard.sleeping.store(true);
    shard.cv.wait(lock, [&] { return shard.stop.load() || !shard.done.full(); });
    shard.sleeping.store(false);
  }
  wake_control();
  return true;
}

void PcpShardPool::kill_worker(ThreadShard& shard, std::uint64_t seq) {
  // Die mid-decision: the job in hand is abandoned (a null completion
  // keeps the reorder buffer advancing past its seq) and everything still
  // queued on this shard's ingress ring is left for the control thread's
  // recovery path. The shard stops accepting work until respawned.
  //
  // Order matters: dead is published before the null completion, so any
  // control thread that drained the completion also observes dead — and a
  // dead worker never touches its rings again, which is what makes the
  // control thread's inline takeover of the ingress ring safe.
  shard.dead.store(true);
  jobs_abandoned_.fetch_add(1);
  push_completion(shard, Completion{seq, nullptr});
}

void PcpShardPool::worker_loop(ThreadShard& shard) {
  for (;;) {
    IngressJob job;
    if (!shard.ingress.try_pop(job)) {
      if (shard.stop.load()) return;
      std::unique_lock<std::mutex> lock(shard.mu);
      shard.sleeping.store(true);
      shard.cv.wait(lock,
                    [&] { return shard.stop.load() || !shard.ingress.empty(); });
      shard.sleeping.store(false);
      continue;
    }
    WorkerFault fault = WorkerFault::kNone;
    if (has_probe_.load()) {
      std::lock_guard<std::mutex> lock(probe_mu_);
      if (fault_probe_) fault = fault_probe_(shard.index, job.seq);
    }
    if (fault == WorkerFault::kStall) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    } else if (fault == WorkerFault::kKill) {
      kill_worker(shard, job.seq);
      return;
    }
    std::function<void()> apply = job.work();
    if (fault == WorkerFault::kKillAfterDecide) {
      // The decision ran (the shard's cache may have stored it) but the
      // completion is never published: crash in the publish window.
      kill_worker(shard, job.seq);
      return;
    }
    if (!push_completion(shard, Completion{job.seq, std::move(apply)})) return;
  }
}

std::size_t PcpShardPool::drain_completion_rings() {
  std::size_t drained = 0;
  for (auto& shard : thread_shards_) {
    Completion completion;
    bool popped = false;
    while (shard->done.try_pop(completion)) {
      completed_.emplace(completion.seq, std::move(completion.apply));
      popped = true;
      ++drained;
    }
    // Freed done-ring space: a worker parked on a full ring can continue.
    if (popped) wake_worker(*shard);
  }
  return drained;
}

void PcpShardPool::recover_dead_shards() {
  for (auto& shard : thread_shards_) {
    if (!shard->dead.load()) continue;
    // The worker is gone (it published dead on its way out and never
    // touches its rings again), so the control thread may safely become
    // the ingress ring's consumer and run the stranded jobs — including
    // their touches of the shard's decision cache — without racing anyone.
    IngressJob job;
    while (shard->ingress.try_pop(job)) {
      completed_.emplace(job.seq, job.work());
    }
  }
}

std::size_t PcpShardPool::respawn_dead_workers() {
  recover_dead_shards();
  std::size_t respawned = 0;
  for (auto& shard : thread_shards_) {
    if (!shard->dead.load()) continue;
    // A killed worker can still be parked publishing its abandoning null
    // completion on a full done ring; free space and wake it so the join
    // cannot deadlock. One drain suffices — nothing else pushes to this
    // ring between here and the worker's exit.
    drain_completion_rings();
    wake_worker(*shard);
    if (shard->worker.joinable()) shard->worker.join();
    shard->dead.store(false);
    spawn_worker(*shard);
    ++respawned;
  }
  return respawned;
}

std::size_t PcpShardPool::dead_workers() const {
  std::size_t dead = 0;
  for (const auto& shard : thread_shards_) {
    if (shard->dead.load()) ++dead;
  }
  return dead;
}

std::size_t PcpShardPool::poll_completions() {
  drain_completion_rings();
  recover_dead_shards();
  std::size_t applied = 0;
  for (;;) {
    const auto it = completed_.find(next_apply_seq_);
    if (it == completed_.end()) {
      // The next-in-order job may have completed while applies ran above;
      // re-drain before giving up so a pipelined caller never stalls on a
      // completion that is already sitting in a ring.
      if (drain_completion_rings() == 0) break;
      continue;
    }
    std::function<void()> apply = std::move(it->second);
    completed_.erase(it);
    ++next_apply_seq_;
    if (!apply) continue;  // killed mid-decision: effects never existed
    // Applies publish on the bus, install rules, and may re-enter the pool
    // via callbacks — all single-threaded here on the control thread.
    apply();
    ++applied;
  }
  return applied;
}

bool PcpShardPool::completions_pending() const {
  for (const auto& shard : thread_shards_) {
    if (!shard->done.empty()) return true;
    // A killed shard's stranded jobs never complete on their own — the
    // recovery pass inside poll_completions runs them inline instead, so
    // waiting only on the completion rings would wedge forever.
    if (shard->dead.load() && !shard->ingress.empty()) return true;
  }
  return false;
}

void PcpShardPool::wait_idle() {
  while (next_apply_seq_ < next_submit_seq_) {
    poll_completions();
    if (next_apply_seq_ >= next_submit_seq_) break;
    std::unique_lock<std::mutex> lock(done_mu_);
    control_waiting_.store(true);
    done_cv_.wait(lock, [&] { return completions_pending(); });
    control_waiting_.store(false);
  }
}

}  // namespace dfi
