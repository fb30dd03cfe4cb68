#ifndef HIERARQ_UTIL_WORKER_POOL_H_
#define HIERARQ_UTIL_WORKER_POOL_H_

/// \file worker_pool.h
/// \brief A fixed-size worker pool over an MPMC task queue.
///
/// The engine's execution substrate for across-query fan-out — the
/// service layer's batch groups (service/eval_service.h) and Shapley's
/// independent Algorithm 1 runs: a fixed set of `std::jthread` workers drains one multi-producer/multi-consumer queue
/// (any client thread submits; any worker picks up). Tasks receive the
/// index of the worker running them — that index is how the service hands
/// each task a *worker-owned* `Evaluator` (shared plan cache, private
/// scratch tables) without any per-task locking: a worker runs one task
/// at a time, so its index is an exclusive token for its scratch.
///
/// The pool is deliberately minimal — no priorities, no stealing, no
/// futures. Completion is the caller's concern (`ParallelFor` bundles the
/// common submit-all-then-wait pattern with a `std::latch`), and tasks
/// must not throw: the codebase reports errors through Status/Result, and
/// an exception escaping a task would terminate via the jthread.

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace hierarq {

class WorkerPool {
 public:
  /// A unit of work; invoked with the index (in [0, num_workers())) of the
  /// worker thread executing it.
  using Task = std::function<void(size_t worker_index)>;

  /// Starts `num_workers` threads (clamped to at least 1).
  explicit WorkerPool(size_t num_workers);

  /// Drains the queue — every task submitted before destruction runs —
  /// then joins the workers.
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  size_t num_workers() const { return workers_.size(); }

  /// Enqueues `task`. Thread-safe; never blocks on queue capacity.
  void Submit(Task task);

  /// Runs `fn(worker_index, i)` for every i in [0, n) across the pool and
  /// blocks until all n invocations complete. Must be called from outside
  /// the pool: a worker calling it would wait on work that needs its own
  /// thread. Safe to call concurrently from multiple client threads —
  /// their tasks interleave in the shared queue.
  void ParallelFor(size_t n,
                   const std::function<void(size_t worker_index,
                                            size_t index)>& fn);

  /// Tasks currently waiting in the queue (not the one each worker may be
  /// running). A snapshot — the admission-control signal the future
  /// server's queue-depth limits will read.
  size_t queue_depth() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return queue_.size();
  }

 private:
  void WorkerLoop(size_t index);

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<Task> queue_;
  bool stopping_ = false;
  std::vector<std::jthread> workers_;  // Last member: destroyed (joined) first.
};

}  // namespace hierarq

#endif  // HIERARQ_UTIL_WORKER_POOL_H_
