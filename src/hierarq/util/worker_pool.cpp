#include "hierarq/util/worker_pool.h"

#include <algorithm>
#include <latch>
#include <utility>

#include "hierarq/obs/metrics.h"
#include "hierarq/util/logging.h"

namespace hierarq {

namespace {

// Global pool metrics, summed across every WorkerPool in the process.
// Resolved once into statics so the per-task cost is one relaxed add.
obs::Counter* TasksExecutedCounter() {
  static obs::Counter* const counter =
      obs::MetricsRegistry::Global().GetCounter("workerpool.tasks_executed");
  return counter;
}

obs::Counter* LatchWaitsCounter() {
  static obs::Counter* const counter =
      obs::MetricsRegistry::Global().GetCounter("workerpool.latch_waits");
  return counter;
}

obs::Gauge* QueueDepthGauge() {
  static obs::Gauge* const gauge =
      obs::MetricsRegistry::Global().GetGauge("workerpool.queue_depth");
  return gauge;
}

}  // namespace

WorkerPool::WorkerPool(size_t num_workers) {
  const size_t n = std::max<size_t>(1, num_workers);
  workers_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

WorkerPool::~WorkerPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  // std::jthread joins on destruction; WorkerLoop drains the queue first.
}

void WorkerPool::Submit(Task task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    HIERARQ_CHECK(!stopping_) << "Submit on a stopping WorkerPool";
    queue_.push_back(std::move(task));
  }
  QueueDepthGauge()->Add(1);
  cv_.notify_one();
}

void WorkerPool::WorkerLoop(size_t index) {
  while (true) {
    Task task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) {
        return;  // stopping_ set and every submitted task has run.
      }
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    QueueDepthGauge()->Add(-1);
    task(index);
    TasksExecutedCounter()->Add();
  }
}

void WorkerPool::ParallelFor(
    size_t n, const std::function<void(size_t, size_t)>& fn) {
  if (n == 0) {
    return;
  }
  LatchWaitsCounter()->Add();
  // The latch synchronizes the workers' writes (results stored by `fn`)
  // with the caller's reads after wait() returns.
  std::latch done(static_cast<std::ptrdiff_t>(n));
  for (size_t i = 0; i < n; ++i) {
    Submit([&fn, &done, i](size_t worker) {
      fn(worker, i);
      done.count_down();
    });
  }
  done.wait();
}

}  // namespace hierarq
