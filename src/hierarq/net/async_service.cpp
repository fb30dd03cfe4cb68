#include "hierarq/net/async_service.h"

#include <utility>

#include "hierarq/algebra/bagmax_monoid.h"  // SatMulU64
#include "hierarq/obs/trace.h"

namespace hierarq::net {

namespace {

/// Queue wait of the job running on this submitter thread (0 elsewhere).
/// Set by SubmitterLoop immediately before each job runs; a thread_local
/// keeps the Job signature — and every existing caller — unchanged.
thread_local uint64_t g_current_job_queue_wait_ns = 0;

}  // namespace

AsyncEvalService::AsyncEvalService(Options options)
    : options_(options), service_(options.service) {
  accepted_ = registry_.GetCounter("async.jobs_accepted");
  rejected_ = registry_.GetCounter("async.jobs_rejected_queue_full");
  completed_ = registry_.GetCounter("async.jobs_completed");
  queue_gauge_ = registry_.GetGauge("async.queue_depth");
  const size_t n = options.submit_threads == 0 ? 1 : options.submit_threads;
  submitters_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    submitters_.emplace_back([this] { SubmitterLoop(); });
  }
}

AsyncEvalService::~AsyncEvalService() { Shutdown(); }

Status AsyncEvalService::Submit(Job job, uint64_t deadline_ms) {
  Queued queued;
  queued.job = std::move(job);
  queued.token = std::make_shared<CancelToken>();
  queued.enqueue_ns = obs::Tracer::NowNs();
  const uint64_t budget_ms =
      deadline_ms != 0 ? deadline_ms : options_.default_deadline_ms;
  if (budget_ms != 0) {
    // Armed NOW: queue wait burns deadline budget, so a request stuck
    // behind a backlog fails fast at its first checkpoint instead of
    // evaluating long after the client gave up. The budget is the
    // client's u64, so the conversion saturates instead of wrapping.
    queued.token->ExpireAfter(SatMulU64(budget_ms, 1'000'000));
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) {
      return Status::ResourceExhausted("service is shutting down");
    }
    if (options_.max_queue_depth > 0 &&
        queue_.size() >= options_.max_queue_depth) {
      rejected_->Add();
      return Status::ResourceExhausted(
          "admission queue full (" +
          std::to_string(options_.max_queue_depth) + " jobs waiting)");
    }
    queue_.push_back(std::move(queued));
    accepted_->Add();
    queue_gauge_->Set(static_cast<int64_t>(queue_.size()));
  }
  cv_.notify_one();
  return Status::OK();
}

size_t AsyncEvalService::queue_depth() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queue_.size();
}

uint64_t AsyncEvalService::oldest_job_age_ns() const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (queue_.empty()) {
    return 0;
  }
  // FIFO queue: the front is always the longest waiter.
  const uint64_t now = obs::Tracer::NowNs();
  const uint64_t enqueued = queue_.front().enqueue_ns;
  return now > enqueued ? now - enqueued : 0;
}

uint64_t AsyncEvalService::CurrentJobQueueWaitNs() {
  return g_current_job_queue_wait_ns;
}

void AsyncEvalService::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) {
      return;
    }
    stopping_ = true;
    // Queued evaluations are pointless now — cancel their tokens so each
    // job's replay aborts at its first checkpoint. The jobs still RUN
    // (the submitters drain the queue below), so completions fire and
    // every in-flight request gets its (cancelled) response.
    for (Queued& queued : queue_) {
      queued.token->Cancel();
    }
  }
  cv_.notify_all();
  submitters_.clear();  // jthread join: drains the queue.
}

void AsyncEvalService::SubmitterLoop() {
  while (true) {
    Queued queued;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) {
        return;  // stopping_ and drained.
      }
      queued = std::move(queue_.front());
      queue_.pop_front();
      queue_gauge_->Set(static_cast<int64_t>(queue_.size()));
    }
    const uint64_t now = obs::Tracer::NowNs();
    g_current_job_queue_wait_ns =
        now > queued.enqueue_ns ? now - queued.enqueue_ns : 0;
    queued.job(service_, *queued.token);
    g_current_job_queue_wait_ns = 0;
    completed_->Add();
  }
}

}  // namespace hierarq::net
