#ifndef HIERARQ_NET_ASYNC_SERVICE_H_
#define HIERARQ_NET_ASYNC_SERVICE_H_

/// \file async_service.h
/// \brief Async, admission-controlled submission over `EvalService`.
///
/// `EvalService::EvaluateMany` blocks the calling thread until its batch
/// is done — correct for a CLI, wrong for a connection thread that must
/// keep reading frames while a big replay runs. `AsyncEvalService` puts a
/// bounded job queue and a small fleet of *submitter* threads in front:
/// `Submit` enqueues a job and returns immediately; a submitter thread
/// later runs it (the job does the blocking `EvaluateMany` / batch-solver
/// call and invokes whatever completion it captured — writing a response
/// frame, fulfilling a promise). Caller threads never block in
/// evaluation.
///
/// Two server-grade policies live here rather than in every caller:
///
///   * **Admission control.** The queue has a hard depth cap; `Submit`
///     on a full queue returns kResourceExhausted instead of queueing —
///     under overload the server sheds load at the door with a cheap
///     error frame, it does not build an unbounded backlog of work it
///     cannot finish (each rejection is counted in `metrics()`).
///   * **Deadlines from admission.** Each accepted job gets a
///     `CancelToken` armed when it is ACCEPTED, so time spent waiting in
///     the queue counts against the deadline — a request that waited 90%
///     of its budget gets only the remainder to evaluate, and the
///     engine's checkpoints (core/cancel.h) cut the replay off between
///     elimination steps.
///
/// `Shutdown` (also run by the destructor) cancels every queued job's
/// token and drains: jobs still run — their evaluations abort at the
/// first checkpoint — so completions always fire and no response frame
/// is silently dropped.

#include <cstddef>
#include <cstdint>
#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "hierarq/core/cancel.h"
#include "hierarq/obs/metrics.h"
#include "hierarq/service/eval_service.h"

namespace hierarq::net {

class AsyncEvalService {
 public:
  struct Options {
    /// The wrapped evaluation service's configuration.
    EvalService::Options service;
    /// Threads driving blocking evaluations. Each occupies one queued
    /// job at a time and waits while the service's worker pool runs it.
    /// The pool fans out only across the runs inside one job (a
    /// multi-query group, Shapley's |Dn|+1 runs); a single-query job
    /// occupies one worker, so at most this many of them evaluate at once.
    size_t submit_threads = 2;
    /// Admission cap: jobs waiting (not yet picked up). Submit returns
    /// kResourceExhausted past it.
    size_t max_queue_depth = 64;
    /// Deadline for jobs that do not carry their own (0 = unbounded).
    uint64_t default_deadline_ms = 0;
  };

  /// A unit of async work: runs on a submitter thread with `cancel`
  /// armed; does its own blocking evaluation and completion. Jobs must
  /// not throw (they run on detached-from-caller threads).
  using Job = std::function<void(EvalService& service,
                                 const CancelToken& cancel)>;

  explicit AsyncEvalService(Options options);
  ~AsyncEvalService();

  AsyncEvalService(const AsyncEvalService&) = delete;
  AsyncEvalService& operator=(const AsyncEvalService&) = delete;

  EvalService& service() { return service_; }

  /// Enqueues `job`. Returns OK and runs the job asynchronously, or
  /// kResourceExhausted immediately when the queue is at capacity (the
  /// job is dropped without running — the caller still holds it and can
  /// report the rejection). `deadline_ms` 0 uses the default; the
  /// token's clock starts now, not at job start.
  Status Submit(Job job, uint64_t deadline_ms = 0);

  /// Jobs accepted but not yet picked up by a submitter.
  size_t queue_depth() const;

  /// Age (ns) of the job that has waited longest in the queue right now,
  /// or 0 when the queue is empty — the fleet-view "is this server
  /// falling behind" signal (a deep queue of fresh jobs is throughput; a
  /// shallow queue with an old head is a stall).
  uint64_t oldest_job_age_ns() const;

  /// How long the job currently running on THIS submitter thread waited
  /// in the admission queue. Valid only inside a running job; jobs copy
  /// it into their `QueryStats::queue_wait_ns`. Reading it outside a
  /// submitter thread returns 0. A thread_local accessor (rather than a
  /// Job parameter) keeps every existing Job signature unchanged.
  static uint64_t CurrentJobQueueWaitNs();

  /// Cancels queued jobs' tokens, drains the queue (completions still
  /// fire), joins the submitters. Subsequent Submit calls are rejected.
  void Shutdown();

  /// Async-layer counters: accepted/rejected/completed jobs, queue
  /// depth. The wrapped service's evaluation counters stay in
  /// `service().metrics()`.
  const obs::MetricsRegistry& metrics() const { return registry_; }

 private:
  struct Queued {
    Job job;
    std::shared_ptr<CancelToken> token;
    /// Tracer::NowNs() at admission; queue wait = pickup − enqueue.
    uint64_t enqueue_ns = 0;
  };

  void SubmitterLoop();

  Options options_;
  EvalService service_;
  obs::MetricsRegistry registry_;
  obs::Counter* accepted_ = nullptr;
  obs::Counter* rejected_ = nullptr;
  obs::Counter* completed_ = nullptr;
  obs::Gauge* queue_gauge_ = nullptr;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<Queued> queue_;
  bool stopping_ = false;
  std::vector<std::jthread> submitters_;  // Last: joined first.
};

}  // namespace hierarq::net

#endif  // HIERARQ_NET_ASYNC_SERVICE_H_
