#ifndef HIERARQ_OBS_TRACE_H_
#define HIERARQ_OBS_TRACE_H_

/// \file trace.h
/// \brief Low-overhead span tracing for the engine's per-step decisions.
///
/// The step loop (core/algorithm1.h) runs every elimination step on a
/// storage backend and a SIMD tier; this tracer is how each step's
/// choices and sizes become visible. The design is a classic
/// in-memory flight recorder:
///
///   * **Install-to-enable.** There is one process-wide current tracer
///     (an atomic pointer). When none is installed, every emit point —
///     including the RAII `Span` guard — is a single relaxed load and a
///     branch; no clock is read, no memory is written. The disabled
///     configuration is the production default, and the bench suite's
///     instrumentation-overhead row keeps it honest.
///   * **Per-thread ring buffers.** Each emitting thread owns a
///     fixed-size ring of trivially-copyable `TraceEvent`s, registered
///     lazily on first emit; recording is a couple of stores with no
///     locking or allocation. When a ring wraps, the oldest events are
///     overwritten and counted in `dropped()` — a flight recorder keeps
///     the most recent window, it never stalls the engine.
///   * **Two exporters.** `WriteChromeTrace` renders the Chrome
///     trace-event JSON that chrome://tracing / Perfetto load
///     (`hierarq_cli --trace=FILE`); `Snapshot` hands the raw events to
///     in-process consumers — obs/explain.h turns them into the terminal
///     EXPLAIN ANALYZE tree.
///
/// Contracts: `Snapshot`/`WriteChromeTrace` are meant for quiesced
/// tracers (no concurrent emitters — e.g. after the evaluation returned);
/// they lock only against ring registration. A `Tracer` must outlive any
/// `Span` opened while it was installed, and uninstalls itself on
/// destruction if still current. Timestamps come from a process-global
/// steady-clock epoch (`NowNs`), so events from different tracers and
/// subsystems share one timeline.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "hierarq/data/storage.h"
#include "hierarq/util/simd.h"

namespace hierarq::obs {

/// Everything one elimination step reports: which rule ran where and how
/// big it was.
struct TraceStepArgs {
  uint32_t step_index = 0;
  uint8_t rule = 1;  ///< 1 = ⊕-project (Rule 1), 2 = ⊗-merge (Rule 2).
  /// Result backend the step materialized into.
  StorageKind backend = kDefaultStorageKind;
  simd::Level simd = simd::Level::kScalar;  ///< Dispatched SIMD tier.
  uint64_t rows_in = 0;   ///< Input support (Rule 2: |left| + |right|).
  uint64_t rows_out = 0;  ///< Result support.
};

/// One recorded event. Trivially copyable on purpose: rings copy these
/// by value, and names are string literals with static storage duration
/// (emit sites pass `"literal"` names — never a dynamic buffer).
struct TraceEvent {
  enum class Kind : uint8_t {
    kSpan,     ///< A named duration (Chrome "X").
    kStep,     ///< An elimination step with `step` args (Chrome "X").
    kInstant,  ///< A point annotation with one numeric arg (Chrome "i").
  };

  const char* name = "";
  const char* cat = "hierarq";
  Kind kind = Kind::kSpan;
  uint32_t tid = 0;       ///< Ring-local thread id (registration order).
  uint64_t ts_ns = 0;     ///< Start, on the NowNs timeline.
  uint64_t dur_ns = 0;    ///< Zero for instants.
  const char* arg_name = nullptr;  ///< Instant payload label, if any.
  double arg = 0.0;                ///< Instant payload value.
  TraceStepArgs step;              ///< Valid when kind == kStep.
};

/// The flight recorder. Construct, `Install()`, run the workload,
/// quiesce, then `Snapshot()` / `WriteChromeTrace*()`.
class Tracer {
 public:
  /// `capacity_per_thread` is the ring size each emitting thread gets;
  /// the default keeps ~16k most-recent events per thread (~1.6 MB).
  explicit Tracer(size_t capacity_per_thread = size_t{1} << 14);
  ~Tracer();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// The installed tracer, or nullptr — the emit-site gate. One relaxed
  /// atomic load; every instrumentation point starts here.
  static Tracer* Current() {
    return current_.load(std::memory_order_acquire);
  }

  /// Makes this tracer current (replacing any other). Not reference
  /// counted: the caller owns the lifetime ordering.
  void Install() { current_.store(this, std::memory_order_release); }

  /// Clears the current tracer if it is this one.
  void Uninstall() {
    Tracer* self = this;
    current_.compare_exchange_strong(self, nullptr,
                                     std::memory_order_acq_rel);
  }

  /// Nanoseconds since a process-global steady-clock epoch. Cheap enough
  /// to double as the engine's step and request timer.
  static uint64_t NowNs();

  /// Records a completed duration [start_ns, end_ns).
  void EmitSpan(const char* name, const char* cat, uint64_t start_ns,
                uint64_t end_ns);

  /// Records one elimination step (named rule1_project / rule2_merge).
  void EmitStep(uint64_t start_ns, uint64_t end_ns,
                const TraceStepArgs& args);

  /// Records a point annotation, e.g. ("plan", "steps", 4).
  void EmitInstant(const char* name, const char* arg_name, double arg);

  /// All retained events, merged across threads and sorted by
  /// (ts ascending, duration descending) — i.e. parents before their
  /// children. Call only when emitters are quiesced.
  std::vector<TraceEvent> Snapshot() const;

  /// Events overwritten by ring wraparound, across all threads.
  uint64_t dropped() const;

  size_t capacity_per_thread() const { return capacity_; }

  /// Chrome trace-event JSON ({"traceEvents": [...]}) of Snapshot().
  /// `pid` labels every event's process track — cross-process stitching
  /// (client = 1, server = 2) renders as two process lanes in one
  /// timeline. A non-empty `trace_id` is stamped into the envelope as a
  /// top-level "trace_id" field, correlating the file with log lines; it
  /// is written unescaped, so it must be a [0-9A-Za-z_-] token.
  void WriteChromeTrace(std::ostream& out, int pid = 1,
                        const std::string& trace_id = "") const;

  /// WriteChromeTrace to `path`; false (with a note on stderr) on I/O
  /// failure.
  bool WriteChromeTraceFile(const std::string& path, int pid = 1,
                            const std::string& trace_id = "") const;

 private:
  struct Ring {
    std::vector<TraceEvent> events;  ///< Sized to capacity_ lazily.
    size_t next = 0;                 ///< Write cursor.
    uint64_t total = 0;              ///< Events ever pushed.
    uint32_t tid = 0;                ///< Registration order, 0-based.
  };

  /// This thread's ring, registering it on first use. The lookup is a
  /// thread_local cache keyed on the tracer's unique id, so steady-state
  /// emits never take the mutex.
  Ring* ThisThreadRing();

  void Push(const TraceEvent& event);

  static std::atomic<Tracer*> current_;

  const size_t capacity_;
  const uint64_t id_;  ///< Process-unique, keys the thread-local cache.
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Ring>> rings_;
};

/// RAII span guard: marks a region on the current tracer, compiling down
/// to one relaxed load when none is installed. The tracer sampled at
/// construction is the one written at destruction, so a span straddling
/// an install/uninstall stays consistent.
class Span {
 public:
  explicit Span(const char* name, const char* cat = "hierarq")
      : tracer_(Tracer::Current()),
        name_(name),
        cat_(cat),
        start_ns_(tracer_ != nullptr ? Tracer::NowNs() : 0) {}

  ~Span() {
    if (tracer_ != nullptr) {
      tracer_->EmitSpan(name_, cat_, start_ns_, Tracer::NowNs());
    }
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* const tracer_;
  const char* const name_;
  const char* const cat_;
  const uint64_t start_ns_;
};

}  // namespace hierarq::obs

#endif  // HIERARQ_OBS_TRACE_H_
