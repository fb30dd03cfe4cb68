#ifndef HIERARQ_OBS_METRICS_H_
#define HIERARQ_OBS_METRICS_H_

/// \file metrics.h
/// \brief Process-wide metrics: named counters, gauges, and log-2-bucket
/// histograms behind one `MetricsRegistry`.
///
/// Every subsystem used to invent its own counters (`ServiceStats`
/// atomics, per-view `Stats` structs); this registry is the one place
/// they all land, so the CLI's
/// `--metrics`, the tests, and the future server's `/metrics` endpoint
/// read a single catalog. Design constraints, in order:
///
///   1. **The hot path pays one relaxed atomic, or nothing.**
///      `Counter::Add` is a relaxed `fetch_add` on a cache-line-padded
///      shard picked per thread, so N workers bumping the same counter
///      never contend on one line; when metrics are globally disabled
///      (`SetMetricsEnabled(false)`) it is a single relaxed bool load and
///      an early return. Aggregation (summing the shards) happens only at
///      scrape time.
///   2. **Stable handles.** `GetCounter`/`GetGauge`/`GetHistogram`
///      return pointers that stay valid for the registry's lifetime
///      (instruments live behind unique_ptr), so call sites resolve a
///      name once — typically into a function-local static — and never
///      touch the name map again.
///   3. **Two export formats.** `RenderText` for humans (`hierarq_cli
///      --metrics`), `RenderJson` for machines; both render instruments
///      in name order so diffs are stable.
///
/// `MetricsRegistry::Global()` is the process-wide registry every
/// subsystem defaults to; `EvalService` additionally owns a private
/// instance so per-service snapshots (`ServiceStats`) don't bleed across
/// services in one process.

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

namespace hierarq::obs {

namespace metrics_internal {

/// The global on/off switch. Defaults on: instruments are cheap enough
/// to leave running; the switch exists for overhead experiments (the
/// bench instrumentation-overhead row) and belt-and-braces kill switches.
inline std::atomic<bool> g_metrics_enabled{true};

}  // namespace metrics_internal

inline bool MetricsEnabled() {
  return metrics_internal::g_metrics_enabled.load(std::memory_order_relaxed);
}

inline void SetMetricsEnabled(bool enabled) {
  metrics_internal::g_metrics_enabled.store(enabled,
                                            std::memory_order_relaxed);
}

/// A monotonically increasing counter, sharded across cache lines so
/// concurrent writers from different threads (the worker pool, service
/// callers) never bounce one line. Reads sum the shards — exact, because
/// shard values only grow and `Value` is a snapshot like any counter
/// scrape.
class Counter {
 public:
  static constexpr size_t kNumShards = 8;

  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  /// Hot path: one relaxed fetch_add on this thread's shard (nothing at
  /// all when metrics are disabled).
  void Add(uint64_t delta = 1) {
    if (!MetricsEnabled()) {
      return;
    }
    shards_[ThisThreadShard()].value.fetch_add(delta,
                                               std::memory_order_relaxed);
  }

  /// Scrape-time aggregate of all shards.
  uint64_t Value() const;

  /// Zeroes every shard (tests and per-run deltas).
  void Reset();

 private:
  struct alignas(64) Shard {
    std::atomic<uint64_t> value{0};
  };

  /// Threads round-robin onto shards at first use; the assignment is
  /// sticky per thread, so a thread always hits the same (warm) line.
  static size_t ThisThreadShard() {
    static std::atomic<uint32_t> next{0};
    thread_local const uint32_t shard =
        next.fetch_add(1, std::memory_order_relaxed) % kNumShards;
    return shard;
  }

  Shard shards_[kNumShards];
};

/// A point-in-time signed value (queue depths, pool sizes). Single
/// atomic — gauges are set/adjusted rarely compared to counters.
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Set(int64_t value) {
    if (!MetricsEnabled()) {
      return;
    }
    value_.store(value, std::memory_order_relaxed);
  }

  void Add(int64_t delta) {
    if (!MetricsEnabled()) {
      return;
    }
    value_.fetch_add(delta, std::memory_order_relaxed);
  }

  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// A histogram over uint64 values with power-of-two buckets: bucket 0
/// holds exact zeros and bucket i >= 1 holds [2^(i-1), 2^i - 1], so 65
/// buckets cover the whole range with ~2x resolution — plenty for
/// latency-in-ns and batch-size distributions, at a fixed 65-atomic
/// footprint and a branchless `std::bit_width` on the observe path.
class Histogram {
 public:
  static constexpr size_t kNumBuckets = 65;

  Histogram() = default;
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  /// The bucket index `value` lands in.
  static size_t BucketOf(uint64_t value) {
    return static_cast<size_t>(std::bit_width(value));
  }

  /// Smallest value of bucket `i` (0 for bucket 0).
  static uint64_t BucketLowerBound(size_t i) {
    return i == 0 ? 0 : uint64_t{1} << (i - 1);
  }

  /// Largest value of bucket `i`.
  static uint64_t BucketUpperBound(size_t i) {
    if (i == 0) {
      return 0;
    }
    if (i >= kNumBuckets - 1) {
      return UINT64_MAX;
    }
    return (uint64_t{1} << i) - 1;
  }

  void Observe(uint64_t value) {
    if (!MetricsEnabled()) {
      return;
    }
    buckets_[BucketOf(value)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
  }

  uint64_t Count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t Sum() const { return sum_.load(std::memory_order_relaxed); }
  uint64_t BucketCount(size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }

  /// Estimated `q`-quantile (q in [0,1]): finds the bucket holding the
  /// rank and interpolates linearly inside it, so the error is bounded
  /// by the bucket's ~2x width. NaN on an empty histogram — renderers
  /// must not invent a bucket-0 answer for "no data".
  double Quantile(double q) const;

  void Reset();

 private:
  std::atomic<uint64_t> buckets_[kNumBuckets] = {};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
};

/// Owns named instruments. Lookup takes a mutex (resolve handles once);
/// the instruments themselves are lock-free. Names are dotted paths by
/// convention: "<subsystem>.<what>", e.g. "planner.plan_cache_hits".
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-wide registry (engine core, worker pool, incremental
  /// layer). Never destroyed, so handles resolved into static locals stay
  /// valid through static teardown.
  static MetricsRegistry& Global();

  /// Finds or creates the named instrument. The returned pointer is
  /// stable for the registry's lifetime. A name identifies exactly one
  /// instrument kind — re-requesting it as a different kind is a CHECK
  /// failure, not a silent alias.
  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name);

  /// Human-readable dump, one instrument per line in name order:
  ///   counter planner.plans_built 3
  ///   gauge workerpool.queue_depth 0
  ///   histogram service.group_size count=2 sum=9 p50=4.5 p90=6.3
  ///     p99=6.93 [4,7]=2   (one line)
  /// (histograms list only their non-empty buckets; the p* estimates are
  /// omitted entirely when the histogram is empty).
  std::string RenderText() const;

  /// Machine-readable dump: {"counters": {...}, "gauges": {...},
  /// "histograms": {name: {"count": "C", "sum": "S", "p50": ...,
  /// "buckets": {"lo": "n"}}}}. All 64-bit integers are DECIMAL STRINGS
  /// (ns counters exceed 2^53, the double-exact limit); quantiles are
  /// doubles and absent for empty histograms.
  std::string RenderJson() const;

  /// Zeroes every instrument (handles stay valid) — per-run deltas.
  void Reset();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace hierarq::obs

#endif  // HIERARQ_OBS_METRICS_H_
