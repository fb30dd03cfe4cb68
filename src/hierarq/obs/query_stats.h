#ifndef HIERARQ_OBS_QUERY_STATS_H_
#define HIERARQ_OBS_QUERY_STATS_H_

/// \file query_stats.h
/// \brief Per-evaluation resource accounting (`QueryStats`).
///
/// The metrics registry answers "what has this process done"; a served
/// client asks "what did *my* query cost". `QueryStats` is that answer:
/// one plain struct of counters for a single evaluation — rows scanned
/// and emitted per rule, how many elimination steps ran, how often the
/// cancellation gate was polled, how
/// long the request waited in the admission queue versus executing, and
/// whether the plan came out of a cache. The server attaches it to the
/// result frame (net/wire.h, flag-gated so old clients never see it) and
/// the slow-query log (obs/log.h) renders it next to the query text.
///
/// Collection follows the `ScopedCancel` idiom exactly (core/cancel.h):
/// a `ScopedQueryStats` guard installs a collector pointer in a
/// thread_local for the scope of one evaluation, and every Algorithm 1
/// runner bumps it through one hoisted null check per run. Evaluation may
/// run on a different thread from the caller (a service pool worker), so
/// the installer is whoever wraps the actual `ReplayPlan`/`Evaluate`
/// call — `EvalService::EvaluateGroup` installs it beside the cancel
/// token. With no collector installed the cost is one thread_local load
/// per step loop, which is what keeps disabled accounting invisible (the
/// bench suite's accounting-overhead row guards this).
///
/// A collector is written by exactly one evaluation thread at a time;
/// fields that other layers fill (queue_wait_ns from the async admission
/// queue, plan_cache_hit from the planner) are written before or after
/// the evaluation runs, never concurrently with it.

#include <cstdint>
#include <string>

namespace hierarq::obs {

/// Everything one evaluation cost. All counters are cumulative within
/// one evaluation; `Reset()` (or value-initialization) starts a fresh
/// request.
struct QueryStats {
  // Per-rule row traffic. "scanned" counts step input support (Rule 2:
  // |left| + |right|, the union-scan bound of Lemma 6.6); "emitted"
  // counts result support.
  uint64_t rule1_rows_scanned = 0;
  uint64_t rule1_rows_emitted = 0;
  uint64_t rule2_rows_scanned = 0;
  uint64_t rule2_rows_emitted = 0;

  // Step mix. This engine runs every step serially, so `steps_parallel`
  // stays 0; it keeps its slot in the stats wire section, where older
  // peers that ran intra-query parallel steps still report them.
  uint64_t steps_total = 0;
  uint64_t steps_serial = 0;
  uint64_t steps_parallel = 0;

  /// Cancellation checkpoints polled (one per step loop iteration).
  uint64_t cancel_checkpoints = 0;

  /// Wall time spent queued behind the async admission door before a
  /// submitter picked the job up (0 for direct evaluation).
  uint64_t queue_wait_ns = 0;
  /// Wall time inside the Algorithm 1 run itself.
  uint64_t exec_ns = 0;

  /// The evaluation reused a cached `EliminationPlan` (Evaluator private
  /// cache or the service's SharedPlanCache) instead of building one.
  bool plan_cache_hit = false;

  void Reset() { *this = QueryStats{}; }

  /// One step's accounting; called by every runner behind its hoisted
  /// null check.
  void RecordStep(uint8_t rule, uint64_t rows_in, uint64_t rows_out) {
    if (rule == 1) {
      rule1_rows_scanned += rows_in;
      rule1_rows_emitted += rows_out;
    } else {
      rule2_rows_scanned += rows_in;
      rule2_rows_emitted += rows_out;
    }
    ++steps_total;
    ++steps_serial;
  }

  /// Adds `other`'s row, step and checkpoint counters — how a caller
  /// that fans one request out over several collectors (one per run)
  /// folds them into the request's stats. Timings and `plan_cache_hit`
  /// are the caller's to set.
  void AddCounters(const QueryStats& other) {
    rule1_rows_scanned += other.rule1_rows_scanned;
    rule1_rows_emitted += other.rule1_rows_emitted;
    rule2_rows_scanned += other.rule2_rows_scanned;
    rule2_rows_emitted += other.rule2_rows_emitted;
    steps_total += other.steps_total;
    steps_serial += other.steps_serial;
    steps_parallel += other.steps_parallel;
    cancel_checkpoints += other.cancel_checkpoints;
  }

  /// key=value rendering, single line — the form the slow-query log and
  /// `hierarq_cli client --stats` print.
  std::string Render() const {
    std::string out;
    out.reserve(256);
    const auto field = [&out](const char* key, uint64_t value) {
      if (!out.empty()) {
        out += ' ';
      }
      out += key;
      out += '=';
      out += std::to_string(value);
    };
    field("rule1_rows_scanned", rule1_rows_scanned);
    field("rule1_rows_emitted", rule1_rows_emitted);
    field("rule2_rows_scanned", rule2_rows_scanned);
    field("rule2_rows_emitted", rule2_rows_emitted);
    field("steps", steps_total);
    field("serial_steps", steps_serial);
    field("parallel_steps", steps_parallel);
    field("cancel_checkpoints", cancel_checkpoints);
    field("queue_wait_ns", queue_wait_ns);
    field("exec_ns", exec_ns);
    out += " plan_cache_hit=";
    out += plan_cache_hit ? "true" : "false";
    return out;
  }
};

namespace query_stats_internal {

/// The collector watching this thread's current evaluation, if any.
inline thread_local QueryStats* g_current = nullptr;

}  // namespace query_stats_internal

/// The runner-side gate: the collector to bump, or nullptr (the
/// overwhelmingly common case — one thread_local load).
inline QueryStats* CurrentQueryStats() {
  return query_stats_internal::g_current;
}

/// Installs `stats` as this thread's collector for the enclosing scope
/// (restoring the previous one on exit, so nested evaluations compose —
/// mirror of `ScopedCancel`). Pass nullptr to run a scope uncollected.
class ScopedQueryStats {
 public:
  explicit ScopedQueryStats(QueryStats* stats)
      : previous_(query_stats_internal::g_current) {
    query_stats_internal::g_current = stats;
  }
  ~ScopedQueryStats() { query_stats_internal::g_current = previous_; }

  ScopedQueryStats(const ScopedQueryStats&) = delete;
  ScopedQueryStats& operator=(const ScopedQueryStats&) = delete;

 private:
  QueryStats* const previous_;
};

}  // namespace hierarq::obs

#endif  // HIERARQ_OBS_QUERY_STATS_H_
