#ifndef HIERARQ_CORE_ADAPTIVE_H_
#define HIERARQ_CORE_ADAPTIVE_H_

/// \file adaptive.h
/// \brief Adaptive per-step execution: stats + a cost model pick each
/// elimination step's thread count and parallel cutoff.
///
/// The engine spans a real configuration space — thread count ×
/// `parallel_min_rows` × SIMD tier — and the fastest point depends on
/// |D|, arity, and skew, with crossover points (cf. the
/// trade-offs analysis of Kara/Nikolic/Olteanu/Zhang, arXiv 1907.01988):
/// a 300k-row step wants the sharded scatter on an 8-core host but the
/// serial columnar native on one core, and a 500-row step wants neither
/// latch nor fan-out anywhere. Instead of making callers hand-pick flags,
/// the adaptive mode decides per *elimination step*, from three inputs:
///
///   1. **Cheap stats** (`CollectRelationStats`): input cardinality and
///      arity straight off the store, plus key skew read from the shard
///      occupancy counts when the input lives in a sharded flavor —
///      max/mean shard fill, 1.0 = perfectly uniform. Skew discounts the
///      parallel speedup estimate: one overfull shard serializes the
///      scatter phase no matter how many workers wait on the rest.
///   2. **A calibrated cost model** (`CostModel`): the per-row serial
///      columnar cost and the parallel per-row + per-step-latch constants,
///      anchored on the stored `BENCH_algorithm1.json` thread-scaling rows
///      (bench/baselines/). The constants only need to rank
///      configurations and place the serial/parallel crossover; they are
///      refined per step by (3).
///   3. **Measured feedback through the plan cache**: every adaptive step
///      is timed, and the observed ns/row is folded (EWMA) into a table
///      keyed by the cached `EliminationPlan`'s stable address + step
///      index. Replays of the same plan — the service layer's hot path —
///      re-decide each step from its *measured* cost, so a mis-calibrated
///      constant corrects itself after one replay.
///
/// The runner (`RunAlgorithm1InPlaceAdaptive`) reuses the exact
/// `ProjectDropStep` / `JoinUnionStep` primitives of core/parallel.h, so
/// adaptive execution inherits their determinism: results are
/// bit-identical to every fixed configuration for exact monoids and
/// within the usual 1e-11 relative for double monoids (the adaptive
/// differential suite, tests/adaptive_test.cpp, pins both).
///
/// `AdaptiveController` is single-threaded by design, like the Evaluator
/// that owns it (one controller per worker); plans may be shared across
/// workers but each worker keeps private feedback.

#include <cstddef>
#include <unordered_map>
#include <vector>

#include "hierarq/algebra/two_monoid.h"
#include "hierarq/core/algorithm1.h"
#include "hierarq/core/cancel.h"
#include "hierarq/core/parallel.h"
#include "hierarq/data/annotated.h"
#include "hierarq/data/sharded.h"
#include "hierarq/data/storage.h"
#include "hierarq/obs/trace.h"
#include "hierarq/query/elimination.h"
#include "hierarq/util/logging.h"

namespace hierarq {

/// Cheap per-relation statistics feeding the per-step decision.
struct RelationStats {
  size_t rows = 0;   ///< |supp(R)|.
  size_t arity = 0;  ///< Schema width.
  /// Shard-occupancy skew: max shard size / mean shard size when the
  /// relation lives in kShardedColumnar (>= 1.0; 1.0 = uniform), 1.0 for
  /// layouts without shard counts. A skewed partition caps the effective
  /// parallelism of the scatter phase at kNumShards / skew.
  double skew = 1.0;
};

/// Reads `RelationStats` off `rel` in O(arity + shards) — no row scans.
template <typename K>
RelationStats CollectRelationStats(const AnnotatedRelation<K>& rel) {
  RelationStats stats;
  stats.arity = rel.schema().size();
  if (rel.storage() != StorageKind::kShardedColumnar) {
    stats.rows = rel.size();
    return stats;
  }
  using Sharded = ShardedColumnarStore<K>;
  const Sharded& store = rel.sharded_columnar_store();
  size_t largest = 0;
  for (size_t s = 0; s < Sharded::kNumShards; ++s) {
    const size_t n = store.shard(s).size();
    stats.rows += n;
    largest = n > largest ? n : largest;
  }
  if (stats.rows > 0) {
    stats.skew = static_cast<double>(largest) *
                 static_cast<double>(Sharded::kNumShards) /
                 static_cast<double>(stats.rows);
  }
  return stats;
}

/// The knobs one elimination step runs with, as decided by the
/// controller. Serial steps write kColumnar and parallel steps scatter
/// into kShardedColumnar, so the only choice is whether to fan out.
struct StepChoice {
  bool parallel = false;  ///< Shard-parallel scatter vs serial native.
  size_t threads = 1;     ///< Fan-out when parallel (capped by shards).
  // Introspection (tests, bench rows): the model's cost estimates in ns.
  double predicted_serial_ns = 0.0;
  double predicted_parallel_ns = 0.0;
};

/// Per-row / per-step cost constants, anchored on the stored
/// `bench/baselines/BENCH_algorithm1.json` thread-scaling rows. Absolute
/// values matter less than ranking and crossover placement — measured
/// feedback (AdaptiveController) refines them per plan step.
class CostModel {
 public:
  /// Estimated cost of one serial columnar step over `rows` input rows.
  double SerialStepNs(size_t rows) const;

  /// Estimated cost of the fused shard-parallel step: one pool latch plus
  /// the scatter at `effective_threads`-way parallelism.
  double ParallelStepNs(double effective_threads, size_t rows) const;

  /// Raw per-row constants (ns), exposed for tests. The serial constant
  /// is columnar at |D| = 300k: ~12.2M rows/s -> ~82 ns/row.
  double SerialNsPerRow() const { return 82.0; }
  double ParallelNsPerRow() const { return 260.0; }
  double ParallelStepOverheadNs() const { return 150000.0; }
};

/// Decides per-step knobs and accumulates measured-cost feedback. Keyed
/// by the cached `EliminationPlan`'s address (stable for the owning
/// Evaluator's lifetime — plans live behind unique_ptr in the plan
/// cache), so repeated replays of one plan sharpen its own estimates
/// without cross-plan interference. Not thread-safe: one controller per
/// Evaluator, like the scratch tables.
class AdaptiveController {
 public:
  struct Options {
    /// Worker threads the host can actually run; 0 = detect via
    /// std::thread::hardware_concurrency().
    size_t hardware_threads = 0;
    /// Hard cap on per-step fan-out (the shard count binds anyway).
    size_t max_threads = ShardedColumnarStore<char>::kNumShards;
    /// Inputs below this many rows never go parallel, whatever the model
    /// says — the floor mirrors IntraQueryParallel::min_rows.
    size_t min_parallel_rows = 4096;
  };

  AdaptiveController();  // Equivalent to AdaptiveController(Options{}).
  explicit AdaptiveController(const Options& options);

  /// The thread budget decisions draw from (resolved hardware count).
  size_t hardware_threads() const { return hardware_threads_; }

  const CostModel& cost_model() const { return model_; }

  /// Picks the knobs for step `step_index` of `plan` given its input
  /// stats (for Rule 2, rows = |left| + |right| and skew = the worse
  /// side). `plan` may be nullptr (no feedback key — pure model).
  StepChoice Choose(const EliminationPlan* plan, size_t step_index,
                    const RelationStats& input) const;

  /// Folds one measured step execution into the feedback table (EWMA
  /// over ns/row, separate serial and parallel channels).
  void RecordMeasured(const EliminationPlan* plan, size_t step_index,
                      bool parallel, size_t rows, double seconds);

  /// The current EWMA ns/row for the given channel, or a negative value
  /// when nothing has been recorded — test/introspection surface proving
  /// the feedback round-trips through the plan-cache key.
  double MeasuredNsPerRow(const EliminationPlan* plan, size_t step_index,
                          bool parallel) const;

  /// How many adaptive steps ran parallel / serial so far (ops counters).
  size_t parallel_steps() const { return parallel_steps_; }
  size_t serial_steps() const { return serial_steps_; }

 private:
  struct StepFeedback {
    double serial_ns_per_row = -1.0;
    double parallel_ns_per_row = -1.0;
  };

  size_t hardware_threads_;
  size_t max_threads_;
  size_t min_parallel_rows_;
  CostModel model_;
  std::unordered_map<const EliminationPlan*, std::vector<StepFeedback>>
      feedback_;
  size_t parallel_steps_ = 0;
  size_t serial_steps_ = 0;
};

namespace adaptive_internal {

/// Builds the per-step IntraQueryParallel handle realizing `choice` on
/// top of the evaluator-level `base` (whose pool it borrows). A serial
/// choice — or a base without a pool — drops the pool so the step
/// primitives take their bit-identical serial path; a parallel choice
/// zeroes min_rows because the controller already applied its own floor.
inline IntraQueryParallel StepParallel(const IntraQueryParallel& base,
                                       const StepChoice& choice) {
  IntraQueryParallel par = base;
  if (!choice.parallel || base.pool == nullptr) {
    par.pool = nullptr;
    par.threads = 1;
  } else {
    par.threads = choice.threads;
    par.min_rows = 0;
  }
  return par;
}

}  // namespace adaptive_internal

/// `RunAlgorithm1InPlaceParallel` with per-step adaptive decisions: each
/// Rule 1/Rule 2 step collects its input stats, asks `controller` for the
/// knobs, executes through the shared step primitives, and feeds the
/// measured wall time back. `par` supplies the pool and acts as the
/// ceiling on fan-out; when it has no pool every step runs serial into
/// kColumnar. See
/// RunAlgorithm1InPlace for the relations-vector contract.
template <TwoMonoid M>
typename M::value_type RunAlgorithm1InPlaceAdaptive(
    const EliminationPlan& plan, const M& monoid,
    std::vector<AnnotatedRelation<typename M::value_type>>& relations,
    const IntraQueryParallel& par, AdaptiveController* controller) {
  using K = typename M::value_type;
  HIERARQ_CHECK(controller != nullptr);
  HIERARQ_CHECK_EQ(relations.size(), plan.num_atoms());

  const auto plus = [&monoid](const K& a, const K& b) {
    return monoid.Plus(a, b);
  };
  const auto times = [&monoid](const K& a, const K& b) {
    return monoid.Times(a, b);
  };

  obs::Tracer* const tracer = obs::Tracer::Current();
  obs::QueryStats* const query_stats = obs::CurrentQueryStats();
  size_t step_index = 0;
  for (const EliminationStep& step : plan.steps()) {
    // Deadline gate between steps (see core/cancel.h).
    CancellationCheckpoint();
    AnnotatedRelation<K>& result = relations[step.result_atom];
    const VarSet& result_vars = plan.vars_of(step.result_atom);

    // One clock per step edge serves both consumers: the controller's
    // EWMA feedback and (when installed) the trace event.
    const uint64_t start_ns = obs::Tracer::NowNs();
    size_t input_rows = 0;
    StepChoice choice;
    StepExecution exec;
    if (step.rule == EliminationRule::kProjectVariable) {
      AnnotatedRelation<K>& source = relations[step.source_atom];
      HIERARQ_CHECK_LT(step.drop_pos, source.schema().size());
      HIERARQ_CHECK_EQ(source.schema()[step.drop_pos], step.variable);
      const RelationStats stats = CollectRelationStats(source);
      input_rows = stats.rows;
      choice = controller->Choose(&plan, step_index, stats);
      ProjectDropStep(source, step.drop_pos, result_vars, plus,
                      adaptive_internal::StepParallel(par, choice),
                      StorageKind::kColumnar, &result, &exec);
      source.Clear();
    } else {
      AnnotatedRelation<K>& left = relations[step.left_atom];
      AnnotatedRelation<K>& right = relations[step.right_atom];
      const RelationStats left_stats = CollectRelationStats(left);
      const RelationStats right_stats = CollectRelationStats(right);
      RelationStats stats;
      stats.rows = left_stats.rows + right_stats.rows;
      stats.arity = left_stats.arity;
      stats.skew = left_stats.skew > right_stats.skew ? left_stats.skew
                                                      : right_stats.skew;
      input_rows = stats.rows;
      choice = controller->Choose(&plan, step_index, stats);
      JoinUnionStep(left, right, result_vars, times, monoid.Zero(),
                    adaptive_internal::StepParallel(par, choice),
                    StorageKind::kColumnar, &result, &exec);
      left.Clear();
      right.Clear();
    }
    const uint64_t end_ns = obs::Tracer::NowNs();
    controller->RecordMeasured(&plan, step_index, choice.parallel,
                               input_rows,
                               static_cast<double>(end_ns - start_ns) * 1e-9);
    if (query_stats != nullptr) {
      query_stats->RecordStep(
          step.rule == EliminationRule::kProjectVariable ? 1 : 2, input_rows,
          result.size(), exec.parallel);
    }
    if (tracer != nullptr) {
      obs::TraceStepArgs args;
      args.step_index = static_cast<uint32_t>(step_index);
      args.rule = step.rule == EliminationRule::kProjectVariable ? 1 : 2;
      args.backend = result.storage();
      args.simd = simd::ActiveLevel();
      args.adaptive = true;
      args.parallel = exec.parallel;
      args.threads = static_cast<uint32_t>(exec.threads);
      args.rows_in = input_rows;
      args.rows_out = result.size();
      args.predicted_serial_ns = choice.predicted_serial_ns;
      args.predicted_parallel_ns = choice.predicted_parallel_ns;
      tracer->EmitStep(start_ns, end_ns, args);
    }
    ++step_index;
  }

  AnnotatedRelation<K>& final_rel = relations[plan.final_atom()];
  auto [slot, inserted] = final_rel.FindOrInsert(Tuple{});
  K result = inserted ? monoid.Zero() : std::move(*slot);
  final_rel.Clear();
  return result;
}

}  // namespace hierarq

#endif  // HIERARQ_CORE_ADAPTIVE_H_
