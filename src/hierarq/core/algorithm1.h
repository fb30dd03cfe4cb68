#ifndef HIERARQ_CORE_ALGORITHM1_H_
#define HIERARQ_CORE_ALGORITHM1_H_

/// \file algorithm1.h
/// \brief The paper's Algorithm 1: the general-purpose evaluator for
/// hierarchical SJF-BCQs over any 2-monoid.
///
/// The algorithm replays a compiled `EliminationPlan` (Proposition 5.1)
/// over a K-annotated database:
///   * Rule 1 (private variable Y of atom R(X)):
///       R'(x') = ⊕_{y ∈ Dom} R(x', y)
///     implemented as a hash ⊕-aggregation over the support of R — absent
///     facts annotate to 0, the ⊕ identity, so they contribute nothing;
///   * Rule 2 (atoms R1(X), R2(X) with equal variable sets):
///       R'(x) = R1(x) ⊗ R2(x)
///     implemented over the *union* of supports. This is the one subtle
///     point: a 2-monoid guarantees only 0 ⊗ 0 = 0 (Definition 5.6), not
///     annihilation, so a fact present in R1 but not R2 contributes
///       R1(x) ⊗ 0, which may be non-zero (it is in the #Sat monoid).
///     Only absent-absent pairs may be skipped — exactly the argument of
///     Lemma 6.6, which bounds supp(R') ⊆ supp(R1) ∪ supp(R2).
///
/// Hot-path mechanics: the position of a Rule 1 projection is precomputed
/// in the plan (`EliminationStep::drop_pos`), every result relation is
/// `Reserve`d to its Lemma 6.6 support bound before filling so growth
/// rehashes never fire, and both rules run as storage-layer bulk
/// operations (`AnnotatedRelation::ProjectDropInto` / `JoinUnionInto`) so
/// each backend applies its layout-aware fast path — the columnar backend
/// reads only a projection's surviving columns and builds Rule 2 results
/// with compare-free inserts. Every step inherits the base relations'
/// storage backend, keeping it on a native path. The in-place overload
/// runs over a caller-owned
/// relations vector, which lets `Evaluator` (core/evaluator.h) reuse
/// table buffers across runs, and `RunEliminationSteps` is the step loop
/// alone, which the incremental view (incremental/incremental_view.h)
/// runs with every intermediate kept.
///
/// The returned value is the annotation of the final nullary atom's empty
/// tuple, or Zero() when its support is empty (an empty ⊕). Total work is
/// O(|D|) ⊕/⊗ operations (Theorem 6.7).

#include <utility>
#include <vector>

#include "hierarq/algebra/two_monoid.h"
#include "hierarq/core/cancel.h"
#include "hierarq/data/annotated.h"
#include "hierarq/obs/query_stats.h"
#include "hierarq/obs/trace.h"
#include "hierarq/query/elimination.h"
#include "hierarq/query/query.h"
#include "hierarq/util/result.h"
#include "hierarq/util/simd.h"

namespace hierarq {

/// The elimination loop every engine runs: executes `plan`'s steps in
/// order over `relations`, which must have `plan.num_atoms()` entries with
/// the first `plan.num_base_atoms()` filled by annotation (indexed by query
/// atom position). Each step Resets its result slot into the base
/// relations' backend (scratch slots may carry a stale kind from an
/// earlier run) and runs the storage-native `ProjectDropInto` (Rule 1) or
/// `JoinUnionInto` (Rule 2).
///
/// This loop is the one place that polls the cancellation checkpoint,
/// records `QueryStats` steps and emits the trace's step events. With
/// `keep_inputs` false each consumed input is Cleared (capacity retained
/// for reuse); with it true every relation stays materialized — the
/// incremental view tree (incremental/incremental_view.h). The final
/// nullary relation is left in place either way.
template <TwoMonoid M>
void RunEliminationSteps(
    const EliminationPlan& plan, const M& monoid,
    std::vector<AnnotatedRelation<typename M::value_type>>& relations,
    bool keep_inputs) {
  using K = typename M::value_type;

  HIERARQ_CHECK_EQ(relations.size(), plan.num_atoms());

  const StorageKind storage = relations.front().storage();
  const auto plus = [&monoid](const K& a, const K& b) {
    return monoid.Plus(a, b);
  };
  const auto times = [&monoid](const K& a, const K& b) {
    return monoid.Times(a, b);
  };

  // Hoisted once per run: the untraced hot path pays one null check per
  // step, no clock reads, no event stores. Same deal for the per-query
  // stats collector (obs/query_stats.h).
  obs::Tracer* const tracer = obs::Tracer::Current();
  obs::QueryStats* const query_stats = obs::CurrentQueryStats();
  uint32_t step_index = 0;
  for (const EliminationStep& step : plan.steps()) {
    // Deadline gate: between steps every intermediate is a complete
    // relation, so this is the one safe place to abandon the run.
    CancellationCheckpoint();
    AnnotatedRelation<K>& result = relations[step.result_atom];
    const VarSet& result_vars = plan.vars_of(step.result_atom);
    const uint8_t rule =
        step.rule == EliminationRule::kProjectVariable ? 1 : 2;

    const uint64_t start_ns = tracer != nullptr ? obs::Tracer::NowNs() : 0;
    uint64_t rows_in = 0;
    result.Reset(result_vars, storage);
    if (step.rule == EliminationRule::kProjectVariable) {
      // Rule 1: ⊕-project `step.variable` out of `step.source_atom`.
      AnnotatedRelation<K>& source = relations[step.source_atom];
      HIERARQ_CHECK_LT(step.drop_pos, source.schema().size());
      HIERARQ_CHECK_EQ(source.schema()[step.drop_pos], step.variable);
      rows_in = source.size();
      source.ProjectDropInto(step.drop_pos, plus, &result);
      if (!keep_inputs) {
        source.Clear();
      }
    } else {
      // Rule 2: ⊗-join over the union of supports.
      AnnotatedRelation<K>& left = relations[step.left_atom];
      AnnotatedRelation<K>& right = relations[step.right_atom];
      rows_in = left.size() + right.size();
      AnnotatedRelation<K>::JoinUnionInto(left, right, times, monoid.Zero(),
                                          &result);
      if (!keep_inputs) {
        left.Clear();
        right.Clear();
      }
    }
    if (query_stats != nullptr) {
      query_stats->RecordStep(rule, rows_in, result.size());
    }
    if (tracer != nullptr) {
      obs::TraceStepArgs args;
      args.step_index = step_index;
      args.rule = rule;
      args.backend = result.storage();
      args.simd = simd::ActiveLevel();
      args.rows_in = rows_in;
      args.rows_out = result.size();
      tracer->EmitStep(start_ns, obs::Tracer::NowNs(), args);
    }
    ++step_index;
  }
}

/// Runs Algorithm 1 in place over `relations` (the contract of
/// `RunEliminationSteps`, consumed inputs Cleared) and returns the final
/// nullary atom's annotation.
template <TwoMonoid M>
typename M::value_type RunAlgorithm1InPlace(
    const EliminationPlan& plan, const M& monoid,
    std::vector<AnnotatedRelation<typename M::value_type>>& relations) {
  using K = typename M::value_type;
  RunEliminationSteps(plan, monoid, relations, /*keep_inputs=*/false);

  // The final atom is nullary; its only possible key is the empty tuple.
  // Move the annotation out (it can be a whole provenance tree or #Sat
  // vector) and clear the slot so a reused scratch doesn't retain it.
  AnnotatedRelation<K>& final_rel = relations[plan.final_atom()];
  auto [slot, inserted] = final_rel.FindOrInsert(Tuple{});
  K result = inserted ? monoid.Zero() : std::move(*slot);
  final_rel.Clear();
  return result;
}

/// Runs Algorithm 1 over a pre-built plan and annotated database.
/// `input.relations` must be indexed by query atom position (as produced by
/// `AnnotateForQuery`). Consumes `input`.
template <TwoMonoid M>
typename M::value_type RunAlgorithm1(
    const EliminationPlan& plan, const M& monoid,
    AnnotatedDatabase<typename M::value_type>&& input) {
  using K = typename M::value_type;

  HIERARQ_CHECK_EQ(input.relations.size(), plan.num_base_atoms());
  std::vector<AnnotatedRelation<K>> relations;
  relations.reserve(plan.num_atoms());
  for (auto& rel : input.relations) {
    relations.push_back(std::move(rel));
  }
  relations.resize(plan.num_atoms());
  return RunAlgorithm1InPlace(plan, monoid, relations);
}

/// Convenience wrapper: plans the query, annotates `facts` via `annotator`
/// into the `storage` backend and runs Algorithm 1. Fails with
/// kNotHierarchical for non-hierarchical queries. Callers that evaluate
/// repeatedly should hold an `Evaluator` (core/evaluator.h) instead, which
/// caches the plan and reuses buffers.
template <TwoMonoid M>
Result<typename M::value_type> RunAlgorithm1OnQuery(
    const ConjunctiveQuery& query, const M& monoid, const Database& facts,
    const std::function<typename M::value_type(const Fact&)>& annotator,
    StorageKind storage = kDefaultStorageKind) {
  using K = typename M::value_type;
  HIERARQ_ASSIGN_OR_RETURN(EliminationPlan plan,
                           EliminationPlan::Build(query));
  auto annotated = AnnotateForQuery<K>(
      query, facts, annotator,
      [&monoid](const K& a, const K& b) { return monoid.Plus(a, b); },
      storage);
  return RunAlgorithm1(plan, monoid, std::move(annotated));
}

}  // namespace hierarq

#endif  // HIERARQ_CORE_ALGORITHM1_H_
