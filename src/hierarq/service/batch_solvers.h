#ifndef HIERARQ_SERVICE_BATCH_SOLVERS_H_
#define HIERARQ_SERVICE_BATCH_SOLVERS_H_

/// \file batch_solvers.h
/// \brief The five solvers' batchable paths, routed through `EvalService`.
///
/// Two batching shapes, matching how each problem parallelizes:
///
///   * *Shared-annotation* batches (count, PQE, expected multiplicity,
///     resilience): many queries over one database in one monoid — one
///     base-relation annotation pass serves the whole group, replays fan
///     out across the workers.
///   * *Fan-out* batches (provenance, Shapley): the annotation is
///     query-local (provenance numbers each query's facts from zero) or
///     the databases are perturbed per run (Shapley evaluates |Dn|+1
///     Algorithm 1 instances), so the win is spreading the independent
///     runs across the pool, each on a worker-owned Evaluator behind the
///     shared plan cache.
///
/// All functions block until their results are ready and may be called
/// concurrently from multiple client threads; none may be called from
/// inside a pool task.

#include <utility>
#include <vector>

#include "hierarq/core/provenance_pipeline.h"
#include "hierarq/data/database.h"
#include "hierarq/data/tid_database.h"
#include "hierarq/obs/query_stats.h"
#include "hierarq/query/query.h"
#include "hierarq/service/eval_service.h"
#include "hierarq/util/fraction.h"
#include "hierarq/util/result.h"

namespace hierarq {

/// Number of satisfying assignments of each query over `db` (counting
/// semiring — the Algorithm 1 side of `hierarq_cli count`). One result per
/// query, in order; non-hierarchical queries fail individually.
std::vector<Result<uint64_t>> CountBatch(
    EvalService& service, const std::vector<const ConjunctiveQuery*>& queries,
    const Database& db);

/// Pr[Q] of each query over one tuple-independent database
/// (Theorem 5.8), sharing a single probability-annotation pass.
std::vector<Result<double>> EvaluateProbabilityBatch(
    EvalService& service, const std::vector<const ConjunctiveQuery*>& queries,
    const TidDatabase& db);

/// E[Q(D)] of each query over one TID database, sharing one pass.
std::vector<Result<double>> ExpectedMultiplicityBatch(
    EvalService& service, const std::vector<const ConjunctiveQuery*>& queries,
    const TidDatabase& db);

/// Resilience of each query over one (exogenous, endogenous) split,
/// sharing one cost-annotation pass over the combined database.
/// `cancel` (optional) bounds the replays — see core/cancel.h. `stats`
/// (optional) receives the first query's accounting, as in
/// `EvalService::EvaluateMany`.
std::vector<Result<uint64_t>> ComputeResilienceBatch(
    EvalService& service, const std::vector<const ConjunctiveQuery*>& queries,
    const Database& exogenous, const Database& endogenous,
    const CancelToken* cancel = nullptr, obs::QueryStats* stats = nullptr);

/// Read-once provenance of each query over `db`. Fact tables are
/// query-local, so this fans the queries out across the workers instead of
/// sharing an annotation pass.
std::vector<Result<ProvenanceResult>> ComputeProvenanceBatch(
    EvalService& service, const std::vector<const ConjunctiveQuery*>& queries,
    const Database& db);

/// Shapley values of all endogenous facts (Theorem 5.16) with the #Sat
/// computations — |Dn|+1 full Algorithm 1 runs: #Sat(Dx, Dn) and one
/// #Sat(Dx, Dn \ {f}) per fact — spread across the service's workers.
/// Results in `endogenous.AllFacts()` order; matches the single-threaded
/// `AllShapleyValues` exactly. With `cancel` set, the whole call fails
/// kDeadlineExceeded if any run is cut off. With `stats` set, it receives
/// the runs' summed step, row and checkpoint counters, the fan-out's wall
/// time as `exec_ns`, and whether the plan was already cached.
Result<std::vector<std::pair<Fact, Fraction>>> AllShapleyValues(
    EvalService& service, const ConjunctiveQuery& query,
    const Database& exogenous, const Database& endogenous,
    const CancelToken* cancel = nullptr, obs::QueryStats* stats = nullptr);

}  // namespace hierarq

#endif  // HIERARQ_SERVICE_BATCH_SOLVERS_H_
