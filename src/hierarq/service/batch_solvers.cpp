#include "hierarq/service/batch_solvers.h"

#include <optional>

#include "hierarq/algebra/prob_monoid.h"
#include "hierarq/algebra/resilience_monoid.h"
#include "hierarq/algebra/semirings.h"
#include "hierarq/core/expectation.h"
#include "hierarq/core/resilience.h"
#include "hierarq/core/shapley.h"
#include "hierarq/obs/trace.h"

namespace hierarq {

namespace {

/// Unwraps a vector of optional results filled by pool tasks (every slot
/// is engaged once ParallelFor returns).
template <typename T>
std::vector<Result<T>> Collect(std::vector<std::optional<Result<T>>> slots) {
  std::vector<Result<T>> out;
  out.reserve(slots.size());
  for (std::optional<Result<T>>& slot : slots) {
    out.push_back(std::move(*slot));
  }
  return out;
}

}  // namespace

std::vector<Result<uint64_t>> CountBatch(
    EvalService& service, const std::vector<const ConjunctiveQuery*>& queries,
    const Database& db) {
  const CountMonoid monoid;
  return service.EvaluateMany<CountMonoid>(
      monoid, queries, db, [](const Fact&) -> uint64_t { return 1; });
}

std::vector<Result<double>> EvaluateProbabilityBatch(
    EvalService& service, const std::vector<const ConjunctiveQuery*>& queries,
    const TidDatabase& db) {
  const ProbMonoid monoid;
  return service.EvaluateMany<ProbMonoid>(
      monoid, queries, db.facts(),
      [&db](const Fact& fact) { return db.Probability(fact); });
}

std::vector<Result<double>> ExpectedMultiplicityBatch(
    EvalService& service, const std::vector<const ConjunctiveQuery*>& queries,
    const TidDatabase& db) {
  const ExpectationMonoid monoid;
  return service.EvaluateMany<ExpectationMonoid>(
      monoid, queries, db.facts(),
      [&db](const Fact& fact) { return db.Probability(fact); });
}

std::vector<Result<uint64_t>> ComputeResilienceBatch(
    EvalService& service, const std::vector<const ConjunctiveQuery*>& queries,
    const Database& exogenous, const Database& endogenous,
    const CancelToken* cancel, obs::QueryStats* stats) {
  Result<Database> combined = exogenous.UnionWith(endogenous);
  if (!combined.ok()) {
    return std::vector<Result<uint64_t>>(queries.size(), combined.status());
  }
  const ResilienceMonoid monoid;
  return service.EvaluateMany<ResilienceMonoid>(
      monoid, queries, *combined, ResilienceCostAnnotator(exogenous), cancel,
      stats);
}

std::vector<Result<ProvenanceResult>> ComputeProvenanceBatch(
    EvalService& service, const std::vector<const ConjunctiveQuery*>& queries,
    const Database& db) {
  std::vector<std::optional<Result<ProvenanceResult>>> slots(queries.size());
  service.pool().ParallelFor(queries.size(), [&](size_t worker, size_t i) {
    slots[i] =
        ComputeProvenance(service.worker_evaluator(worker), *queries[i], db);
  });
  return Collect(std::move(slots));
}

Result<std::vector<std::pair<Fact, Fraction>>> AllShapleyValues(
    EvalService& service, const ConjunctiveQuery& query,
    const Database& exogenous, const Database& endogenous,
    const CancelToken* cancel, obs::QueryStats* stats) {
  const std::vector<Fact> facts = endogenous.AllFacts();
  std::vector<std::pair<Fact, Fraction>> out;
  if (facts.empty()) {
    return out;
  }
  // Run 0 is #Sat(Dx, Dn); run i + 1 is #Sat(Dx, Dn \ {facts[i]}).
  const size_t runs = facts.size() + 1;
  std::vector<std::optional<Result<std::vector<BigUint>>>> slots(runs);
  // A collector is single-threaded, so each run fills its own and the
  // caller sums them once the fan-out is done.
  std::vector<obs::QueryStats> run_stats(stats != nullptr ? runs : 0);
  uint64_t start_ns = 0;
  if (stats != nullptr) {
    stats->plan_cache_hit = service.plan_cache().Contains(query);
    start_ns = obs::Tracer::NowNs();
  }
  service.pool().ParallelFor(runs, [&](size_t worker, size_t i) {
    // Absorb CancelledError inside the task (pool tasks must not throw)
    // and turn it into a per-slot status.
    try {
      ScopedCancel watch(cancel);
      obs::ScopedQueryStats accounting(stats != nullptr ? &run_stats[i]
                                                        : nullptr);
      Evaluator& evaluator = service.worker_evaluator(worker);
      slots[i] = i == 0 ? CountSat(evaluator, query, exogenous, endogenous)
                        : CountSatWithout(evaluator, query, exogenous,
                                          endogenous, facts[i - 1]);
    } catch (const CancelledError&) {
      slots[i] = Status::DeadlineExceeded(
          "deadline expired during Shapley fan-out");
    }
  });
  if (stats != nullptr) {
    for (const obs::QueryStats& run : run_stats) {
      stats->AddCounters(run);
    }
    stats->exec_ns = obs::Tracer::NowNs() - start_ns;
  }

  for (const std::optional<Result<std::vector<BigUint>>>& slot : slots) {
    if (!slot->ok()) {
      return slot->status();
    }
  }
  std::vector<std::vector<BigUint>> without;
  without.reserve(facts.size());
  for (size_t i = 1; i < runs; ++i) {
    without.push_back(std::move(**slots[i]));
  }
  std::vector<Fraction> values = ShapleyFromSatCounts(**slots[0], without);
  out.reserve(facts.size());
  for (size_t i = 0; i < facts.size(); ++i) {
    out.emplace_back(facts[i], std::move(values[i]));
  }
  return out;
}

}  // namespace hierarq
