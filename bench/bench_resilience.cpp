// Experiment E10 — the resilience instantiation (paper §7, Question 2).
//
// Resilience of hierarchical queries via the fourth 2-monoid
// (ℕ ∪ {∞}, +, min): linear-time, validated against subset enumeration.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "hierarq/core/evaluator.h"
#include "hierarq/core/resilience.h"
#include "hierarq/engine/bruteforce.h"
#include "hierarq/workload/data_gen.h"
#include "hierarq/workload/query_gen.h"

namespace hierarq {
namespace {

/// Perf-trajectory rows (BENCH_resilience.json): steady-state resilience
/// solves per second through an Evaluator, one row per storage backend per
/// scale, so the cross-backend A/B covers the (ℕ∪{∞}, +, min)
/// instantiation too.
void EmitThroughputJson() {
  bench::JsonReport report("resilience", "BENCH_resilience.json");
  const ConjunctiveQuery q = MakePaperQuery();

  std::printf("  steady-state resilience throughput (default storage=%s):\n",
              bench::JsonReport::StorageBackend());
  for (size_t tuples : {10000, 30000, 100000}) {
    Rng rng(18);
    DataGenOptions opts;
    opts.tuples_per_relation = tuples;
    opts.domain_size = std::max<size_t>(8, tuples / 4);
    const Database db = RandomDatabaseForQuery(q, rng, opts);
    const auto [exo, endo] = SplitExoEndo(db, rng, 0.5);

    for (StorageKind kind : kAllStorageKinds) {
      Evaluator evaluator(kind);
      const double solves_per_sec = bench::MeasureRate([&] {
        benchmark::DoNotOptimize(ComputeResilience(evaluator, q, exo, endo));
      });
      std::printf("    |D| = %-8zu %-9s %9.0f solves/sec\n", db.NumFacts(),
                  StorageKindName(kind), solves_per_sec);
      report.AddRow(
          bench::JsonReport::StorageRow(
              "paper_query/" + std::to_string(db.NumFacts()), kind),
          {{"num_facts", static_cast<double>(db.NumFacts())},
           {"solves_per_sec", solves_per_sec},
           {"ops_per_sec",
            solves_per_sec * static_cast<double>(db.NumFacts())}});
    }
  }
  report.WriteToFile();
}

void Report() {
  using bench::PrintHeader;
  using bench::PrintNote;
  using bench::PrintRow;
  PrintHeader("E10: resilience via a fourth 2-monoid (Question 2)",
              "(ℕ∪{∞}, +, min) instantiates Algorithm 1 for resilience");
  Rng rng(15);
  size_t agree = 0;
  size_t trials = 0;
  for (int round = 0; round < 10; ++round) {
    RandomHierarchicalOptions qopts;
    qopts.num_variables = 1 + static_cast<size_t>(rng.UniformInt(0, 3));
    const ConjunctiveQuery q = MakeRandomHierarchical(rng, qopts);
    DataGenOptions dopts;
    dopts.tuples_per_relation = 4;
    dopts.domain_size = 3;
    const Database db = RandomDatabaseForQuery(q, rng, dopts);
    if (db.NumFacts() > 14) {
      continue;
    }
    ++trials;
    auto fast = ComputeResilience(q, db);
    agree += fast.ok() &&
             *fast == BruteForceResilience(q, Database{}, db);
  }
  PrintRow("resilience, algorithm vs subset enumeration",
           "all agree",
           std::to_string(agree) + "/" + std::to_string(trials) + " agree");
  PrintNote("Timing sweep: expect ~linear in |D| (O(1) monoid ops).");
  EmitThroughputJson();
}

void BM_Resilience_DataSweep(benchmark::State& state) {
  const ConjunctiveQuery q = MakePaperQuery();
  Rng rng(16);
  DataGenOptions opts;
  opts.tuples_per_relation = static_cast<size_t>(state.range(0));
  opts.domain_size = std::max<size_t>(8, opts.tuples_per_relation / 4);
  const Database db = RandomDatabaseForQuery(q, rng, opts);
  for (auto _ : state) {
    auto r = ComputeResilience(q, db);
    benchmark::DoNotOptimize(r);
  }
  state.SetComplexityN(static_cast<int64_t>(db.NumFacts()));
}
BENCHMARK(BM_Resilience_DataSweep)
    ->RangeMultiplier(4)
    ->Range(256, 65536)
    ->Complexity(benchmark::oN);

void BM_Resilience_WithExogenous(benchmark::State& state) {
  const ConjunctiveQuery q = MakeStarQuery(3);
  Rng rng(17);
  DataGenOptions opts;
  opts.tuples_per_relation = static_cast<size_t>(state.range(0));
  opts.domain_size = std::max<size_t>(8, opts.tuples_per_relation / 4);
  const Database db = RandomDatabaseForQuery(q, rng, opts);
  const auto [exo, endo] = SplitExoEndo(db, rng, 0.5);
  for (auto _ : state) {
    auto r = ComputeResilience(q, exo, endo);
    benchmark::DoNotOptimize(r);
  }
  state.SetComplexityN(static_cast<int64_t>(db.NumFacts()));
}
BENCHMARK(BM_Resilience_WithExogenous)
    ->RangeMultiplier(4)
    ->Range(256, 16384)
    ->Complexity(benchmark::oN);

void BM_Resilience_BruteForce(benchmark::State& state) {
  const ConjunctiveQuery q = MakePaperQuery();
  const size_t n = static_cast<size_t>(state.range(0));
  Database db;
  db.AddFactOrDie("S", MakeTuple({1, 1}));
  for (size_t i = 0; i < n; ++i) {
    if (i % 2 == 0) {
      db.AddFactOrDie("R", MakeTuple({1, static_cast<Value>(i)}));
    } else {
      db.AddFactOrDie("T", MakeTuple({1, 1, static_cast<Value>(i)}));
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(BruteForceResilience(q, Database{}, db));
  }
}
BENCHMARK(BM_Resilience_BruteForce)->DenseRange(4, 16, 2);

}  // namespace
}  // namespace hierarq

HIERARQ_BENCH_MAIN(hierarq::Report)
