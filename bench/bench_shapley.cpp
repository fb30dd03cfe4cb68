// Experiment E5 — Theorem 5.16: #Sat (and hence Shapley values) in
// O((|Dx| + |Dn|) · |Dn|²) time and O((|Dx| + |Dn|) · |Dn|) space.
//
// The #Sat convolutions loop only over each operand's support (one past
// its highest non-zero subset size), so a subtree holding e endogenous
// facts costs O(e²) per operation rather than O(|Dn|²). |Dn|² is the
// worst case (every endogenous fact under one root), reached only near
// the top of the plan; exogenous-only subtrees cost O(1).
//
// Sweeps: |Dn| with |Dx| fixed (at most quadratic), |Dx| with |Dn| fixed
// (expect linear), a BigUint-vs-uint64 counter ablation (exactness tax),
// full Shapley value of one fact (two #Sat runs), and the subset brute
// force blowing up.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "hierarq/algebra/satcount_monoid.h"
#include "hierarq/core/algorithm1.h"
#include "hierarq/core/shapley.h"
#include "hierarq/engine/bruteforce.h"
#include "hierarq/workload/data_gen.h"
#include "hierarq/workload/query_gen.h"

namespace hierarq {
namespace {

struct ShapleyInstance {
  Database exo;
  Database endo;
};

ShapleyInstance MakeInstance(const ConjunctiveQuery& q, size_t tuples,
                             double endo_fraction, uint64_t seed) {
  Rng rng(seed);
  DataGenOptions opts;
  opts.tuples_per_relation = tuples;
  opts.domain_size = std::max<size_t>(8, tuples / 4);
  const Database db = RandomDatabaseForQuery(q, rng, opts);
  ShapleyInstance out;
  auto [exo, endo] = SplitExoEndo(db, rng, endo_fraction);
  out.exo = std::move(exo);
  out.endo = std::move(endo);
  return out;
}

/// #Sat with a fast (modular) uint64 counter — the ablation arm.
template <typename Count>
void RunSatCountWith(const ConjunctiveQuery& q, const ShapleyInstance& inst,
                     benchmark::State& state) {
  const size_t n = inst.endo.NumFacts();
  const SatCountMonoid<Count> monoid(n);
  auto combined = inst.exo.UnionWith(inst.endo);
  for (auto _ : state) {
    auto result = RunAlgorithm1OnQuery<SatCountMonoid<Count>>(
        q, monoid, *combined, [&](const Fact& f) {
          return inst.exo.ContainsFact(f) ? monoid.One() : monoid.Star();
        });
    benchmark::DoNotOptimize(result);
  }
  state.SetComplexityN(static_cast<int64_t>(n));
  state.counters["endo"] = static_cast<double>(n);
}

void EmitThroughputJson();

void Report() {
  using bench::PrintHeader;
  using bench::PrintNote;
  using bench::PrintRow;
  PrintHeader("E5: Theorem 5.16 — #Sat/Shapley in O((|Dx|+|Dn|)·|Dn|^2)",
              "at most quadratic in |Dn|, linear in |Dx|; exact BigUint "
              "counts");
  const ConjunctiveQuery q = MakePaperQuery();
  const ShapleyInstance inst = MakeInstance(q, 4, 0.8, 31);
  auto fast = CountSatBoth(q, inst.exo, inst.endo);
  const auto slow = BruteForceCountSat(q, inst.exo, inst.endo);
  PrintRow("#Sat vectors, algorithm vs enumeration", "equal",
           fast.ok() && fast->on_true == slow.on_true &&
                   fast->on_false == slow.on_false
               ? "equal"
               : "MISMATCH");
  // Shapley efficiency on the Figure 1 database: Q flips from false to
  // true, so the values must sum to exactly 1.
  Database fig1;
  fig1.AddFactOrDie("R", MakeTuple({1, 5}));
  fig1.AddFactOrDie("S", MakeTuple({1, 1}));
  fig1.AddFactOrDie("S", MakeTuple({1, 2}));
  fig1.AddFactOrDie("T", MakeTuple({1, 2, 4}));
  auto values = AllShapleyValues(q, Database{}, fig1);
  if (values.ok()) {
    Fraction sum;
    for (const auto& [f, v] : *values) {
      sum += v;
    }
    PrintRow("sum of Shapley values on Fig.1 D (efficiency)", "1",
             sum.ToString());
  }
  PrintNote(
      "EndoSweep grows at most quadratically (support-bounded "
      "convolutions: often closer to linear), ExoSweep ~linearly.");
  EmitThroughputJson();
}

/// Steady-state #Sat throughput (the Shapley inner loop, amortized through
/// one Evaluator) recorded in BENCH_shapley.json for the perf trajectory.
void EmitThroughputJson() {
  bench::JsonReport report("shapley", "BENCH_shapley.json");
  const ConjunctiveQuery q = MakePaperQuery();
  std::printf("  steady-state #Sat throughput (storage=%s):\n",
              bench::JsonReport::StorageBackend());
  for (size_t endo : {16, 32, 64}) {
    const ShapleyInstance inst =
        MakeInstance(q, endo / 3 + 1, 1.0, 35 + endo);
    Evaluator evaluator;
    const double counts_per_sec = bench::MeasureRate([&] {
      benchmark::DoNotOptimize(CountSat(evaluator, q, inst.exo, inst.endo));
    });
    std::printf("    |Dn| = %-6zu %10.1f #Sat vectors/sec\n",
                inst.endo.NumFacts(), counts_per_sec);
    report.AddRow("satcount/endo_" + std::to_string(inst.endo.NumFacts()),
                  {{"endo_facts", static_cast<double>(inst.endo.NumFacts())},
                   {"exo_facts", static_cast<double>(inst.exo.NumFacts())},
                   {"satcounts_per_sec", counts_per_sec}});
  }
  report.WriteToFile();
}

void BM_SatCount_EndoSweep_BigUint(benchmark::State& state) {
  const ConjunctiveQuery q = MakePaperQuery();
  // tuples chosen so |Dn| tracks range(0): endo fraction 1.0.
  const ShapleyInstance inst = MakeInstance(
      q, static_cast<size_t>(state.range(0)) / 3 + 1, 1.0, 32);
  RunSatCountWith<BigUint>(q, inst, state);
}
BENCHMARK(BM_SatCount_EndoSweep_BigUint)
    ->RangeMultiplier(2)
    ->Range(8, 256)
    ->Complexity(benchmark::oNSquared);

void BM_SatCount_EndoSweep_Uint64(benchmark::State& state) {
  const ConjunctiveQuery q = MakePaperQuery();
  const ShapleyInstance inst = MakeInstance(
      q, static_cast<size_t>(state.range(0)) / 3 + 1, 1.0, 32);
  RunSatCountWith<uint64_t>(q, inst, state);
}
BENCHMARK(BM_SatCount_EndoSweep_Uint64)
    ->RangeMultiplier(2)
    ->Range(8, 256)
    ->Complexity(benchmark::oNSquared);

void BM_SatCount_ExoSweep(benchmark::State& state) {
  // |Dn| pinned small; |Dx| grows.
  const ConjunctiveQuery q = MakePaperQuery();
  Rng rng(33);
  DataGenOptions opts;
  opts.tuples_per_relation = static_cast<size_t>(state.range(0));
  opts.domain_size = std::max<size_t>(8, opts.tuples_per_relation / 4);
  const Database big = RandomDatabaseForQuery(q, rng, opts);
  ShapleyInstance inst;
  size_t taken = 0;
  for (const Fact& f : big.AllFacts()) {
    if (taken < 16) {
      inst.endo.AddFactOrDie(f.relation, f.tuple);
      ++taken;
    } else {
      inst.exo.AddFactOrDie(f.relation, f.tuple);
    }
  }
  RunSatCountWith<uint64_t>(q, inst, state);
  state.SetComplexityN(static_cast<int64_t>(inst.exo.NumFacts()));
}
BENCHMARK(BM_SatCount_ExoSweep)
    ->RangeMultiplier(4)
    ->Range(256, 16384)
    ->Complexity(benchmark::oN);

void BM_Shapley_SingleFact(benchmark::State& state) {
  const ConjunctiveQuery q = MakePaperQuery();
  const ShapleyInstance inst = MakeInstance(
      q, static_cast<size_t>(state.range(0)) / 3 + 1, 1.0, 34);
  const Fact fact = inst.endo.AllFacts().front();
  for (auto _ : state) {
    auto v = ShapleyValue(q, inst.exo, inst.endo, fact);
    benchmark::DoNotOptimize(v);
  }
  state.counters["endo"] = static_cast<double>(inst.endo.NumFacts());
}
BENCHMARK(BM_Shapley_SingleFact)->RangeMultiplier(2)->Range(8, 128);

// Exponential contrast: subset enumeration over |Dn| facts.
void BM_SatCount_BruteForce(benchmark::State& state) {
  const ConjunctiveQuery q = MakePaperQuery();
  const size_t n = static_cast<size_t>(state.range(0));
  Database endo;
  for (size_t i = 0; i < n; ++i) {
    switch (i % 3) {
      case 0:
        endo.AddFactOrDie("R", MakeTuple({1, static_cast<Value>(i)}));
        break;
      case 1:
        endo.AddFactOrDie("S", MakeTuple({1, static_cast<Value>(i)}));
        break;
      default:
        endo.AddFactOrDie("T", MakeTuple({1, static_cast<Value>(i), 0}));
        break;
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(BruteForceCountSat(q, Database{}, endo));
  }
}
BENCHMARK(BM_SatCount_BruteForce)->DenseRange(4, 16, 2);

}  // namespace
}  // namespace hierarq

HIERARQ_BENCH_MAIN(hierarq::Report)
