// Experiment E8 — Theorem 6.7: Algorithm 1 performs O(|D|) ⊕/⊗ operations
// regardless of the 2-monoid.
//
// Instruments the counting monoid with the CountingMonoid wrapper and
// prints measured operation counts against |D| for several query shapes.
// The ratio ops/|D| must stay bounded by a small constant as |D| grows.

#include <benchmark/benchmark.h>

#include <thread>

#include "bench_util.h"
#include "hierarq/algebra/semirings.h"
#include "hierarq/algebra/two_monoid.h"
#include "hierarq/core/algorithm1.h"
#include "hierarq/core/evaluator.h"
#include "hierarq/util/hash.h"
#include "hierarq/util/simd.h"
#include "hierarq/util/timer.h"
#include "hierarq/workload/data_gen.h"
#include "hierarq/workload/query_gen.h"

namespace hierarq {
namespace {

size_t MeasureOps(const ConjunctiveQuery& q, const Database& db) {
  const CountingMonoid<CountMonoid> monoid{CountMonoid{}};
  auto result = RunAlgorithm1OnQuery<CountingMonoid<CountMonoid>>(
      q, monoid, db, [](const Fact&) -> uint64_t { return 1; });
  if (!result.ok()) {
    return 0;
  }
  return monoid.total_count();
}

void EmitThroughputJson();
void EmitReplayRow(bench::JsonReport* report, const ConjunctiveQuery& q,
                   const Database& db);
void EmitSimdKernelRows(bench::JsonReport* report,
                        const ConjunctiveQuery& q, const Database& db);

/// The shared random instance of the paper query at `tuples` facts per
/// relation — seeded identically everywhere so every emitter section
/// (and every PR's snapshot) measures the same database.
Database PaperQueryDatabase(const ConjunctiveQuery& q, size_t tuples) {
  Rng rng(83);
  DataGenOptions opts;
  opts.tuples_per_relation = tuples;
  opts.domain_size = std::max<size_t>(8, tuples / 4);
  return RandomDatabaseForQuery(q, rng, opts);
}

void Report() {
  using bench::PrintHeader;
  using bench::PrintNote;
  using bench::PrintRow;
  PrintHeader("E8: Theorem 6.7 — O(|D|) monoid operations",
              "total #(⊕ and ⊗) applications is linear in |D|");
  struct Shape {
    const char* name;
    ConjunctiveQuery query;
  };
  const Shape shapes[] = {
      {"paper query Eq.(1)", MakePaperQuery()},
      {"star(4)", MakeStarQuery(4)},
      {"nested chain(5)", MakeNestedChain(5)},
  };
  for (const Shape& shape : shapes) {
    std::printf("  query: %s\n", shape.name);
    for (size_t tuples : {100, 1000, 10000}) {
      Rng rng(81);
      DataGenOptions opts;
      opts.tuples_per_relation = tuples;
      opts.domain_size = std::max<size_t>(8, tuples / 4);
      const Database db = RandomDatabaseForQuery(shape.query, rng, opts);
      const size_t ops = MeasureOps(shape.query, db);
      char measured[128];
      std::snprintf(measured, sizeof(measured), "%zu ops (%.2f per fact)",
                    ops, static_cast<double>(ops) /
                             static_cast<double>(db.NumFacts()));
      PrintRow("    |D| = " + std::to_string(db.NumFacts()),
               "O(|D|), flat ratio", measured);
    }
  }
  PrintNote("The per-fact ratio stays flat as |D| grows 100x: Theorem 6.7.");
  EmitThroughputJson();
}

/// Measures steady-state Algorithm 1 throughput (amortized through an
/// Evaluator: cached plan, reused relation buffers) per runtime storage
/// backend and records per-backend rows in BENCH_algorithm1.json
/// so later PRs have a perf trajectory to compare against. Two measures
/// per (size, backend):
///   * evals_per_sec — full evaluation: base-relation annotation + rule
///     replay (the per-request cost of a cold database);
///   * replays_per_sec — data-phase replay only, against a pre-annotated
///     pool (AssignFrom copy + Rule 1/Rule 2 execution): the measure the
///     columnar projection fast path targets, since annotation matching
///     is identical across backends.
/// "ops" are processed facts: evaluations/sec × |D|.
void EmitThroughputJson() {
  bench::JsonReport report("algorithm1_ops", "BENCH_algorithm1.json");
  const ConjunctiveQuery q = MakePaperQuery();
  const CountMonoid monoid;
  const auto annotate = std::function<uint64_t(const Fact&)>(
      [](const Fact&) -> uint64_t { return 1; });
  const auto plus = [](uint64_t a, uint64_t b) { return a + b; };

  std::printf("  steady-state throughput (default storage=%s):\n",
              bench::JsonReport::StorageBackend());
  // Scales target |D| ≈ 30k / 100k / 300k total facts (the paper query
  // has three relations); below that the run is annotation-bound and
  // storage choice barely registers. The biggest instance is built once
  // and shared with the replay and SIMD sections below.
  const Database big_db = PaperQueryDatabase(q, 100000);
  const auto measure_size = [&](const Database& db) {
    for (StorageKind kind : kAllStorageKinds) {
      Evaluator evaluator(kind);
      const double evals_per_sec = bench::MeasureRate([&] {
        benchmark::DoNotOptimize(
            evaluator.Evaluate<CountMonoid>(q, monoid, db, annotate));
      });
      const double facts_per_sec =
          evals_per_sec * static_cast<double>(db.NumFacts());

      // Replay-only: annotate once into a shared pool, then re-run the
      // data phase per iteration (the service-layer hot loop).
      auto plan = evaluator.GetPlan(q);
      const AnnotationPool<uint64_t> pool = AnnotateForQuerySet<uint64_t>(
          {&q}, db, annotate, plus, kind);
      const auto bases = ResolveBases<uint64_t>(q, pool);
      const double replays_per_sec = bench::MeasureRate([&] {
        benchmark::DoNotOptimize(
            evaluator.ReplayPlan(**plan, monoid, q, bases));
      });

      std::printf(
          "    |D| = %-8zu %-9s %9.0f evals/sec  %9.0f replays/sec  "
          "%11.3e facts/sec\n",
          db.NumFacts(), StorageKindName(kind), evals_per_sec,
          replays_per_sec, facts_per_sec);
      report.AddRow(
          bench::JsonReport::StorageRow(
              "paper_query/" + std::to_string(db.NumFacts()), kind),
          {{"num_facts", static_cast<double>(db.NumFacts())},
           {"threads", 1.0},
           {"evals_per_sec", evals_per_sec},
           {"replays_per_sec", replays_per_sec},
           {"ops_per_sec", facts_per_sec}});
    }
  };
  for (size_t tuples : {10000, 33334}) {
    measure_size(PaperQueryDatabase(q, tuples));
  }
  measure_size(big_db);
  EmitReplayRow(&report, q, big_db);
  EmitSimdKernelRows(&report, q, big_db);

  // Instrumentation overhead (obs/): the same paper-query replay with
  // the tracer uninstalled (the production default — must be free) and
  // installed (records one step event per elimination step per replay).
  {
    Evaluator evaluator(kDefaultStorageKind);
    auto plan = evaluator.GetPlan(q);
    const AnnotationPool<uint64_t> pool = AnnotateForQuerySet<uint64_t>(
        {&q}, big_db, annotate, plus, kDefaultStorageKind);
    const auto bases = ResolveBases<uint64_t>(q, pool);
    bench::AddInstrumentationOverheadRows(&report, [&] {
      benchmark::DoNotOptimize(
          evaluator.ReplayPlan(**plan, monoid, q, bases));
    });
    // Per-query accounting overhead on the same replay: collector off
    // (the served default unless the client asks or the slow-query log
    // is armed) vs on. The off row carries the ≤2% budget.
    bench::AddAccountingOverheadRows(&report, [&] {
      benchmark::DoNotOptimize(
          evaluator.ReplayPlan(**plan, monoid, q, bases));
    });
  }
  report.WriteToFile();
}

/// Replay-only throughput of the single biggest instance (|D| ≈ 300k)
/// from columnar bases, with the host's hardware thread count beside it.
/// The "/t1" suffix is the row's historical name (it once headed a
/// thread-count sweep), kept so stored snapshots still compare.
void EmitReplayRow(bench::JsonReport* report, const ConjunctiveQuery& q,
                   const Database& db) {
  const CountMonoid monoid;
  const auto annotate = std::function<uint64_t(const Fact&)>(
      [](const Fact&) -> uint64_t { return 1; });
  const auto plus = [](uint64_t a, uint64_t b) { return a + b; };
  const double hw =
      static_cast<double>(std::thread::hardware_concurrency());

  const StorageKind kind = StorageKind::kColumnar;
  const AnnotationPool<uint64_t> pool =
      AnnotateForQuerySet<uint64_t>({&q}, db, annotate, plus, kind);
  const auto bases = ResolveBases<uint64_t>(q, pool);
  Evaluator evaluator(kind);
  auto plan = evaluator.GetPlan(q);
  const double replays_per_sec = bench::MeasureRate([&] {
    benchmark::DoNotOptimize(evaluator.ReplayPlan(**plan, monoid, q, bases));
  });
  std::printf("  replay (|D| = %zu, hw threads=%.0f): %9.0f replays/sec\n",
              db.NumFacts(), hw, replays_per_sec);
  report->AddRow(
      bench::JsonReport::StorageRow(
          "paper_query/" + std::to_string(db.NumFacts()) + "/replay", kind) +
          "/t1",
      {{"num_facts", static_cast<double>(db.NumFacts())},
       {"threads", 1.0},
       {"hardware_threads", hw},
       {"replays_per_sec", replays_per_sec}});
}

/// SIMD A/B on identical rows: the batched Mix64 hash-fold kernel (the
/// columnar backend's hottest loop) per available tier, plus the
/// end-to-end columnar replay under forced-scalar vs best dispatch.
/// Kernel rows isolate the vectorization win from the probe- and
/// copy-bound remainder of a replay.
void EmitSimdKernelRows(bench::JsonReport* report,
                        const ConjunctiveQuery& q, const Database& db) {
  const simd::Level best = simd::DetectedLevel() >= simd::Level::kAvx2
                               ? simd::DetectedLevel()
                               : simd::Level::kScalar;
  constexpr size_t kRows = 300000;
  constexpr size_t kColumns = 3;
  std::vector<int64_t> column(kRows);
  for (size_t i = 0; i < kRows; ++i) {
    column[i] = static_cast<int64_t>(Mix64(i));
  }
  std::vector<uint64_t> hashes(kRows, kHashRangeSeed);

  std::printf("  simd hash-fold kernel (%zu rows x %zu columns):\n", kRows,
              kColumns);
  for (simd::Level level : {simd::Level::kScalar, best}) {
    simd::SetLevelForTesting(level);
    const double folds_per_sec = bench::MeasureRate([&] {
      for (size_t c = 0; c < kColumns; ++c) {
        simd::HashCombineRows(hashes.data(), column.data(), kRows);
      }
      benchmark::DoNotOptimize(hashes.data());
    });
    std::printf("    %-7s %9.1f folds/sec\n", simd::LevelName(level),
                folds_per_sec);
    report->AddRow(std::string("simd_hash_fold/") + simd::LevelName(level),
                   {{"rows", static_cast<double>(kRows)},
                    {"columns", static_cast<double>(kColumns)},
                    {"folds_per_sec", folds_per_sec}});
    if (best == simd::Level::kScalar) {
      break;  // No vector tier on this host; one row is the whole story.
    }
  }

  // End-to-end columnar replay, forced scalar vs best dispatch.
  const CountMonoid monoid;
  const auto annotate = std::function<uint64_t(const Fact&)>(
      [](const Fact&) -> uint64_t { return 1; });
  const auto plus = [](uint64_t a, uint64_t b) { return a + b; };
  const AnnotationPool<uint64_t> pool = AnnotateForQuerySet<uint64_t>(
      {&q}, db, annotate, plus, StorageKind::kColumnar);
  const auto bases = ResolveBases<uint64_t>(q, pool);
  Evaluator evaluator(StorageKind::kColumnar);
  auto plan = evaluator.GetPlan(q);
  for (simd::Level level : {simd::Level::kScalar, best}) {
    simd::SetLevelForTesting(level);
    const double replays_per_sec = bench::MeasureRate([&] {
      benchmark::DoNotOptimize(
          evaluator.ReplayPlan(**plan, monoid, q, bases));
    });
    std::printf("    columnar replay %-7s %9.1f replays/sec\n",
                simd::LevelName(level), replays_per_sec);
    report->AddRow(std::string("simd_columnar_replay/") +
                       simd::LevelName(level),
                   {{"num_facts", static_cast<double>(db.NumFacts())},
                    {"replays_per_sec", replays_per_sec}});
    if (best == simd::Level::kScalar) {
      break;
    }
  }
  simd::SetLevelForTesting(best);  // Restore dispatch for later benches.
}

void BM_Algorithm1_OpCountOverhead(benchmark::State& state) {
  // Timing with the counting wrapper vs without: the wrapper's overhead is
  // a pair of increments, so the delta shows instrumentation cost only.
  const ConjunctiveQuery q = MakePaperQuery();
  Rng rng(82);
  DataGenOptions opts;
  opts.tuples_per_relation = static_cast<size_t>(state.range(0));
  opts.domain_size = std::max<size_t>(8, opts.tuples_per_relation / 4);
  const Database db = RandomDatabaseForQuery(q, rng, opts);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MeasureOps(q, db));
  }
  state.SetComplexityN(static_cast<int64_t>(db.NumFacts()));
}
BENCHMARK(BM_Algorithm1_OpCountOverhead)
    ->RangeMultiplier(4)
    ->Range(256, 16384)
    ->Complexity(benchmark::oN);

}  // namespace
}  // namespace hierarq

HIERARQ_BENCH_MAIN(hierarq::Report)
