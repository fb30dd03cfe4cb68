// Experiment S1 — the service layer: multi-query batching and worker
// scaling on top of Algorithm 1's phase split.
//
// Two claims, both emitted to BENCH_service.json for cross-PR tracking:
//   (a) batching: a group of queries over one database performs one
//       base-relation annotation pass per distinct atom signature instead
//       of one per atom — on the 8-query family below, 3 passes instead of
//       14 — and that shows up as wall-clock on annotation-bound runs;
//   (b) scaling: replays are independent, so batch throughput grows with
//       the worker count (near-linearly until the machine runs out of
//       cores; the JSON records hardware_concurrency so readers can judge
//       the ceiling — a 1-core container will show a flat line, that is
//       the hardware, not the service).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "hierarq/algebra/semirings.h"
#include "hierarq/core/evaluator.h"
#include "hierarq/query/parser.h"
#include "hierarq/service/eval_service.h"
#include "hierarq/util/timer.h"
#include "hierarq/workload/data_gen.h"
#include "hierarq/workload/query_gen.h"

namespace hierarq {
namespace {

/// Eight hierarchical queries over the paper query's relations R, S, T —
/// heavy atom overlap (14 atoms, 3 distinct annotation signatures), the
/// shape a server sees when many clients query one database.
std::vector<ConjunctiveQuery> MakeQueryFamily() {
  std::vector<ConjunctiveQuery> out;
  for (const char* text : {
           "R(A,B), S(A,C), T(A,C,D)",
           "R(A,B), S(A,C)",
           "R(A,B)",
           "S(A,C), T(A,C,D)",
           "T(A,C,D)",
           "R(A,B), T(A,C,D)",
           "S(A,C)",
           "R(A,B), S(A,B)",
       }) {
    out.push_back(ParseQueryOrDie(text));
  }
  return out;
}

std::vector<const ConjunctiveQuery*> Pointers(
    const std::vector<ConjunctiveQuery>& queries) {
  std::vector<const ConjunctiveQuery*> out;
  for (const ConjunctiveQuery& q : queries) {
    out.push_back(&q);
  }
  return out;
}

Database MakeWorkload(size_t tuples_per_relation) {
  Rng rng(91);
  DataGenOptions opts;
  opts.tuples_per_relation = tuples_per_relation;
  opts.domain_size = std::max<size_t>(8, tuples_per_relation / 4);
  return RandomDatabaseForQuery(MakePaperQuery(), rng, opts);
}

std::function<uint64_t(const Fact&)> OneAnnotator() {
  return [](const Fact&) -> uint64_t { return 1; };
}

/// Batched queries/sec through a service with `workers` workers on the
/// given database (measured over >= `seconds` of wall clock).
double MeasureBatchThroughput(EvalService& service,
                              const std::vector<ConjunctiveQuery>& queries,
                              const Database& db, double seconds) {
  const CountMonoid monoid;
  const auto query_ptrs = Pointers(queries);
  const auto annotator = OneAnnotator();
  const double batches_per_sec = bench::MeasureRate(
      [&] {
        benchmark::DoNotOptimize(service.EvaluateMany<CountMonoid>(
            monoid, query_ptrs, db, annotator));
      },
      seconds);
  return batches_per_sec * static_cast<double>(queries.size());
}

void Report() {
  using bench::PrintHeader;
  using bench::PrintNote;
  using bench::PrintRow;
  PrintHeader("S1: EvalService — multi-query batching + worker scaling",
              "one annotation pass per (database, monoid) group; "
              "throughput scales with workers");
  bench::JsonReport report("service", "BENCH_service.json");
  const std::vector<ConjunctiveQuery> queries = MakeQueryFamily();
  const Database db = MakeWorkload(40000);  // ~120k facts over R, S, T.
  const size_t hardware =
      std::max<unsigned>(1, std::thread::hardware_concurrency());
  std::printf("  workload: |D| = %zu facts, %zu queries per batch "
              "(hardware_concurrency = %zu)\n",
              db.NumFacts(), queries.size(), hardware);

  // ---- (a) The batching win: annotation passes and wall clock. --------
  const CountMonoid monoid;
  const auto annotator = OneAnnotator();
  Evaluator one_by_one;
  // Warm-up for plan builds, then one timed sweep of the whole family.
  for (const ConjunctiveQuery& q : queries) {
    benchmark::DoNotOptimize(
        one_by_one.Evaluate<CountMonoid>(q, monoid, db, annotator));
  }
  WallTimer serial_timer;
  for (const ConjunctiveQuery& q : queries) {
    benchmark::DoNotOptimize(
        one_by_one.Evaluate<CountMonoid>(q, monoid, db, annotator));
  }
  const double serial_ms = serial_timer.ElapsedMillis();

  EvalService batched_service(EvalService::Options{.num_workers = 1});
  benchmark::DoNotOptimize(batched_service.EvaluateMany<CountMonoid>(
      monoid, Pointers(queries), db, annotator));
  WallTimer batched_timer;
  benchmark::DoNotOptimize(batched_service.EvaluateMany<CountMonoid>(
      monoid, Pointers(queries), db, annotator));
  const double batched_ms = batched_timer.ElapsedMillis();
  const ServiceStats stats = batched_service.stats();
  const size_t scans_per_batch = stats.annotation_scans / stats.groups;
  size_t total_atoms = 0;
  for (const ConjunctiveQuery& q : queries) {
    total_atoms += q.num_atoms();
  }

  PrintRow("annotation passes, one query at a time",
           std::to_string(total_atoms) + " (one/atom)",
           std::to_string(total_atoms));
  PrintRow("annotation passes, batched group",
           "3 (one/signature)", std::to_string(scans_per_batch));
  PrintRow("8-query batch wall clock (1 worker)", "< one-by-one",
           std::to_string(batched_ms) + " ms vs " +
               std::to_string(serial_ms) + " ms");
  report.AddRow("batching/one_by_one",
                {{"annotation_scans", static_cast<double>(total_atoms)},
                 {"batch_ms", serial_ms}});
  report.AddRow("batching/service",
                {{"annotation_scans", static_cast<double>(scans_per_batch)},
                 {"batch_ms", batched_ms}});

  // ---- (c) Zero-copy singleton replay. -------------------------------
  // A single-query group makes every pool entry a singleton, so the
  // replay *moves* the annotations into worker scratch instead of copying
  // — the copy was the service's main single-query overhead versus a bare
  // Evaluator. Both paths below annotate per call; the residual gap is
  // service plumbing.
  {
    const ConjunctiveQuery& single = queries.front();  // 3 atoms.
    Evaluator bare;
    const double bare_qps = bench::MeasureRate([&] {
      benchmark::DoNotOptimize(
          bare.Evaluate<CountMonoid>(single, monoid, db, annotator));
    });
    EvalService move_service(EvalService::Options{.num_workers = 1});
    const std::vector<const ConjunctiveQuery*> single_ptr = {&single};
    const double service_qps = bench::MeasureRate([&] {
      benchmark::DoNotOptimize(move_service.EvaluateMany<CountMonoid>(
          monoid, single_ptr, db, annotator));
    });
    const ServiceStats move_stats = move_service.stats();
    const double moves_per_batch =
        static_cast<double>(move_stats.singleton_moves) /
        static_cast<double>(move_stats.batches);
    char measured[96];
    std::snprintf(measured, sizeof(measured),
                  "%7.1f q/s vs bare %7.1f q/s (%.0f moves/batch)",
                  service_qps, bare_qps, moves_per_batch);
    PrintRow("single-query batch, zero-copy replay", "~bare evaluator",
             measured);
    report.AddRow("singleton/bare_evaluator", {{"queries_per_sec", bare_qps}});
    report.AddRow("singleton/service_moved",
                  {{"queries_per_sec", service_qps},
                   {"moves_per_batch", moves_per_batch},
                   {"service_vs_bare", service_qps / bare_qps}});
  }

  // ---- (b) Worker scaling. -------------------------------------------
  PrintNote("batched throughput by worker count (queries/sec):");
  double base = 0.0;
  for (size_t workers : {1, 2, 4, 8}) {
    EvalService service(EvalService::Options{.num_workers = workers});
    const double qps = MeasureBatchThroughput(service, queries, db, 0.6);
    if (workers == 1) {
      base = qps;
    }
    const double speedup = base > 0 ? qps / base : 0.0;
    char measured[96];
    std::snprintf(measured, sizeof(measured), "%9.1f q/s  (%.2fx vs 1)",
                  qps, speedup);
    PrintRow("    workers = " + std::to_string(workers),
             workers <= hardware ? "~linear to #cores" : "flat past #cores",
             measured);
    report.AddRow("scaling/workers_" + std::to_string(workers),
                  {{"workers", static_cast<double>(workers)},
                   {"hardware_concurrency", static_cast<double>(hardware)},
                   {"num_facts", static_cast<double>(db.NumFacts())},
                   {"queries_per_sec", qps},
                   {"speedup_vs_1", speedup}});
  }
  PrintNote("speedup is bounded by hardware_concurrency; the JSON records");
  PrintNote("it so cross-machine comparisons stay honest.");

  report.WriteToFile();
}

void BM_Service_Batch8Queries(benchmark::State& state) {
  const std::vector<ConjunctiveQuery> queries = MakeQueryFamily();
  const Database db = MakeWorkload(10000);
  const CountMonoid monoid;
  const auto annotator = OneAnnotator();
  EvalService service(
      EvalService::Options{.num_workers = static_cast<size_t>(state.range(0))});
  const auto query_ptrs = Pointers(queries);
  for (auto _ : state) {
    benchmark::DoNotOptimize(service.EvaluateMany<CountMonoid>(
        monoid, query_ptrs, db, annotator));
  }
  state.counters["workers"] = static_cast<double>(state.range(0));
  state.counters["queries_per_batch"] = static_cast<double>(queries.size());
}
BENCHMARK(BM_Service_Batch8Queries)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime();

void BM_Service_SharedPlanCacheLookup(benchmark::State& state) {
  // Steady-state cost of the shared-lock plan lookup (the per-request
  // query-phase overhead a server pays).
  SharedPlanCache cache;
  const ConjunctiveQuery q = MakePaperQuery();
  benchmark::DoNotOptimize(cache.GetPlan(q));
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.GetPlan(q));
  }
}
BENCHMARK(BM_Service_SharedPlanCacheLookup);

}  // namespace
}  // namespace hierarq

HIERARQ_BENCH_MAIN(hierarq::Report)
