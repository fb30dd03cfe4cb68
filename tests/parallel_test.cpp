// Threaded-vs-serial differential for intra-query parallel Algorithm 1
// (core/parallel.h): for every storage backend × monoid × thread count,
// shard-parallel evaluation must agree with the serial engine —
// bit-identically for exact monoids (count, bool, resilience, Shapley's
// Fractions: ⊕ is exactly associative-commutative, so order cannot show),
// and to 1e-11 relative for the floating monoids (sharding fixes a
// different ⊕ order, like switching backends does).
//
// Also covered here: determinism across thread counts (2 threads and 8
// threads must agree bit-for-bit — shard ownership depends on hashes,
// not scheduling), the EvalService single-huge-replay route, parallel
// incremental-view materialization feeding serial delta maintenance, and
// materialization taking exactly the batch engine's steps (one shared
// step loop). parallel_test runs in the TSAN CI leg: the concurrency
// tests double as race detectors.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <iterator>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "hierarq/hierarq.h"
#include "hierarq/incremental/incremental_evaluator.h"

namespace hierarq {
namespace {

// Relative-or-absolute closeness for the floating monoids. Equal
// non-finite values (the tropical zero is +inf) compare equal directly —
// inf - inf is nan, which EXPECT_NEAR cannot digest.
void ExpectClose(double a, double b) {
  if (!std::isfinite(a) || !std::isfinite(b)) {
    EXPECT_EQ(a, b);
    return;
  }
  const double scale = std::max({1.0, std::fabs(a), std::fabs(b)});
  EXPECT_NEAR(a, b, 1e-11 * scale);
}

// Deterministic pseudo-weight in (0, 1) derived from the fact itself, so
// every backend and thread count annotates identically.
double WeightOf(const Fact& fact) {
  uint64_t h = HashRange(fact.tuple.begin(), fact.tuple.end());
  h = Mix64(h ^ fact.relation.size());
  return (static_cast<double>(h % 999) + 0.5) / 1000.0;
}

ConjunctiveQuery RandomQuery(Rng& rng) {
  RandomHierarchicalOptions opts;
  opts.num_variables = 1 + static_cast<size_t>(rng.UniformInt(0, 4));
  opts.num_roots = 1 + static_cast<size_t>(rng.UniformInt(0, 1));
  return MakeRandomHierarchical(rng, opts);
}

Database RandomInstance(Rng& rng, const ConjunctiveQuery& q) {
  DataGenOptions dopts;
  // Includes empty and single-fact relations; parallel_min_rows = 1 in
  // the sweeps below forces even these through the sharded path.
  dopts.tuples_per_relation = static_cast<size_t>(rng.UniformInt(0, 120));
  dopts.domain_size = 2 + static_cast<size_t>(rng.UniformInt(0, 20));
  return RandomDatabaseForQuery(q, rng, dopts);
}

template <TwoMonoid M>
typename M::value_type EvaluateWith(
    const M& monoid,
    const std::function<typename M::value_type(const Fact&)>& annotator,
    const ConjunctiveQuery& q, const Database& db, StorageKind storage,
    size_t threads) {
  Evaluator::Options options;
  options.storage = storage;
  options.intra_query_threads = threads;
  options.parallel_min_rows = 1;  // Force the sharded path on test sizes.
  Evaluator evaluator(options);
  auto result = evaluator.Evaluate<M>(q, monoid, db, annotator);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result.ok() ? *result : typename M::value_type{};
}

// One sweep: serial reference per backend, then 2- and 8-thread runs
// compared by `check(reference, threaded)`; the two thread counts are
// additionally compared bit-for-bit (determinism).
template <TwoMonoid M, typename Check>
void SweepThreadedVsSerial(
    const M& monoid,
    const std::function<typename M::value_type(const Fact&)>& annotator,
    uint64_t seed_base, Check check) {
  size_t instances = 0;
  for (uint64_t seed = 0; seed < 10; ++seed) {
    Rng rng(seed_base + seed);
    const ConjunctiveQuery q = RandomQuery(rng);
    const Database db = RandomInstance(rng, q);
    for (StorageKind storage : kAllStorageKinds) {
      SCOPED_TRACE(std::string(StorageKindName(storage)) +
                   " seed=" + std::to_string(seed) + " " + q.ToString());
      const auto reference =
          EvaluateWith(monoid, annotator, q, db, storage, 1);
      const auto two = EvaluateWith(monoid, annotator, q, db, storage, 2);
      const auto eight = EvaluateWith(monoid, annotator, q, db, storage, 8);
      check(reference, two);
      check(reference, eight);
      ++instances;
    }
  }
  EXPECT_EQ(instances, 10 * std::size(kAllStorageKinds));
}

template <typename T>
void CheckBitIdentical(const T& a, const T& b) {
  EXPECT_EQ(a, b);
}

TEST(ParallelDifferential, CountBitIdentical) {
  SweepThreadedVsSerial<CountMonoid>(
      CountMonoid{}, [](const Fact&) -> uint64_t { return 1; }, 0xc0c0,
      [](uint64_t a, uint64_t b) { CheckBitIdentical(a, b); });
}

TEST(ParallelDifferential, BoolBitIdentical) {
  SweepThreadedVsSerial<BoolMonoid>(
      BoolMonoid{}, [](const Fact&) { return true; }, 0xb001,
      [](bool a, bool b) { CheckBitIdentical(a, b); });
}

TEST(ParallelDifferential, ResilienceBitIdentical) {
  SweepThreadedVsSerial<ResilienceMonoid>(
      ResilienceMonoid{},
      [](const Fact& fact) -> uint64_t {
        return WeightOf(fact) < 0.5 ? 1 : ResilienceMonoid::kInfinity;
      },
      0x4e51,
      [](uint64_t a, uint64_t b) { CheckBitIdentical(a, b); });
}

TEST(ParallelDifferential, TropicalWithinTolerance) {
  SweepThreadedVsSerial<TropicalMonoid>(
      TropicalMonoid{}, [](const Fact& fact) { return WeightOf(fact); },
      0x7209, [](double a, double b) { ExpectClose(a, b); });
}

TEST(ParallelDifferential, ProbWithinTolerance) {
  SweepThreadedVsSerial<ProbMonoid>(
      ProbMonoid{}, [](const Fact& fact) { return WeightOf(fact); }, 0x9206,
      [](double a, double b) { ExpectClose(a, b); });
}

TEST(ParallelDifferential, ExpectationWithinTolerance) {
  SweepThreadedVsSerial<ExpectationMonoid>(
      ExpectationMonoid{}, [](const Fact& fact) { return WeightOf(fact); },
      0xe4bc, [](double a, double b) { ExpectClose(a, b); });
}

// Shapley routes n+1 Algorithm 1 calls through one evaluator over exact
// Fractions — the acceptance bar's third bit-identical family.
TEST(ParallelDifferential, ShapleyValuesBitIdenticalUnderThreads) {
  Rng rng(0x57a9ULL);
  const ConjunctiveQuery q = MakePaperQuery();
  DataGenOptions dopts;
  dopts.tuples_per_relation = 12;
  dopts.domain_size = 5;
  const Database db = RandomDatabaseForQuery(q, rng, dopts);
  // Split facts: first half exogenous, rest endogenous.
  Database exo;
  Database endo;
  size_t i = 0;
  for (const Fact& fact : db.AllFacts()) {
    (i++ % 2 == 0 ? exo : endo).AddFactOrDie(fact.relation, fact.tuple);
  }

  Evaluator serial(StorageKind::kColumnar);
  auto reference = AllShapleyValues(serial, q, exo, endo);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();

  for (StorageKind storage : kAllStorageKinds) {
    Evaluator::Options options;
    options.storage = storage;
    options.intra_query_threads = 8;
    options.parallel_min_rows = 1;
    Evaluator threaded(options);
    auto values = AllShapleyValues(threaded, q, exo, endo);
    ASSERT_TRUE(values.ok()) << values.status().ToString();
    ASSERT_EQ(values->size(), reference->size());
    for (size_t j = 0; j < values->size(); ++j) {
      EXPECT_EQ((*values)[j].second, (*reference)[j].second)
          << StorageKindName(storage) << " fact #" << j;
    }
  }
}

// ------------------------------------------------------- service routing --

TEST(ParallelService, SingleHugeReplayTakesIntraQueryRoute) {
  const ConjunctiveQuery q = MakePaperQuery();
  Rng rng(0x1277ULL);
  DataGenOptions dopts;
  dopts.tuples_per_relation = 400;
  dopts.domain_size = 100;
  const Database db = RandomDatabaseForQuery(q, rng, dopts);

  EvalService::Options options;
  options.num_workers = 2;
  options.intra_query_threads = 2;
  options.intra_query_min_support = 1;  // Route everything big enough...
  options.parallel_min_rows = 1;        // ...and shard every step.
  EvalService service(options);

  const auto annotate =
      std::function<uint64_t(const Fact&)>([](const Fact&) -> uint64_t {
        return 1;
      });
  auto results = service.EvaluateMany<CountMonoid>(CountMonoid{}, {&q}, db,
                                                   annotate);
  ASSERT_EQ(results.size(), 1u);
  ASSERT_TRUE(results[0].ok());
  EXPECT_EQ(service.stats().intra_parallel_replays, 1u);

  // Cross-check against a plain serial evaluator.
  Evaluator serial;
  auto reference = serial.Evaluate<CountMonoid>(q, CountMonoid{}, db,
                                                annotate);
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(*results[0], *reference);

  // A multi-query group keeps the across-query fan-out (no extra intra
  // replays), and a small database never takes the route.
  auto multi = service.EvaluateMany<CountMonoid>(CountMonoid{}, {&q, &q},
                                                 db, annotate);
  ASSERT_EQ(multi.size(), 2u);
  EXPECT_EQ(*multi[0], *reference);
  EXPECT_EQ(*multi[1], *reference);
  EXPECT_EQ(service.stats().intra_parallel_replays, 1u);
}

// Concurrent clients mixing batch fan-out with intra-parallel singleton
// replays on the same pool — the TSAN target for the new code paths.
TEST(ParallelService, ConcurrentBatchesAndIntraReplaysAgree) {
  const ConjunctiveQuery q = MakePaperQuery();
  Rng rng(0xc0ffULL);
  DataGenOptions dopts;
  dopts.tuples_per_relation = 200;
  dopts.domain_size = 60;
  const Database db = RandomDatabaseForQuery(q, rng, dopts);
  const auto annotate =
      std::function<uint64_t(const Fact&)>([](const Fact&) -> uint64_t {
        return 1;
      });

  Evaluator serial;
  auto reference = serial.Evaluate<CountMonoid>(q, CountMonoid{}, db,
                                                annotate);
  ASSERT_TRUE(reference.ok());

  EvalService::Options options;
  options.num_workers = 4;
  options.intra_query_threads = 4;
  options.intra_query_min_support = 1;
  options.parallel_min_rows = 1;
  EvalService service(options);

  constexpr size_t kClients = 6;
  constexpr size_t kRounds = 5;
  std::vector<std::jthread> clients;
  std::vector<size_t> mismatches(kClients, 0);
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (size_t round = 0; round < kRounds; ++round) {
        // Alternate singleton groups (intra route) and pair groups
        // (fan-out route) from every client.
        std::vector<const ConjunctiveQuery*> queries;
        queries.push_back(&q);
        if ((c + round) % 2 == 0) {
          queries.push_back(&q);
        }
        auto results = service.EvaluateMany<CountMonoid>(
            CountMonoid{}, queries, db, annotate);
        for (const auto& result : results) {
          if (!result.ok() || *result != *reference) {
            ++mismatches[c];
          }
        }
      }
    });
  }
  clients.clear();  // Join.
  for (size_t c = 0; c < kClients; ++c) {
    EXPECT_EQ(mismatches[c], 0u) << "client " << c;
  }
  EXPECT_GT(service.stats().intra_parallel_replays, 0u);
}

// ------------------------------------------------------------ fused steps --

// Builds a range-scannable relation of `rows` pseudo-random tuples (with
// duplicates ⊕-merged, exercising the Merge path) over `vars`.
AnnotatedRelation<uint64_t> FilledRelation(const VarSet& vars,
                                           StorageKind kind, size_t rows,
                                           uint64_t seed) {
  AnnotatedRelation<uint64_t> rel;
  rel.Reset(vars, kind);
  const auto plus = [](uint64_t a, uint64_t b) { return a + b; };
  Rng rng(seed);
  for (size_t i = 0; i < rows; ++i) {
    Tuple key;
    for (size_t c = 0; c < vars.size(); ++c) {
      key.push_back(rng.UniformInt(0, 40));
    }
    rel.Merge(key, 1 + static_cast<uint64_t>(rng.UniformInt(0, 5)), plus);
  }
  return rel;
}

template <typename K>
void ExpectSameRelation(const AnnotatedRelation<K>& expected,
                        const AnnotatedRelation<K>& actual) {
  EXPECT_EQ(expected.size(), actual.size());
  expected.ForEach([&](const Tuple& key, const K& value) {
    const K* other = actual.Find(key);
    ASSERT_NE(other, nullptr);
    EXPECT_EQ(*other, value);
  });
}

// The fused Rule 1/Rule 2 phases exist to shrink per-step pool
// synchronization: hash chunks and shard scatters now share one
// ParallelFor (work-stealing barrier inside), where Rule 1 used to take
// 2 latches (hash pass, scatter) and Rule 2 took 3 (two hash passes,
// scatter). parallel_for_calls() counts latches directly.
TEST(FusedSteps, Rule1AndRule2TakeOneLatchEach) {
  WorkerPool pool(4);
  IntraQueryParallel par{&pool, 4, /*min_rows=*/1};
  const auto plus = [](uint64_t a, uint64_t b) { return a + b; };
  const auto times = [](uint64_t a, uint64_t b) { return a * b; };

  const AnnotatedRelation<uint64_t> source =
      FilledRelation(VarSet{0, 1}, StorageKind::kColumnar, 300, 0xfab1);
  AnnotatedRelation<uint64_t> projected;
  const size_t before_rule1 = pool.parallel_for_calls();
  ProjectDropStep(source, /*drop_pos=*/0, VarSet{1}, plus, par,
                  StorageKind::kColumnar, &projected);
  EXPECT_EQ(pool.parallel_for_calls() - before_rule1, 1u);
  EXPECT_FALSE(projected.empty());

  const AnnotatedRelation<uint64_t> left =
      FilledRelation(VarSet{0, 1}, StorageKind::kColumnar, 300, 0xfab2);
  const AnnotatedRelation<uint64_t> right =
      FilledRelation(VarSet{0, 1}, StorageKind::kColumnar, 300, 0xfab3);
  AnnotatedRelation<uint64_t> joined;
  const size_t before_rule2 = pool.parallel_for_calls();
  JoinUnionStep(left, right, VarSet{0, 1}, times, uint64_t{0}, par,
                StorageKind::kColumnar, &joined);
  EXPECT_EQ(pool.parallel_for_calls() - before_rule2, 1u);
  EXPECT_FALSE(joined.empty());
}

// The sharded scatter must produce the serial natives' exact contents,
// from every range-scannable input layout.
TEST(FusedSteps, ScatterMatchesSerialResults) {
  WorkerPool pool(4);
  const auto plus = [](uint64_t a, uint64_t b) { return a + b; };
  const auto times = [](uint64_t a, uint64_t b) { return a * b; };
  const IntraQueryParallel par{&pool, 4, /*min_rows=*/1};

  for (StorageKind input :
       {StorageKind::kColumnar, StorageKind::kShardedColumnar}) {
    SCOPED_TRACE(StorageKindName(input));
    const AnnotatedRelation<uint64_t> source =
        FilledRelation(VarSet{0, 1}, input, 400, 0x5ca7);
    const AnnotatedRelation<uint64_t> other =
        FilledRelation(VarSet{0, 1}, input, 400, 0x5ca8);

    AnnotatedRelation<uint64_t> serial_projected;
    ProjectDropStep(source, 0, VarSet{1}, plus, IntraQueryParallel{},
                    StorageKind::kColumnar, &serial_projected);
    AnnotatedRelation<uint64_t> parallel_projected;
    ProjectDropStep(source, 0, VarSet{1}, plus, par, StorageKind::kColumnar,
                    &parallel_projected);
    EXPECT_EQ(parallel_projected.storage(), StorageKind::kShardedColumnar);
    ExpectSameRelation(serial_projected, parallel_projected);

    AnnotatedRelation<uint64_t> serial_joined;
    JoinUnionStep(source, other, VarSet{0, 1}, times, uint64_t{0},
                  IntraQueryParallel{}, StorageKind::kColumnar,
                  &serial_joined);
    AnnotatedRelation<uint64_t> parallel_joined;
    JoinUnionStep(source, other, VarSet{0, 1}, times, uint64_t{0}, par,
                  StorageKind::kColumnar, &parallel_joined);
    EXPECT_EQ(parallel_joined.storage(), StorageKind::kShardedColumnar);
    ExpectSameRelation(serial_joined, parallel_joined);
  }
}

// --------------------------------------------- incremental materialization --

TEST(ParallelIncremental, ParallelMaterializeFeedsSerialDeltasCorrectly) {
  const ConjunctiveQuery q = MakePaperQuery();
  Rng rng(0x13c4ULL);
  DataGenOptions dopts;
  dopts.tuples_per_relation = 60;
  dopts.domain_size = 12;
  const Database base = RandomDatabaseForQuery(q, rng, dopts);

  for (StorageKind storage :
       {StorageKind::kColumnar, StorageKind::kShardedColumnar}) {
    SCOPED_TRACE(StorageKindName(storage));
    VersionedDatabase serial_db(base);
    VersionedDatabase parallel_db(base);
    IncrementalEvaluator<CountMonoid> serial(
        CountMonoid{}, &serial_db,
        [](const Fact&, double) -> uint64_t { return 1; }, {storage});
    IncrementalEvaluator<CountMonoid>::Options par_options;
    par_options.storage = storage;
    par_options.intra_query_threads = 4;
    IncrementalEvaluator<CountMonoid> parallel(
        CountMonoid{}, &parallel_db,
        [](const Fact&, double) -> uint64_t { return 1; }, par_options);

    auto serial_handle = serial.Attach(q);
    auto parallel_handle = parallel.Attach(q);
    ASSERT_TRUE(serial_handle.ok());
    ASSERT_TRUE(parallel_handle.ok());
    EXPECT_EQ(serial.ResultOf(*serial_handle),
              parallel.ResultOf(*parallel_handle));

    // Stream random single-fact deltas through both; the parallel-
    // materialized view tree must track the serial one exactly.
    for (int round = 0; round < 40; ++round) {
      DeltaBatch batch;
      DeltaOp op;
      op.kind = rng.UniformInt(0, 2) == 0 ? DeltaKind::kDelete
                                          : DeltaKind::kInsert;
      op.fact.relation = q.atoms()[static_cast<size_t>(
                                       rng.UniformInt(0, 2))]
                             .relation();
      const size_t arity =
          q.atoms()[*q.AtomIndexOf(op.fact.relation)].arity();
      for (size_t i = 0; i < arity; ++i) {
        op.fact.tuple.push_back(rng.UniformInt(0, 12));
      }
      batch.ops.push_back(op);
      serial.ApplyDelta(batch);
      parallel.ApplyDelta(batch);
      ASSERT_EQ(serial.ResultOf(*serial_handle),
                parallel.ResultOf(*parallel_handle))
          << "round " << round;
    }
    EXPECT_EQ(serial.view(*serial_handle).TotalSupport(),
              parallel.view(*parallel_handle).TotalSupport());
  }
}

// ------------------------------------------------ one loop, two engines --

// What one traced step did, minus its timing.
struct StepRecord {
  uint8_t rule = 0;
  StorageKind backend = kDefaultStorageKind;
  bool parallel = false;
  uint64_t rows_in = 0;
  uint64_t rows_out = 0;

  bool operator==(const StepRecord&) const = default;
};

std::ostream& operator<<(std::ostream& os, const StepRecord& r) {
  return os << "{rule " << static_cast<int>(r.rule) << ", "
            << StorageKindName(r.backend) << ", "
            << (r.parallel ? "parallel" : "serial") << ", " << r.rows_in
            << " -> " << r.rows_out << "}";
}

std::vector<StepRecord> StepRecords(const obs::Tracer& tracer) {
  std::vector<obs::TraceEvent> steps;
  for (const obs::TraceEvent& event : tracer.Snapshot()) {
    if (event.kind == obs::TraceEvent::Kind::kStep) {
      steps.push_back(event);
    }
  }
  std::stable_sort(steps.begin(), steps.end(),
                   [](const obs::TraceEvent& a, const obs::TraceEvent& b) {
                     return a.step.step_index < b.step.step_index;
                   });
  std::vector<StepRecord> out;
  for (const obs::TraceEvent& event : steps) {
    out.push_back(StepRecord{event.step.rule, event.step.backend,
                             event.step.parallel, event.step.rows_in,
                             event.step.rows_out});
  }
  return out;
}

// Incremental-view materialization and batch evaluation run the same step
// loop, so on one instance they must take the same steps in the same
// backends with the same serial/parallel choices. The instance is sized
// so that the default 4096-row cutoff (IncrementalEvaluator has no cutoff
// option) shards the two middle steps and leaves the rest serial — among
// them a serial Rule 1 over a sharded source.
TEST(SharedStepLoop, MaterializeAndEvaluateTakeTheSameSteps) {
  const ConjunctiveQuery q = MakePaperQuery();
  Rng rng(0x5e9ULL);
  DataGenOptions dopts;
  dopts.tuples_per_relation = 5000;
  dopts.domain_size = 50;
  const Database base = RandomDatabaseForQuery(q, rng, dopts);

  for (size_t threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    VersionedDatabase db(base);
    IncrementalEvaluator<CountMonoid>::Options view_options;
    view_options.intra_query_threads = threads;
    IncrementalEvaluator<CountMonoid> incremental(
        CountMonoid{}, &db, [](const Fact&, double) -> uint64_t { return 1; },
        view_options);
    obs::Tracer view_tracer;
    view_tracer.Install();
    auto handle = incremental.Attach(q);
    view_tracer.Uninstall();
    ASSERT_TRUE(handle.ok()) << handle.status().ToString();

    Evaluator::Options options;
    options.intra_query_threads = threads;
    options.parallel_min_rows = IntraQueryParallel{}.min_rows;
    Evaluator evaluator(options);
    obs::Tracer batch_tracer;
    batch_tracer.Install();
    auto result = evaluator.Evaluate<CountMonoid>(
        q, CountMonoid{}, base, [](const Fact&) -> uint64_t { return 1; });
    batch_tracer.Uninstall();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(incremental.ResultOf(*handle), *result);

    const std::vector<StepRecord> view_steps = StepRecords(view_tracer);
    const std::vector<StepRecord> batch_steps = StepRecords(batch_tracer);
    const auto plan = EliminationPlan::Build(q);
    ASSERT_TRUE(plan.ok());
    ASSERT_EQ(batch_steps.size(), plan->steps().size());
    EXPECT_EQ(view_steps, batch_steps);

    size_t parallel_steps = 0;
    for (const StepRecord& step : batch_steps) {
      parallel_steps += step.parallel ? 1 : 0;
    }
    if (threads == 1) {
      EXPECT_EQ(parallel_steps, 0u);
    } else {
      EXPECT_GT(parallel_steps, 0u);
      EXPECT_LT(parallel_steps, batch_steps.size());
    }
  }
}

}  // namespace
}  // namespace hierarq
