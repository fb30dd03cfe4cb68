// Tests for the adaptive execution layer (core/adaptive.h).
//
// The differential suite pins the only contract that lets adaptive mode
// default on anywhere: whatever the controller picks per step, results
// equal every fixed configuration — bit-identically for the exact
// monoids (count, bool, resilience), to 1e-11 relative for the floating
// ones (tropical, prob, expectation), across all storage backends. Unit
// tests cover the decision inputs themselves: skew read from shard
// occupancy, the cost model's serial/parallel crossover, and measured
// feedback round-tripping through the plan-cache key (the plan's stable
// address) to flip later decisions.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <functional>
#include <iterator>
#include <string>
#include <vector>

#include "hierarq/core/adaptive.h"
#include "hierarq/hierarq.h"
#include "hierarq/incremental/incremental_evaluator.h"

namespace hierarq {
namespace {

void ExpectClose(double a, double b) {
  if (!std::isfinite(a) || !std::isfinite(b)) {
    EXPECT_EQ(a, b);
    return;
  }
  const double scale = std::max({1.0, std::fabs(a), std::fabs(b)});
  EXPECT_NEAR(a, b, 1e-11 * scale);
}

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
  dopts.tuples_per_relation = static_cast<size_t>(rng.UniformInt(0, 120));
  dopts.domain_size = 2 + static_cast<size_t>(rng.UniformInt(0, 20));
  return RandomDatabaseForQuery(q, rng, dopts);
}

template <TwoMonoid M>
typename M::value_type EvaluateFixed(
    const M& monoid,
    const std::function<typename M::value_type(const Fact&)>& annotator,
    const ConjunctiveQuery& q, const Database& db, StorageKind storage) {
  Evaluator evaluator(storage);
  auto result = evaluator.Evaluate<M>(q, monoid, db, annotator);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result.ok() ? *result : typename M::value_type{};
}

template <TwoMonoid M>
typename M::value_type EvaluateAdaptive(
    const M& monoid,
    const std::function<typename M::value_type(const Fact&)>& annotator,
    const ConjunctiveQuery& q, const Database& db, StorageKind storage) {
  Evaluator::Options options;
  options.storage = storage;
  options.adaptive = true;
  options.intra_query_threads = 8;  // The fan-out cap the controller uses.
  options.parallel_min_rows = 1;    // Let the cost model decide alone.
  Evaluator evaluator(options);
  auto result = evaluator.Evaluate<M>(q, monoid, db, annotator);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result.ok() ? *result : typename M::value_type{};
}

// Adaptive vs every fixed backend on random hierarchical instances. The
// fixed serial configs are themselves equal across backends and thread
// counts (storage_differential_test, parallel_test), so agreeing with
// each backend's serial result transitively pins adaptive against the
// whole fixed grid.
template <TwoMonoid M, typename Check>
void SweepAdaptiveVsFixed(
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
      const auto fixed = EvaluateFixed(monoid, annotator, q, db, storage);
      const auto adaptive =
          EvaluateAdaptive(monoid, annotator, q, db, storage);
      check(fixed, adaptive);
      ++instances;
    }
  }
  EXPECT_EQ(instances, 10 * std::size(kAllStorageKinds));
}

template <typename T>
void CheckBitIdentical(const T& a, const T& b) {
  EXPECT_EQ(a, b);
}

TEST(AdaptiveDifferential, CountBitIdentical) {
  SweepAdaptiveVsFixed<CountMonoid>(
      CountMonoid{}, [](const Fact&) -> uint64_t { return 1; }, 0xada0,
      [](uint64_t a, uint64_t b) { CheckBitIdentical(a, b); });
}

TEST(AdaptiveDifferential, BoolBitIdentical) {
  SweepAdaptiveVsFixed<BoolMonoid>(
      BoolMonoid{}, [](const Fact&) { return true; }, 0xada1,
      [](bool a, bool b) { CheckBitIdentical(a, b); });
}

TEST(AdaptiveDifferential, ResilienceBitIdentical) {
  SweepAdaptiveVsFixed<ResilienceMonoid>(
      ResilienceMonoid{},
      [](const Fact& fact) -> uint64_t {
        return WeightOf(fact) < 0.5 ? 1 : ResilienceMonoid::kInfinity;
      },
      0xada2,
      [](uint64_t a, uint64_t b) { CheckBitIdentical(a, b); });
}

TEST(AdaptiveDifferential, TropicalWithinTolerance) {
  SweepAdaptiveVsFixed<TropicalMonoid>(
      TropicalMonoid{}, [](const Fact& fact) { return WeightOf(fact); },
      0xada3, [](double a, double b) { ExpectClose(a, b); });
}

TEST(AdaptiveDifferential, ProbWithinTolerance) {
  SweepAdaptiveVsFixed<ProbMonoid>(
      ProbMonoid{}, [](const Fact& fact) { return WeightOf(fact); }, 0xada4,
      [](double a, double b) { ExpectClose(a, b); });
}

TEST(AdaptiveDifferential, ExpectationWithinTolerance) {
  SweepAdaptiveVsFixed<ExpectationMonoid>(
      ExpectationMonoid{}, [](const Fact& fact) { return WeightOf(fact); },
      0xada5, [](double a, double b) { ExpectClose(a, b); });
}

// A big instance where the cost model's crossover (~3k rows at an 8-way
// budget) actually fires: the controller must choose parallel for the
// large base steps and still produce the serial engine's exact count.
// The thread budget comes from the Options (8), not the host, so the
// choice is deterministic on any CI machine.
TEST(AdaptiveDifferential, BigInstanceGoesParallelAndStaysExact) {
  const ConjunctiveQuery q = MakePaperQuery();
  Rng rng(0xb16aULL);
  DataGenOptions dopts;
  dopts.tuples_per_relation = 10000;
  dopts.domain_size = 2500;
  const Database db = RandomDatabaseForQuery(q, rng, dopts);
  const auto annotate = std::function<uint64_t(const Fact&)>(
      [](const Fact&) -> uint64_t { return 1; });

  Evaluator serial(StorageKind::kColumnar);
  auto reference =
      serial.Evaluate<CountMonoid>(q, CountMonoid{}, db, annotate);
  ASSERT_TRUE(reference.ok());

  Evaluator::Options options;
  options.adaptive = true;
  options.intra_query_threads = 8;
  Evaluator adaptive(options);
  auto result =
      adaptive.Evaluate<CountMonoid>(q, CountMonoid{}, db, annotate);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, *reference);

  const AdaptiveController* controller = adaptive.adaptive_controller();
  ASSERT_NE(controller, nullptr);
  EXPECT_GT(controller->parallel_steps(), 0u);
}

// ------------------------------------------------------- stats collector --

TEST(AdaptiveStats, UnshardedLayoutsReportNeutralSkew) {
  AnnotatedRelation<uint64_t> rel;
  rel.Reset(VarSet{0, 1}, StorageKind::kColumnar);
  rel.Set(MakeTuple({1, 2}), 1);
  rel.Set(MakeTuple({3, 4}), 1);
  const RelationStats stats = CollectRelationStats(rel);
  EXPECT_EQ(stats.rows, 2u);
  EXPECT_EQ(stats.arity, 2u);
  EXPECT_DOUBLE_EQ(stats.skew, 1.0);
}

TEST(AdaptiveStats, ShardOccupancyDrivesSkew) {
  AnnotatedRelation<uint64_t> rel;
  rel.Reset(VarSet{0}, StorageKind::kShardedColumnar);
  EXPECT_DOUBLE_EQ(CollectRelationStats(rel).skew, 1.0);  // Empty.

  // One row lives in exactly one of the 8 shards: maximal skew.
  rel.Set(MakeTuple({42}), 1);
  const RelationStats single = CollectRelationStats(rel);
  EXPECT_EQ(single.rows, 1u);
  EXPECT_EQ(single.arity, 1u);
  EXPECT_DOUBLE_EQ(
      single.skew,
      static_cast<double>(ShardedColumnarStore<uint64_t>::kNumShards));

  // Many distinct hash-routed keys spread out: skew falls toward 1.
  for (Value v = 0; v < 4000; ++v) {
    rel.Set(MakeTuple({v}), 1);
  }
  const RelationStats spread = CollectRelationStats(rel);
  EXPECT_EQ(spread.rows, 4000u);
  EXPECT_GE(spread.skew, 1.0);
  EXPECT_LT(spread.skew, 1.5);
}

// ----------------------------------------------------------- cost model --

TEST(AdaptiveChoice, SmallInputsAndUnitBudgetsStaySerial) {
  RelationStats small;
  small.rows = 100;
  small.arity = 2;

  AdaptiveController::Options one_core;
  one_core.hardware_threads = 1;
  const AdaptiveController serial_only(one_core);
  EXPECT_FALSE(serial_only.Choose(nullptr, 0, small).parallel);

  AdaptiveController::Options eight;
  eight.hardware_threads = 8;
  const AdaptiveController budget8(eight);
  // Small input: below min_parallel_rows, and below the crossover anyway.
  EXPECT_FALSE(budget8.Choose(nullptr, 0, small).parallel);

  RelationStats big;
  big.rows = 200000;
  big.arity = 2;
  const StepChoice choice = budget8.Choose(nullptr, 0, big);
  EXPECT_TRUE(choice.parallel);
  EXPECT_EQ(choice.threads, 8u);
  EXPECT_LT(choice.predicted_parallel_ns, choice.predicted_serial_ns);

  // Uniform one-core budget never goes parallel even on huge inputs.
  EXPECT_FALSE(serial_only.Choose(nullptr, 0, big).parallel);
}

TEST(AdaptiveChoice, SkewDiscountsTheParallelEstimate) {
  AdaptiveController::Options opts;
  opts.hardware_threads = 8;
  const AdaptiveController controller(opts);

  RelationStats uniform;
  uniform.rows = 200000;
  uniform.arity = 2;
  uniform.skew = 1.0;
  EXPECT_TRUE(controller.Choose(nullptr, 0, uniform).parallel);

  // All rows in one shard: effective parallelism 1, the latch is pure
  // overhead — the controller must fall back to serial.
  RelationStats skewed = uniform;
  skewed.skew =
      static_cast<double>(ShardedColumnarStore<uint64_t>::kNumShards);
  const StepChoice choice = controller.Choose(nullptr, 0, skewed);
  EXPECT_FALSE(choice.parallel);
  EXPECT_GT(choice.predicted_parallel_ns, choice.predicted_serial_ns);
}

// ------------------------------------------------------ measured feedback --

TEST(AdaptiveFeedback, MeasurementsRoundTripAndFlipDecisions) {
  auto plan = EliminationPlan::Build(MakePaperQuery());
  ASSERT_TRUE(plan.ok());
  AdaptiveController::Options opts;
  opts.hardware_threads = 8;
  AdaptiveController controller(opts);

  RelationStats input;
  input.rows = 5000;
  input.arity = 2;
  // By the calibrated model alone, 5000 rows at an 8-way budget crosses
  // into parallel territory.
  EXPECT_TRUE(controller.Choose(&*plan, 0, input).parallel);

  // Nothing measured yet.
  EXPECT_LT(controller.MeasuredNsPerRow(&*plan, 0, /*parallel=*/true), 0.0);

  // Feed back a terrible measured parallel cost (1000 ns/row wall) for
  // this exact plan step; the next decision must flip to serial.
  controller.RecordMeasured(&*plan, 0, /*parallel=*/true, 5000, 5e-3);
  EXPECT_NEAR(controller.MeasuredNsPerRow(&*plan, 0, true), 1000.0, 1e-6);
  EXPECT_FALSE(controller.Choose(&*plan, 0, input).parallel);

  // The feedback is EWMA, not last-write-wins: a second, cheap sample
  // pulls the estimate down but remembers the first.
  controller.RecordMeasured(&*plan, 0, /*parallel=*/true, 5000, 5e-5);
  const double blended = controller.MeasuredNsPerRow(&*plan, 0, true);
  EXPECT_GT(blended, 10.0);
  EXPECT_LT(blended, 1000.0);

  // Feedback is keyed per plan: a different plan is untouched.
  auto other = EliminationPlan::Build(MakeStarQuery(3));
  ASSERT_TRUE(other.ok());
  EXPECT_LT(controller.MeasuredNsPerRow(&*other, 0, true), 0.0);
  EXPECT_TRUE(controller.Choose(&*other, 0, input).parallel);
}

// End-to-end: an adaptive Evaluator's second evaluation of the same
// query re-decides from costs measured on the first, keyed through the
// plan cache's stable plan address.
TEST(AdaptiveFeedback, EvaluatorFeedsMeasurementsThroughPlanCache) {
  const ConjunctiveQuery q = MakePaperQuery();
  Rng rng(0xfeedULL);
  DataGenOptions dopts;
  dopts.tuples_per_relation = 300;
  dopts.domain_size = 60;
  const Database db = RandomDatabaseForQuery(q, rng, dopts);
  const auto annotate = std::function<uint64_t(const Fact&)>(
      [](const Fact&) -> uint64_t { return 1; });

  Evaluator::Options options;
  options.adaptive = true;
  Evaluator evaluator(options);
  auto first = evaluator.Evaluate<CountMonoid>(q, CountMonoid{}, db,
                                               annotate);
  ASSERT_TRUE(first.ok());

  auto plan = evaluator.GetPlan(q);
  ASSERT_TRUE(plan.ok());
  const AdaptiveController* controller = evaluator.adaptive_controller();
  ASSERT_NE(controller, nullptr);
  EXPECT_EQ(controller->serial_steps() + controller->parallel_steps(),
            (*plan)->steps().size());
  // At least one step was big enough (>= 64 rows) to leave a measured
  // ns/row behind, retrievable under the cached plan's address.
  bool any_measured = false;
  for (size_t step = 0; step < (*plan)->steps().size(); ++step) {
    any_measured = any_measured ||
                   controller->MeasuredNsPerRow(*plan, step, false) > 0.0 ||
                   controller->MeasuredNsPerRow(*plan, step, true) > 0.0;
  }
  EXPECT_TRUE(any_measured);

  auto second = evaluator.Evaluate<CountMonoid>(q, CountMonoid{}, db,
                                                annotate);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(*first, *second);
}

// ------------------------------------------------- service + incremental --

TEST(AdaptiveService, AdaptiveIntraRouteMatchesSerial) {
  const ConjunctiveQuery q = MakePaperQuery();
  Rng rng(0xad5eULL);
  DataGenOptions dopts;
  dopts.tuples_per_relation = 400;
  dopts.domain_size = 100;
  const Database db = RandomDatabaseForQuery(q, rng, dopts);
  const auto annotate = std::function<uint64_t(const Fact&)>(
      [](const Fact&) -> uint64_t { return 1; });

  Evaluator serial;
  auto reference =
      serial.Evaluate<CountMonoid>(q, CountMonoid{}, db, annotate);
  ASSERT_TRUE(reference.ok());

  EvalService::Options options;
  options.num_workers = 2;
  options.adaptive = true;
  options.intra_query_min_support = 1;
  EvalService service(options);
  auto results = service.EvaluateMany<CountMonoid>(CountMonoid{}, {&q}, db,
                                                   annotate);
  ASSERT_EQ(results.size(), 1u);
  ASSERT_TRUE(results[0].ok());
  EXPECT_EQ(*results[0], *reference);
  // Adaptive mode routes the singleton through the intra evaluator even
  // without an explicit intra_query_threads.
  EXPECT_EQ(service.stats().intra_parallel_replays, 1u);
}

TEST(AdaptiveIncremental, AdaptiveMaterializationTracksSerialDeltas) {
  const ConjunctiveQuery q = MakePaperQuery();
  Rng rng(0xad11ULL);
  DataGenOptions dopts;
  dopts.tuples_per_relation = 60;
  dopts.domain_size = 12;
  const Database base = RandomDatabaseForQuery(q, rng, dopts);

  VersionedDatabase serial_db(base);
  VersionedDatabase adaptive_db(base);
  IncrementalEvaluator<CountMonoid> serial(
      CountMonoid{}, &serial_db,
      [](const Fact&, double) -> uint64_t { return 1; },
      {StorageKind::kColumnar});
  // Explicit threads + adaptive: parallel materialization scatters into
  // the sharded-columnar flavor, then serial delta maintenance must
  // track the plain-serial view exactly.
  IncrementalEvaluator<CountMonoid> adaptive(
      CountMonoid{}, &adaptive_db,
      [](const Fact&, double) -> uint64_t { return 1; },
      {StorageKind::kColumnar, /*intra_query_threads=*/4,
       /*adaptive=*/true});

  auto serial_handle = serial.Attach(q);
  auto adaptive_handle = adaptive.Attach(q);
  ASSERT_TRUE(serial_handle.ok());
  ASSERT_TRUE(adaptive_handle.ok());
  EXPECT_EQ(serial.ResultOf(*serial_handle),
            adaptive.ResultOf(*adaptive_handle));

  for (int round = 0; round < 40; ++round) {
    DeltaBatch batch;
    DeltaOp op;
    op.kind = rng.UniformInt(0, 2) == 0 ? DeltaKind::kDelete
                                        : DeltaKind::kInsert;
    op.fact.relation =
        q.atoms()[static_cast<size_t>(rng.UniformInt(0, 2))].relation();
    const size_t arity =
        q.atoms()[*q.AtomIndexOf(op.fact.relation)].arity();
    for (size_t i = 0; i < arity; ++i) {
      op.fact.tuple.push_back(rng.UniformInt(0, 12));
    }
    batch.ops.push_back(op);
    serial.ApplyDelta(batch);
    adaptive.ApplyDelta(batch);
    ASSERT_EQ(serial.ResultOf(*serial_handle),
              adaptive.ResultOf(*adaptive_handle))
        << "round " << round;
  }
}

}  // namespace
}  // namespace hierarq
