// Tests for the incremental subsystem (src/hierarq/incremental/):
// VersionedDatabase semantics, per-key Erase on every storage backend,
// hand-checked view maintenance, and the randomized delta-vs-scratch
// differential harness — ≥200 seeded insert/delete/re-weight sequences
// driven through IncrementalEvaluator and cross-checked against a
// from-scratch Evaluator on both StorageKinds and six monoids (exact
// monoids bit-identical, floating monoids to 1e-11 relative), and
// materialization taking exactly the batch engine's steps (one shared
// step loop).

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <ostream>
#include <string>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "hierarq/hierarq.h"

namespace hierarq {
namespace {

// ---------------------------------------------------------------------------
// VersionedDatabase.

TEST(VersionedDatabaseTest, GenerationAdvancesOncePerBatch) {
  Database base;
  base.AddFactOrDie("R", MakeTuple({1, 2}));
  VersionedDatabase db(std::move(base));
  EXPECT_EQ(db.generation(), 0u);

  DeltaBatch batch;
  batch.Insert("R", MakeTuple({1, 3})).Delete("R", MakeTuple({1, 2}));
  const auto stats = db.Apply(batch);
  EXPECT_EQ(db.generation(), 1u);
  EXPECT_EQ(stats.inserted, 1u);
  EXPECT_EQ(stats.deleted, 1u);
  EXPECT_TRUE(db.Contains(Fact{"R", MakeTuple({1, 3})}));
  EXPECT_FALSE(db.Contains(Fact{"R", MakeTuple({1, 2})}));

  // Empty batches still advance the generation (one step per Apply).
  db.Apply(DeltaBatch{});
  EXPECT_EQ(db.generation(), 2u);
  ASSERT_EQ(db.log().size(), 2u);
  EXPECT_EQ(db.log()[0].size(), 2u);
}

TEST(VersionedDatabaseTest, NormalizesOpsAgainstCurrentState) {
  VersionedDatabase db;
  DeltaBatch setup;
  setup.Insert("R", MakeTuple({7}), 0.25);
  db.Apply(setup);
  EXPECT_DOUBLE_EQ(db.WeightOf(Fact{"R", MakeTuple({7})}), 0.25);
  EXPECT_DOUBLE_EQ(db.WeightOf(Fact{"R", MakeTuple({8})}), 0.0);

  DeltaBatch mixed;
  mixed.Insert("R", MakeTuple({7}), 0.5);          // Present: re-weight.
  mixed.Delete("R", MakeTuple({9}));               // Absent: no-op.
  mixed.SetAnnotation("R", MakeTuple({9}), 0.5);   // Absent: no-op.
  mixed.SetAnnotation("R", MakeTuple({7}), 0.5);   // Same weight: no-op.
  const auto stats = db.Apply(mixed);
  EXPECT_EQ(stats.inserted, 0u);
  EXPECT_EQ(stats.deleted, 0u);
  EXPECT_EQ(stats.reweighted, 1u);
  EXPECT_EQ(stats.noops, 3u);
  EXPECT_DOUBLE_EQ(db.WeightOf(Fact{"R", MakeTuple({7})}), 0.5);
}

TEST(VersionedDatabaseTest, UidsAreProcessUniqueAndLogTruncates) {
  VersionedDatabase a;
  VersionedDatabase b;
  EXPECT_NE(a.uid(), b.uid());
  EXPECT_NE(a.uid(), 0u);  // 0 is the "plain database" cache sentinel.

  for (int i = 0; i < 5; ++i) {
    DeltaBatch batch;
    batch.Insert("R", MakeTuple({i}));
    a.Apply(batch);
  }
  ASSERT_EQ(a.log().size(), 5u);
  EXPECT_EQ(a.log_start_generation(), 0u);

  a.TruncateLog(3);  // Keep entries for generations 3 and 4.
  ASSERT_EQ(a.log().size(), 2u);
  EXPECT_EQ(a.log_start_generation(), 3u);
  // log()[g - start] is generation g's batch: generation 3 inserted R(3).
  EXPECT_EQ(a.log()[0].ops[0].fact.tuple, MakeTuple({3}));
  a.TruncateLog(1);  // Already past generation 1: no-op.
  EXPECT_EQ(a.log_start_generation(), 3u);
  a.TruncateLog(a.generation());
  EXPECT_TRUE(a.log().empty());
  EXPECT_EQ(a.generation(), 5u);  // Truncation never moves the version.
}

TEST(VersionedDatabaseTest, WrapsTidDatabaseWithProbabilitiesAsWeights) {
  TidDatabase tid;
  tid.AddFactOrDie("R", MakeTuple({1}), 0.3);
  tid.AddFactOrDie("R", MakeTuple({2}), 0.9);
  VersionedDatabase db(tid);
  EXPECT_EQ(db.NumFacts(), 2u);
  EXPECT_DOUBLE_EQ(db.WeightOf(Fact{"R", MakeTuple({1})}), 0.3);
  EXPECT_DOUBLE_EQ(db.WeightOf(Fact{"R", MakeTuple({2})}), 0.9);
}

// ---------------------------------------------------------------------------
// Per-key Erase across backends (the storage primitive the views rely on):
// randomized insert/erase/find interleavings vs a reference map.

TEST(AnnotatedEraseTest, RandomizedDifferentialAgainstReferenceMap) {
  for (StorageKind storage : kAllStorageKinds) {
    SCOPED_TRACE(StorageKindName(storage));
    Rng rng(0xE7A5Eu ^ static_cast<uint64_t>(storage));
    AnnotatedRelation<uint64_t> relation(VarSet{0, 1}, storage);
    std::unordered_map<Tuple, uint64_t, TupleHash> reference;
    for (size_t step = 0; step < 4000; ++step) {
      Tuple key = MakeTuple({rng.UniformInt(0, 15), rng.UniformInt(0, 15)});
      const uint64_t roll = rng.Next() % 3;
      if (roll == 0) {
        const uint64_t value = rng.Next() % 1000;
        relation.Set(key, value);
        reference[key] = value;
      } else if (roll == 1) {
        EXPECT_EQ(relation.Erase(key), reference.erase(key) > 0);
      } else {
        const uint64_t* found = relation.Find(key);
        auto it = reference.find(key);
        ASSERT_EQ(found != nullptr, it != reference.end());
        if (found != nullptr) {
          EXPECT_EQ(*found, it->second);
        }
      }
      ASSERT_EQ(relation.size(), reference.size());
    }
    // Drain: erase everything that remains, in reference order.
    std::vector<Tuple> keys;
    for (const auto& [key, value] : reference) {
      keys.push_back(key);
    }
    for (const Tuple& key : keys) {
      EXPECT_TRUE(relation.Erase(key));
      EXPECT_FALSE(relation.Erase(key));
    }
    EXPECT_EQ(relation.size(), 0u);
  }
}

// ---------------------------------------------------------------------------
// Hand-checked view maintenance.

std::function<uint64_t(const Fact&, double)> CountAnnotator() {
  return [](const Fact&, double) -> uint64_t { return 1; };
}

TEST(IncrementalViewTest, PaperExampleCountsUnderUpdates) {
  // Q() :- R(A,B), S(A,C), T(A,C,D) — Eq. (1).
  const ConjunctiveQuery query = MakePaperQuery();
  Database base;
  base.AddFactOrDie("R", MakeTuple({1, 2}));
  base.AddFactOrDie("S", MakeTuple({1, 5}));
  base.AddFactOrDie("T", MakeTuple({1, 5, 7}));
  VersionedDatabase db(std::move(base));
  IncrementalEvaluator<CountMonoid> evaluator(CountMonoid{}, &db,
                                              CountAnnotator());
  auto handle = evaluator.Attach(query);
  ASSERT_TRUE(handle.ok());
  EXPECT_EQ(evaluator.ResultOf(*handle), 1u);

  DeltaBatch add_r;
  add_r.Insert("R", MakeTuple({1, 3}));
  auto results = evaluator.ApplyDelta(add_r);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].second, 2u);  // Two R-facts join the one S×T pair.

  DeltaBatch add_t;
  add_t.Insert("T", MakeTuple({1, 5, 8}));
  EXPECT_EQ(evaluator.ApplyDelta(add_t)[0].second, 4u);

  DeltaBatch del_s;
  del_s.Delete("S", MakeTuple({1, 5}));
  EXPECT_EQ(evaluator.ApplyDelta(del_s)[0].second, 0u);

  // Reinserting S restores the previous count exactly.
  DeltaBatch re_add;
  re_add.Insert("S", MakeTuple({1, 5}));
  EXPECT_EQ(evaluator.ApplyDelta(re_add)[0].second, 4u);
  EXPECT_EQ(evaluator.generation(), 4u);
}

TEST(IncrementalViewTest, InsertThenDeleteInOneBatchIsANoop) {
  const ConjunctiveQuery query = MakePaperQuery();
  Database base;
  base.AddFactOrDie("R", MakeTuple({1, 2}));
  base.AddFactOrDie("S", MakeTuple({1, 5}));
  base.AddFactOrDie("T", MakeTuple({1, 5, 7}));
  VersionedDatabase db(std::move(base));
  IncrementalEvaluator<CountMonoid> evaluator(CountMonoid{}, &db,
                                              CountAnnotator());
  auto handle = evaluator.Attach(query);
  ASSERT_TRUE(handle.ok());
  const size_t support_before = evaluator.view(*handle).TotalSupport();

  DeltaBatch batch;
  batch.Insert("R", MakeTuple({9, 9})).Delete("R", MakeTuple({9, 9}));
  EXPECT_EQ(evaluator.ApplyDelta(batch)[0].second, 1u);
  EXPECT_EQ(evaluator.view(*handle).TotalSupport(), support_before);
}

TEST(IncrementalViewTest, ConstantsAndRepeatedVariablesFilterOps) {
  // Q() :- R(A,A), S(A,3): only facts matching the pattern move the view.
  auto parsed = ParseQuery("Q() :- R(A,A), S(A,3)");
  ASSERT_TRUE(parsed.ok());
  const ConjunctiveQuery query = std::move(parsed).ValueOrDie();
  VersionedDatabase db;
  DeltaBatch setup;
  setup.Insert("R", MakeTuple({2, 2})).Insert("S", MakeTuple({2, 3}));
  db.Apply(setup);
  IncrementalEvaluator<CountMonoid> evaluator(CountMonoid{}, &db,
                                              CountAnnotator());
  auto handle = evaluator.Attach(query);
  ASSERT_TRUE(handle.ok());
  EXPECT_EQ(evaluator.ResultOf(*handle), 1u);

  DeltaBatch irrelevant;
  irrelevant.Insert("R", MakeTuple({4, 5}));   // Not diagonal: no match.
  irrelevant.Insert("S", MakeTuple({2, 7}));   // Constant mismatch.
  irrelevant.Insert("U", MakeTuple({1}));      // Relation not in the query.
  EXPECT_EQ(evaluator.ApplyDelta(irrelevant)[0].second, 1u);

  DeltaBatch relevant;
  relevant.Insert("R", MakeTuple({5, 5})).Insert("S", MakeTuple({5, 3}));
  EXPECT_EQ(evaluator.ApplyDelta(relevant)[0].second, 2u);
}

TEST(IncrementalViewTest, MultipleViewsAndDetach) {
  Database base;
  base.AddFactOrDie("R", MakeTuple({1, 2}));
  base.AddFactOrDie("S", MakeTuple({1}));
  VersionedDatabase db(std::move(base));
  IncrementalEvaluator<CountMonoid> evaluator(CountMonoid{}, &db,
                                              CountAnnotator());
  auto q1 = ParseQuery("Q() :- R(A,B), S(A)");
  auto q2 = ParseQuery("Q() :- R(A,B)");
  ASSERT_TRUE(q1.ok() && q2.ok());
  auto h1 = evaluator.Attach(*q1);
  auto h2 = evaluator.Attach(*q2);
  ASSERT_TRUE(h1.ok() && h2.ok());
  EXPECT_EQ(evaluator.num_views(), 2u);

  DeltaBatch batch;
  batch.Insert("R", MakeTuple({1, 3}));
  auto results = evaluator.ApplyDelta(batch);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].second, 2u);
  EXPECT_EQ(results[1].second, 2u);

  EXPECT_TRUE(evaluator.Detach(*h1));
  EXPECT_FALSE(evaluator.Detach(*h1));
  EXPECT_EQ(evaluator.num_views(), 1u);
  DeltaBatch more;
  more.Insert("R", MakeTuple({1, 4}));
  results = evaluator.ApplyDelta(more);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].first, *h2);
  EXPECT_EQ(results[0].second, 3u);
}

TEST(IncrementalViewTest, ReleaseThenReattachCatchesUpFromTheLog) {
  const ConjunctiveQuery query = MakePaperQuery();
  Database base;
  base.AddFactOrDie("R", MakeTuple({1, 2}));
  base.AddFactOrDie("S", MakeTuple({1, 5}));
  base.AddFactOrDie("T", MakeTuple({1, 5, 7}));
  VersionedDatabase db(std::move(base));
  IncrementalEvaluator<CountMonoid> evaluator(CountMonoid{}, &db,
                                              CountAnnotator());
  auto handle = evaluator.Attach(query);
  ASSERT_TRUE(handle.ok());
  EXPECT_EQ(evaluator.ResultOf(*handle), 1u);

  // Release: the view stops receiving deltas but remembers its sync
  // point — the detached-reader protocol that view recovery rides.
  auto detached = evaluator.Release(*handle);
  EXPECT_EQ(detached.synced_generation, 0u);
  EXPECT_EQ(evaluator.num_views(), 0u);

  DeltaBatch add_r;
  add_r.Insert("R", MakeTuple({1, 3}));
  EXPECT_TRUE(evaluator.ApplyDelta(add_r).empty());  // Nobody listening.
  DeltaBatch add_t;
  add_t.Insert("T", MakeTuple({1, 5, 8}));
  evaluator.ApplyDelta(add_t);
  EXPECT_EQ(db.generation(), 2u);

  // Reattach replays exactly the missed log suffix — no
  // rematerialization — and the result matches a never-detached view.
  auto reattached = evaluator.Reattach(std::move(detached));
  EXPECT_EQ(evaluator.ResultOf(reattached), 4u);
  EXPECT_EQ(evaluator.stats().reattach_replays, 1u);
  EXPECT_EQ(evaluator.stats().reattach_rematerializations, 0u);

  // The reattached view is live again: further deltas propagate.
  DeltaBatch del_s;
  del_s.Delete("S", MakeTuple({1, 5}));
  EXPECT_EQ(evaluator.ApplyDelta(del_s)[0].second, 0u);
}

TEST(IncrementalViewTest, ReattachPastATruncatedLogRematerializes) {
  const ConjunctiveQuery query = MakePaperQuery();
  Database base;
  base.AddFactOrDie("R", MakeTuple({1, 2}));
  base.AddFactOrDie("S", MakeTuple({1, 5}));
  base.AddFactOrDie("T", MakeTuple({1, 5, 7}));
  VersionedDatabase db(std::move(base));
  IncrementalEvaluator<CountMonoid> evaluator(CountMonoid{}, &db,
                                              CountAnnotator());
  auto handle = evaluator.Attach(query);
  ASSERT_TRUE(handle.ok());
  auto detached = evaluator.Release(*handle);

  DeltaBatch add_t;
  add_t.Insert("T", MakeTuple({1, 5, 8}));
  evaluator.ApplyDelta(add_t);
  // The log entries the detached view would need are gone: catch-up
  // must fall back to a full rematerialization, and still be correct.
  db.TruncateLog(db.generation());

  auto reattached = evaluator.Reattach(std::move(detached));
  EXPECT_EQ(evaluator.ResultOf(reattached), 2u);
  EXPECT_EQ(evaluator.stats().reattach_replays, 0u);
  EXPECT_EQ(evaluator.stats().reattach_rematerializations, 1u);
}

TEST(IncrementalViewTest, NonHierarchicalQueryFailsToAttach) {
  VersionedDatabase db;
  IncrementalEvaluator<CountMonoid> evaluator(CountMonoid{}, &db,
                                              CountAnnotator());
  EXPECT_FALSE(evaluator.Attach(MakeQnh()).ok());
  EXPECT_EQ(evaluator.num_views(), 0u);
}

// ---------------------------------------------------------------------------
// The randomized delta-vs-scratch differential harness.

struct SequenceConfig {
  StorageKind storage = kDefaultStorageKind;
  uint64_t seed = 0;
  size_t num_batches = 10;
  size_t max_ops_per_batch = 3;
};

/// Drives one seeded sequence of insert/delete/re-weight batches through
/// an IncrementalEvaluator view and checks every maintained result (and,
/// at the end, every materialized support) against a from-scratch
/// Evaluator over the same evolving VersionedDatabase. `tolerance` < 0
/// demands bit-identical values.
template <TwoMonoid M>
void RunDifferentialSequence(
    const M& monoid, typename IncrementalView<M>::Annotator annotator,
    const SequenceConfig& config, double tolerance) {
  using K = typename M::value_type;
  Rng rng(config.seed);
  RandomHierarchicalOptions query_opts;
  query_opts.num_variables = 2 + rng.Next() % 4;
  const ConjunctiveQuery query = MakeRandomHierarchical(rng, query_opts);
  DataGenOptions data_opts;
  data_opts.tuples_per_relation = 20 + rng.Next() % 40;
  data_opts.domain_size = 6;
  VersionedDatabase db(RandomTidForQuery(query, rng, data_opts));

  IncrementalEvaluator<M> incremental(
      monoid, &db, annotator, {.storage = config.storage});
  auto handle = incremental.Attach(query);
  ASSERT_TRUE(handle.ok()) << query.ToString();

  // Relation schemas the random ops draw from.
  std::vector<std::pair<std::string, size_t>> schemas;
  for (const Atom& atom : query.atoms()) {
    schemas.emplace_back(atom.relation(), atom.arity());
  }

  Evaluator scratch(config.storage);
  const std::function<K(const Fact&)> scratch_annotator =
      [&db, &annotator](const Fact& fact) {
        return annotator(fact, db.WeightOf(fact));
      };
  const auto check = [&](const char* when) {
    auto expected = scratch.Evaluate(query, monoid, db.facts(),
                                     scratch_annotator);
    ASSERT_TRUE(expected.ok());
    const K& maintained = incremental.ResultOf(*handle);
    if (tolerance < 0) {
      EXPECT_EQ(maintained, *expected)
          << when << " seed=" << config.seed << " " << query.ToString();
    } else {
      const double a = static_cast<double>(maintained);
      const double b = static_cast<double>(*expected);
      if (a != b) {  // a == b also covers ±inf (the tropical zero).
        EXPECT_NEAR(a, b,
                    tolerance * std::max({std::abs(a), std::abs(b), 1.0}))
            << when << " seed=" << config.seed << " " << query.ToString();
      }
    }
  };
  check("after attach");

  for (size_t b = 0; b < config.num_batches; ++b) {
    DeltaBatch batch;
    const size_t ops = 1 + rng.Next() % config.max_ops_per_batch;
    for (size_t o = 0; o < ops; ++o) {
      const auto& [relation, arity] =
          schemas[rng.Next() % schemas.size()];
      const uint64_t roll = rng.Next() % 4;
      if (roll == 0 || db.NumFacts() == 0) {
        Tuple tuple;
        for (size_t i = 0; i < arity; ++i) {
          tuple.push_back(rng.UniformInt(
              0, static_cast<int64_t>(data_opts.domain_size) - 1));
        }
        batch.Insert(relation, std::move(tuple), rng.UniformDouble());
      } else {
        const std::vector<Fact> facts = db.facts().AllFacts();
        const Fact& victim = facts[rng.Next() % facts.size()];
        if (roll == 1) {
          batch.SetAnnotation(victim.relation, victim.tuple,
                              rng.UniformDouble());
        } else {
          batch.Delete(victim.relation, victim.tuple);
        }
      }
    }
    incremental.ApplyDelta(batch);
    check("after batch");
  }

  // Support hygiene: the maintained view tree must be key-for-key what a
  // fresh materialization of the final state builds (Erase left nothing
  // behind and dropped nothing it should have kept).
  IncrementalView<M> fresh(query, incremental.view(*handle).plan(), monoid,
                           annotator, config.storage);
  fresh.Materialize(db);
  EXPECT_EQ(incremental.view(*handle).TotalSupport(), fresh.TotalSupport())
      << "seed=" << config.seed << " " << query.ToString();
}

template <TwoMonoid M>
void RunDifferentialSweep(const M& monoid,
                          typename IncrementalView<M>::Annotator annotator,
                          double tolerance, uint64_t seed_base) {
  size_t sequences = 0;
  for (StorageKind storage : kAllStorageKinds) {
    SCOPED_TRACE(StorageKindName(storage));
    for (uint64_t seed = 0; seed < 12; ++seed) {
      SequenceConfig config;
      config.storage = storage;
      config.seed = seed_base + seed;
      RunDifferentialSequence(monoid, annotator, config, tolerance);
      ++sequences;
      if (::testing::Test::HasFatalFailure()) {
        return;
      }
    }
  }
  EXPECT_EQ(sequences, 12u * std::size(kAllStorageKinds));
}

constexpr double kFloatTolerance = 1e-11;

// Six monoids × 3 backends × 12 seeds = 216 seeded sequences, exceeding
// the 200-sequence floor. Count and expectation take the ⊕-inverse fast
// path; bool, tropical, prob, and resilience take the group-refold
// fallback.

TEST(IncrementalDifferentialTest, CountMonoidBitIdentical) {
  RunDifferentialSweep(
      CountMonoid{}, [](const Fact&, double) -> uint64_t { return 1; },
      /*tolerance=*/-1, /*seed_base=*/1000);
}

TEST(IncrementalDifferentialTest, BoolMonoidBitIdentical) {
  RunDifferentialSweep(
      BoolMonoid{}, [](const Fact&, double) { return true; },
      /*tolerance=*/-1, /*seed_base=*/2000);
}

TEST(IncrementalDifferentialTest, ResilienceMonoidBitIdentical) {
  // Weight < 0.5 reads as endogenous (cost 1), else exogenous (∞) — the
  // same rule on both the incremental and the scratch side.
  RunDifferentialSweep(
      ResilienceMonoid{},
      [](const Fact&, double weight) -> uint64_t {
        return weight < 0.5 ? 1 : ResilienceMonoid::kInfinity;
      },
      /*tolerance=*/-1, /*seed_base=*/3000);
}

TEST(IncrementalDifferentialTest, TropicalMonoidWithinTolerance) {
  RunDifferentialSweep(
      TropicalMonoid{}, [](const Fact&, double weight) { return weight; },
      kFloatTolerance, /*seed_base=*/4000);
}

TEST(IncrementalDifferentialTest, ProbMonoidWithinTolerance) {
  RunDifferentialSweep(
      ProbMonoid{}, [](const Fact&, double weight) { return weight; },
      kFloatTolerance, /*seed_base=*/5000);
}

TEST(IncrementalDifferentialTest, ExpectationMonoidWithinTolerance) {
  RunDifferentialSweep(
      ExpectationMonoid{}, [](const Fact&, double weight) { return weight; },
      kFloatTolerance, /*seed_base=*/6000);
}

// Zero-valued annotations must stay in the support on both sides (scratch
// keeps keys whose annotation is the monoid zero; the view's contributor
// counts track presence, not values).

TEST(IncrementalDifferentialTest, ZeroAnnotationsKeepSupportParity) {
  SequenceConfig config;
  config.seed = 77;
  for (StorageKind storage : kAllStorageKinds) {
    SCOPED_TRACE(StorageKindName(storage));
    config.storage = storage;
    RunDifferentialSequence(
        ExpectationMonoid{},
        [](const Fact& fact, double weight) {
          // Some facts annotate to exactly 0.0 while staying present.
          return weight < 0.3 ? 0.0 : weight;
        },
        config, kFloatTolerance);
  }
}

// ---------------------------------------------------------------------------
// One step loop, two engines.

// What one traced step did, minus its timing.
struct StepRecord {
  uint8_t rule = 0;
  StorageKind backend = kDefaultStorageKind;
  uint64_t rows_in = 0;
  uint64_t rows_out = 0;

  bool operator==(const StepRecord&) const = default;
};

std::ostream& operator<<(std::ostream& os, const StepRecord& r) {
  return os << "{rule " << static_cast<int>(r.rule) << ", "
            << StorageKindName(r.backend) << ", " << r.rows_in << " -> "
            << r.rows_out << "}";
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
                             event.step.rows_in, event.step.rows_out});
  }
  return out;
}

// Incremental-view materialization and batch evaluation run the same step
// loop (`RunEliminationSteps`), so on one instance, both on the calling
// thread, they must take the same steps in the same backend over the same
// row counts and reach the same result.
TEST(SharedStepLoop, MaterializeAndEvaluateTakeTheSameSteps) {
  const ConjunctiveQuery q = MakePaperQuery();
  Rng rng(0x5e9ULL);
  DataGenOptions dopts;
  dopts.tuples_per_relation = 5000;
  dopts.domain_size = 50;
  const Database base = RandomDatabaseForQuery(q, rng, dopts);

  VersionedDatabase db(base);
  IncrementalEvaluator<CountMonoid> incremental(
      CountMonoid{}, &db, [](const Fact&, double) -> uint64_t { return 1; });
  obs::Tracer view_tracer;
  view_tracer.Install();
  auto handle = incremental.Attach(q);
  view_tracer.Uninstall();
  ASSERT_TRUE(handle.ok()) << handle.status().ToString();

  Evaluator evaluator;
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
  for (const StepRecord& step : batch_steps) {
    EXPECT_EQ(step.backend, kDefaultStorageKind) << step;
  }
}

}  // namespace
}  // namespace hierarq
