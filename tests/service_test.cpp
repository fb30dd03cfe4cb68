// Tests for the service layer (src/hierarq/service/): WorkerPool task
// dispatch, SharedPlanCache single-build under contention, EvalService
// batching (shared annotation passes, per-query failures, results equal to
// the single-threaded Evaluator under concurrent clients), and the batch
// solver entry points.

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include "hierarq/algebra/semirings.h"
#include "hierarq/core/evaluator.h"
#include "hierarq/core/expectation.h"
#include "hierarq/core/pqe.h"
#include "hierarq/core/provenance_pipeline.h"
#include "hierarq/core/resilience.h"
#include "hierarq/core/shapley.h"
#include "hierarq/obs/query_stats.h"
#include "hierarq/query/elimination.h"
#include "hierarq/query/parser.h"
#include "hierarq/service/batch_solvers.h"
#include "hierarq/service/eval_service.h"
#include "hierarq/service/shared_plan_cache.h"
#include "hierarq/util/worker_pool.h"
#include "hierarq/util/random.h"
#include "hierarq/workload/data_gen.h"
#include "hierarq/workload/query_gen.h"

namespace hierarq {
namespace {

std::function<uint64_t(const Fact&)> OneAnnotator() {
  return [](const Fact&) -> uint64_t { return 1; };
}

// ------------------------------------------------------------- WorkerPool --

TEST(WorkerPool, ParallelForCoversEveryIndexOnce) {
  WorkerPool pool(4);
  constexpr size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  pool.ParallelFor(kN, [&](size_t worker, size_t i) {
    EXPECT_LT(worker, pool.num_workers());
    hits[i].fetch_add(1);
  });
  for (size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(WorkerPool, DrainsSubmittedTasksOnDestruction) {
  std::atomic<int> ran{0};
  {
    WorkerPool pool(2);
    for (int i = 0; i < 100; ++i) {
      pool.Submit([&ran](size_t) { ran.fetch_add(1); });
    }
  }  // Destructor must run all 100 tasks before joining.
  EXPECT_EQ(ran.load(), 100);
}

TEST(WorkerPool, ZeroWorkersClampsToOne) {
  WorkerPool pool(0);
  EXPECT_EQ(pool.num_workers(), 1u);
  std::atomic<int> ran{0};
  pool.ParallelFor(3, [&](size_t, size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 3);
}

TEST(WorkerPool, ConcurrentClientsInterleaveSafely) {
  WorkerPool pool(4);
  constexpr size_t kClients = 4;
  constexpr size_t kPerClient = 200;
  std::atomic<size_t> total{0};
  std::vector<std::jthread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&pool, &total] {
      pool.ParallelFor(kPerClient,
                       [&total](size_t, size_t) { total.fetch_add(1); });
    });
  }
  clients.clear();  // Join.
  EXPECT_EQ(total.load(), kClients * kPerClient);
}

// -------------------------------------------------------- SharedPlanCache --

TEST(SharedPlanCache, BuildsEachPlanExactlyOnceUnderContention) {
  SharedPlanCache cache;
  const ConjunctiveQuery q = ParseQueryOrDie("R(A,B), S(A,C), T(A,C,D)");
  constexpr size_t kThreads = 8;
  constexpr size_t kLookupsPerThread = 200;

  std::vector<const EliminationPlan*> first_seen(kThreads, nullptr);
  {
    std::vector<std::jthread> threads;
    for (size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&cache, &q, &first_seen, t] {
        for (size_t i = 0; i < kLookupsPerThread; ++i) {
          auto plan = cache.GetPlan(q);
          ASSERT_TRUE(plan.ok());
          if (first_seen[t] == nullptr) {
            first_seen[t] = *plan;
          }
          // The pointer is stable: every lookup sees the same plan.
          EXPECT_EQ(*plan, first_seen[t]);
        }
      });
    }
  }

  // All threads raced on a cold cache, yet Build ran exactly once.
  EXPECT_EQ(cache.stats().plans_built, 1u);
  EXPECT_EQ(cache.stats().cache_hits, kThreads * kLookupsPerThread - 1);
  EXPECT_EQ(cache.size(), 1u);
  for (size_t t = 1; t < kThreads; ++t) {
    EXPECT_EQ(first_seen[t], first_seen[0]);
  }
}

TEST(SharedPlanCache, DistinctQueriesFromManyThreads) {
  SharedPlanCache cache;
  constexpr size_t kThreads = 4;
  constexpr size_t kQueries = 20;
  {
    std::vector<std::jthread> threads;
    for (size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&cache] {
        for (size_t i = 0; i < kQueries; ++i) {
          const std::string rel = "T" + std::to_string(i);
          auto plan = cache.GetPlan(ParseQueryOrDie(rel + "(A)"));
          ASSERT_TRUE(plan.ok());
        }
      });
    }
  }
  EXPECT_EQ(cache.size(), kQueries);
  EXPECT_EQ(cache.stats().plans_built, kQueries);
}

TEST(SharedPlanCache, NonHierarchicalFailsAndIsNotCached) {
  SharedPlanCache cache;
  const ConjunctiveQuery q = ParseQueryOrDie("R(A), S(A,B), T(B)");
  auto plan = cache.GetPlan(q);
  EXPECT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), StatusCode::kNotHierarchical);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(SharedPlanCache, ServesDelegatingEvaluators) {
  SharedPlanCache cache;
  const ConjunctiveQuery q = ParseQueryOrDie("R(A,B), S(A)");
  Database db;
  db.AddFactOrDie("R", MakeTuple({1, 2}));
  db.AddFactOrDie("S", MakeTuple({1}));
  const CountMonoid monoid;

  Evaluator a(&cache);
  Evaluator b(&cache);
  auto ra = a.Evaluate<CountMonoid>(q, monoid, db, OneAnnotator());
  auto rb = b.Evaluate<CountMonoid>(q, monoid, db, OneAnnotator());
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  EXPECT_EQ(*ra, *rb);
  // One build total, served to both evaluators; their local caches and
  // build counters stay empty.
  EXPECT_EQ(cache.stats().plans_built, 1u);
  EXPECT_EQ(cache.stats().cache_hits, 1u);
  EXPECT_EQ(a.num_cached_plans(), 0u);
  EXPECT_EQ(a.stats().plans_built, 0u);
}

// ------------------------------------------------------------ EvalService --

/// The benchmark-style query family over the paper query's relations:
/// heavy atom overlap, so batching has signatures to share.
std::vector<ConjunctiveQuery> QueryFamily() {
  std::vector<ConjunctiveQuery> out;
  for (const char* text : {
           "R(A,B), S(A,C), T(A,C,D)",
           "R(A,B), S(A,C)",
           "R(A,B)",
           "S(A,C), T(A,C,D)",
           "T(A,C,D)",
           "S(A,C)",
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

TEST(EvalService, BatchMatchesSingleThreadedEvaluator) {
  const std::vector<ConjunctiveQuery> queries = QueryFamily();
  Rng rng(11);
  DataGenOptions opts;
  opts.tuples_per_relation = 300;
  opts.domain_size = 40;
  const Database db =
      RandomDatabaseForQuery(ParseQueryOrDie("R(A,B), S(A,C), T(A,C,D)"),
                             rng, opts);
  const CountMonoid monoid;

  EvalService service(EvalService::Options{.num_workers = 4});
  const std::vector<Result<uint64_t>> batched =
      service.EvaluateMany<CountMonoid>(monoid, Pointers(queries), db,
                                        OneAnnotator());

  Evaluator reference;
  ASSERT_EQ(batched.size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    auto expected =
        reference.Evaluate<CountMonoid>(queries[i], monoid, db,
                                        OneAnnotator());
    ASSERT_TRUE(expected.ok());
    ASSERT_TRUE(batched[i].ok()) << queries[i].ToString();
    EXPECT_EQ(*batched[i], *expected) << queries[i].ToString();
  }
}

TEST(EvalService, SharesAnnotationPassesWithinAGroup) {
  const std::vector<ConjunctiveQuery> queries = QueryFamily();
  Database db;
  db.AddFactOrDie("R", MakeTuple({1, 2}));
  db.AddFactOrDie("S", MakeTuple({1, 3}));
  db.AddFactOrDie("T", MakeTuple({1, 3, 4}));
  const CountMonoid monoid;

  EvalService service(EvalService::Options{.num_workers = 2});
  auto results = service.EvaluateMany<CountMonoid>(monoid, Pointers(queries),
                                                   db, OneAnnotator());
  for (const auto& r : results) {
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(*r, 1u);
  }

  // The family holds 10 atoms over 3 distinct signatures — R(v0,v1),
  // S(v0,v1), T(v0,v1,v2) — so one group performs exactly 3 scans.
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.annotation_scans, 3u);
  EXPECT_EQ(stats.annotations_shared, 7u);
  EXPECT_EQ(stats.groups, 1u);
  EXPECT_EQ(stats.requests, queries.size());
  EXPECT_EQ(stats.plans_built, queries.size());
}

TEST(EvalService, NonHierarchicalQueriesFailIndividually) {
  const ConjunctiveQuery good = ParseQueryOrDie("R(A,B), S(A)");
  const ConjunctiveQuery bad = ParseQueryOrDie("R(A,B), S(A), U(B)");
  Database db;
  db.AddFactOrDie("R", MakeTuple({1, 2}));
  db.AddFactOrDie("S", MakeTuple({1}));
  db.AddFactOrDie("U", MakeTuple({2}));
  const CountMonoid monoid;

  EvalService service(EvalService::Options{.num_workers = 2});
  auto results = service.EvaluateMany<CountMonoid>(
      monoid, {&good, &bad, &good}, db, OneAnnotator());
  ASSERT_EQ(results.size(), 3u);
  ASSERT_TRUE(results[0].ok());
  EXPECT_EQ(*results[0], 1u);
  EXPECT_FALSE(results[1].ok());
  EXPECT_EQ(results[1].status().code(), StatusCode::kNotHierarchical);
  ASSERT_TRUE(results[2].ok());
  EXPECT_EQ(*results[2], 1u);
}

TEST(EvalService, AnnotationCacheServesRepeatBatchesWithoutRescanning) {
  const std::vector<ConjunctiveQuery> queries = QueryFamily();
  Database base;
  base.AddFactOrDie("R", MakeTuple({1, 2}));
  base.AddFactOrDie("S", MakeTuple({1, 3}));
  base.AddFactOrDie("T", MakeTuple({1, 3, 4}));
  VersionedDatabase db(std::move(base));
  const CountMonoid monoid;

  EvalService service(EvalService::Options{.num_workers = 2});
  auto first = service.EvaluateMany<CountMonoid>(monoid, Pointers(queries),
                                                 db, OneAnnotator(), "ones");
  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.annotation_scans, 3u);  // R, S, T — one pass each.
  EXPECT_EQ(stats.annotation_cache_hits, 0u);
  EXPECT_EQ(service.annotation_cache_size(), 1u);

  // Same database generation, same annotator id: zero new scans.
  auto second = service.EvaluateMany<CountMonoid>(monoid, Pointers(queries),
                                                  db, OneAnnotator(), "ones");
  stats = service.stats();
  EXPECT_EQ(stats.annotation_scans, 3u);
  EXPECT_EQ(stats.annotation_cache_hits, 1u);
  EXPECT_EQ(stats.annotation_cache_invalidations, 0u);
  ASSERT_EQ(second.size(), first.size());
  for (size_t i = 0; i < first.size(); ++i) {
    ASSERT_TRUE(first[i].ok() && second[i].ok());
    EXPECT_EQ(*first[i], *second[i]);
  }

  // A cached pool must also serve *new* queries by annotating only the
  // missing signatures.
  const ConjunctiveQuery extra = ParseQueryOrDie("U(A), R(A,B)");
  auto third = service.EvaluateMany<CountMonoid>(monoid, {&extra}, db,
                                                 OneAnnotator(), "ones");
  stats = service.stats();
  EXPECT_EQ(stats.annotation_scans, 4u);  // Only U was missing.
  EXPECT_EQ(stats.annotation_cache_hits, 2u);

  // Cached pools are shared; their entries must never be moved from.
  EXPECT_EQ(stats.singleton_moves, 0u);
}

TEST(EvalService, AnnotationCacheInvalidatesOnGenerationBump) {
  const std::vector<ConjunctiveQuery> queries = QueryFamily();
  Database base;
  base.AddFactOrDie("R", MakeTuple({1, 2}));
  base.AddFactOrDie("S", MakeTuple({1, 3}));
  base.AddFactOrDie("T", MakeTuple({1, 3, 4}));
  VersionedDatabase db(std::move(base));
  const CountMonoid monoid;

  EvalService service(EvalService::Options{.num_workers = 2});
  service.EvaluateMany<CountMonoid>(monoid, Pointers(queries), db,
                                    OneAnnotator(), "ones");
  ASSERT_EQ(service.stats().annotation_scans, 3u);

  // One applied DeltaBatch bumps the generation; the next batch must
  // rebuild the pool and see the new fact.
  DeltaBatch batch;
  batch.Insert("R", MakeTuple({1, 9}));
  db.Apply(batch);
  auto updated = service.EvaluateMany<CountMonoid>(monoid, Pointers(queries),
                                                   db, OneAnnotator(), "ones");
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.annotation_scans, 6u);
  EXPECT_EQ(stats.annotation_cache_invalidations, 1u);
  EXPECT_EQ(service.annotation_cache_size(), 1u);

  Evaluator reference;
  for (size_t i = 0; i < queries.size(); ++i) {
    auto expected = reference.Evaluate<CountMonoid>(queries[i], monoid,
                                                    db.facts(),
                                                    OneAnnotator());
    ASSERT_TRUE(expected.ok());
    ASSERT_TRUE(updated[i].ok());
    EXPECT_EQ(*updated[i], *expected) << queries[i].ToString();
  }

  // Distinct annotator ids never share pools.
  service.EvaluateMany<CountMonoid>(monoid, Pointers(queries), db,
                                    OneAnnotator(), "other");
  EXPECT_EQ(service.annotation_cache_size(), 2u);
  service.ClearAnnotationCache();
  EXPECT_EQ(service.annotation_cache_size(), 0u);
}

TEST(EvalService, AnnotationCacheEvictsLeastRecentlyUsedPastCapacity) {
  const std::vector<ConjunctiveQuery> queries = QueryFamily();
  const CountMonoid monoid;
  // Three distinct versioned databases, capacity two: the first-touched
  // entry must fall out when the third arrives.
  std::vector<std::unique_ptr<VersionedDatabase>> dbs;
  for (int d = 0; d < 3; ++d) {
    Database base;
    base.AddFactOrDie("R", MakeTuple({1, 2 + d}));
    base.AddFactOrDie("S", MakeTuple({1, 3}));
    base.AddFactOrDie("T", MakeTuple({1, 3, 4}));
    dbs.push_back(std::make_unique<VersionedDatabase>(std::move(base)));
  }

  EvalService::Options options;
  options.num_workers = 2;
  options.annotation_cache_max_entries = 2;
  EvalService service(options);

  service.EvaluateMany<CountMonoid>(monoid, Pointers(queries), *dbs[0],
                                    OneAnnotator(), "ones");
  service.EvaluateMany<CountMonoid>(monoid, Pointers(queries), *dbs[1],
                                    OneAnnotator(), "ones");
  EXPECT_EQ(service.annotation_cache_size(), 2u);
  EXPECT_EQ(service.stats().annotation_cache_evictions, 0u);

  // Touch db0 so db1 becomes the LRU victim, then insert db2.
  service.EvaluateMany<CountMonoid>(monoid, Pointers(queries), *dbs[0],
                                    OneAnnotator(), "ones");
  EXPECT_EQ(service.stats().annotation_cache_hits, 1u);
  service.EvaluateMany<CountMonoid>(monoid, Pointers(queries), *dbs[2],
                                    OneAnnotator(), "ones");
  ServiceStats stats = service.stats();
  EXPECT_EQ(service.annotation_cache_size(), 2u);
  EXPECT_EQ(stats.annotation_cache_evictions, 1u);

  // db0 survived (recently touched): serving it again is a hit with no
  // new scans. db1 was evicted: serving it re-scans its three relations.
  const size_t scans_before = stats.annotation_scans;
  service.EvaluateMany<CountMonoid>(monoid, Pointers(queries), *dbs[0],
                                    OneAnnotator(), "ones");
  EXPECT_EQ(service.stats().annotation_scans, scans_before);
  service.EvaluateMany<CountMonoid>(monoid, Pointers(queries), *dbs[1],
                                    OneAnnotator(), "ones");
  stats = service.stats();
  EXPECT_EQ(stats.annotation_scans, scans_before + 3);
  EXPECT_EQ(stats.annotation_cache_evictions, 2u);  // db2 fell out.
  EXPECT_EQ(service.annotation_cache_size(), 2u);

  // Results served through the bounded cache stay correct.
  Evaluator reference;
  auto results = service.EvaluateMany<CountMonoid>(
      monoid, Pointers(queries), *dbs[1], OneAnnotator(), "ones");
  for (size_t i = 0; i < queries.size(); ++i) {
    auto expected = reference.Evaluate<CountMonoid>(
        queries[i], monoid, dbs[1]->facts(), OneAnnotator());
    ASSERT_TRUE(expected.ok() && results[i].ok());
    EXPECT_EQ(*results[i], *expected);
  }
}

TEST(EvalService, AnnotationCacheUnboundedWhenMaxEntriesZero) {
  const std::vector<ConjunctiveQuery> queries = QueryFamily();
  const CountMonoid monoid;
  std::vector<std::unique_ptr<VersionedDatabase>> dbs;
  for (int d = 0; d < 5; ++d) {
    Database base;
    base.AddFactOrDie("R", MakeTuple({1, 2 + d}));
    dbs.push_back(std::make_unique<VersionedDatabase>(std::move(base)));
  }
  EvalService::Options options;
  options.num_workers = 2;
  options.annotation_cache_max_entries = 0;  // Unbounded.
  EvalService service(options);
  for (const auto& db : dbs) {
    service.EvaluateMany<CountMonoid>(monoid, Pointers(queries), *db,
                                      OneAnnotator(), "ones");
  }
  EXPECT_EQ(service.annotation_cache_size(), 5u);
  EXPECT_EQ(service.stats().annotation_cache_evictions, 0u);
}

TEST(EvalService, SingletonPoolEntriesMoveIntoWorkerScratch) {
  // Two queries over disjoint relations: every pool entry serves exactly
  // one query, so an anonymous (uncached) group adopts all of them.
  const ConjunctiveQuery q1 = ParseQueryOrDie("R(A,B), S(A)");
  const ConjunctiveQuery q2 = ParseQueryOrDie("U(A,B), V(A)");
  Database db;
  db.AddFactOrDie("R", MakeTuple({1, 2}));
  db.AddFactOrDie("R", MakeTuple({1, 3}));
  db.AddFactOrDie("S", MakeTuple({1}));
  db.AddFactOrDie("U", MakeTuple({4, 5}));
  db.AddFactOrDie("V", MakeTuple({4}));
  const CountMonoid monoid;

  EvalService service(EvalService::Options{.num_workers = 2});
  auto results = service.EvaluateMany<CountMonoid>(monoid, {&q1, &q2}, db,
                                                   OneAnnotator());
  ASSERT_TRUE(results[0].ok() && results[1].ok());
  EXPECT_EQ(*results[0], 2u);
  EXPECT_EQ(*results[1], 1u);
  EXPECT_EQ(service.stats().singleton_moves, 4u);

  // A shared signature (R(A,B) appears in both queries) must be copied,
  // not moved; the singletons still move.
  const ConjunctiveQuery q3 = ParseQueryOrDie("R(A,B)");
  results = service.EvaluateMany<CountMonoid>(monoid, {&q1, &q3}, db,
                                              OneAnnotator());
  ASSERT_TRUE(results[0].ok() && results[1].ok());
  EXPECT_EQ(*results[0], 2u);
  EXPECT_EQ(*results[1], 2u);
  EXPECT_EQ(service.stats().singleton_moves, 5u);  // +1: only S(A).
}

TEST(EvalService, StressManyClientThreadsQueriesAndDatabases) {
  // N client threads × M queries × K databases, all against one service;
  // every result must equal the single-threaded Evaluator's.
  const std::vector<ConjunctiveQuery> queries = QueryFamily();
  const ConjunctiveQuery schema_query =
      ParseQueryOrDie("R(A,B), S(A,C), T(A,C,D)");
  constexpr size_t kDatabases = 3;
  constexpr size_t kClients = 4;
  constexpr size_t kRoundsPerClient = 5;
  const CountMonoid monoid;

  std::vector<Database> databases;
  for (size_t k = 0; k < kDatabases; ++k) {
    Rng rng(100 + k);
    DataGenOptions opts;
    opts.tuples_per_relation = 150 + 50 * k;
    opts.domain_size = 25;
    databases.push_back(RandomDatabaseForQuery(schema_query, rng, opts));
  }

  // Reference results, computed single-threaded.
  std::vector<std::vector<uint64_t>> expected(kDatabases);
  Evaluator reference;
  for (size_t k = 0; k < kDatabases; ++k) {
    for (const ConjunctiveQuery& q : queries) {
      auto r = reference.Evaluate<CountMonoid>(q, monoid, databases[k],
                                               OneAnnotator());
      ASSERT_TRUE(r.ok());
      expected[k].push_back(*r);
    }
  }

  EvalService service(EvalService::Options{.num_workers = 4});
  std::atomic<size_t> mismatches{0};
  {
    std::vector<std::jthread> clients;
    for (size_t c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        for (size_t round = 0; round < kRoundsPerClient; ++round) {
          // Each client batches all databases in one EvaluateBatch call,
          // rotating which database leads so groups interleave.
          std::vector<BatchRequest<uint64_t>> batch;
          for (size_t k = 0; k < kDatabases; ++k) {
            BatchRequest<uint64_t> request;
            request.database = &databases[(k + c) % kDatabases];
            request.annotator = OneAnnotator();
            request.queries = Pointers(queries);
            batch.push_back(std::move(request));
          }
          auto results = service.EvaluateBatch<CountMonoid>(monoid, batch);
          for (size_t k = 0; k < kDatabases; ++k) {
            const size_t db_index = (k + c) % kDatabases;
            for (size_t i = 0; i < queries.size(); ++i) {
              if (!results[k].values[i].ok() ||
                  *results[k].values[i] != expected[db_index][i]) {
                mismatches.fetch_add(1);
              }
            }
          }
        }
      });
    }
  }
  EXPECT_EQ(mismatches.load(), 0u);

  // Plans were built once per distinct query text despite all the traffic.
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.plans_built, queries.size());
  EXPECT_EQ(stats.requests,
            kClients * kRoundsPerClient * kDatabases * queries.size());
}

// ---------------------------------------------------------- batch solvers --

TEST(BatchSolvers, CountBatchMatchesSingleQueryPath) {
  const std::vector<ConjunctiveQuery> queries = QueryFamily();
  Rng rng(21);
  DataGenOptions opts;
  opts.tuples_per_relation = 120;
  opts.domain_size = 16;
  const Database db = RandomDatabaseForQuery(
      ParseQueryOrDie("R(A,B), S(A,C), T(A,C,D)"), rng, opts);

  EvalService service(EvalService::Options{.num_workers = 3});
  auto batched = CountBatch(service, Pointers(queries), db);
  Evaluator reference;
  const CountMonoid monoid;
  for (size_t i = 0; i < queries.size(); ++i) {
    auto expected = reference.Evaluate<CountMonoid>(queries[i], monoid, db,
                                                    OneAnnotator());
    ASSERT_TRUE(batched[i].ok());
    EXPECT_EQ(*batched[i], *expected);
  }
}

TEST(BatchSolvers, PqeAndExpectationBatchesMatchSingleQueryPath) {
  const std::vector<ConjunctiveQuery> queries = QueryFamily();
  Rng rng(22);
  DataGenOptions opts;
  opts.tuples_per_relation = 60;
  opts.domain_size = 12;
  const TidDatabase db = RandomTidForQuery(
      ParseQueryOrDie("R(A,B), S(A,C), T(A,C,D)"), rng, opts);

  EvalService service(EvalService::Options{.num_workers = 3});
  auto probs = EvaluateProbabilityBatch(service, Pointers(queries), db);
  auto expects = ExpectedMultiplicityBatch(service, Pointers(queries), db);
  for (size_t i = 0; i < queries.size(); ++i) {
    auto p = EvaluateProbability(queries[i], db);
    auto e = ExpectedMultiplicity(queries[i], db);
    ASSERT_TRUE(probs[i].ok());
    ASSERT_TRUE(expects[i].ok());
    EXPECT_NEAR(*probs[i], *p, 1e-12) << queries[i].ToString();
    EXPECT_NEAR(*expects[i], *e, 1e-9) << queries[i].ToString();
  }
}

TEST(BatchSolvers, ResilienceBatchMatchesSingleQueryPath) {
  const std::vector<ConjunctiveQuery> queries = QueryFamily();
  Rng rng(23);
  DataGenOptions opts;
  opts.tuples_per_relation = 60;
  opts.domain_size = 10;
  const Database db = RandomDatabaseForQuery(
      ParseQueryOrDie("R(A,B), S(A,C), T(A,C,D)"), rng, opts);
  auto [exo, endo] = SplitExoEndo(db, rng, 0.7);

  EvalService service(EvalService::Options{.num_workers = 3});
  auto batched = ComputeResilienceBatch(service, Pointers(queries), exo, endo);
  for (size_t i = 0; i < queries.size(); ++i) {
    auto expected = ComputeResilience(queries[i], exo, endo);
    ASSERT_TRUE(batched[i].ok());
    EXPECT_EQ(*batched[i], *expected) << queries[i].ToString();
  }
}

TEST(BatchSolvers, ProvenanceBatchMatchesSingleQueryPath) {
  const std::vector<ConjunctiveQuery> queries = QueryFamily();
  Database db;
  db.AddFactOrDie("R", MakeTuple({1, 5}));
  db.AddFactOrDie("S", MakeTuple({1, 2}));
  db.AddFactOrDie("S", MakeTuple({1, 3}));
  db.AddFactOrDie("T", MakeTuple({1, 2, 4}));

  EvalService service(EvalService::Options{.num_workers = 3});
  auto batched = ComputeProvenanceBatch(service, Pointers(queries), db);
  for (size_t i = 0; i < queries.size(); ++i) {
    auto expected = ComputeProvenance(queries[i], db);
    ASSERT_TRUE(expected.ok());
    ASSERT_TRUE(batched[i].ok());
    // The pipeline is deterministic, so trees and fact tables must agree
    // exactly with the single-threaded path.
    EXPECT_EQ(batched[i]->tree->ToString(), expected->tree->ToString());
    EXPECT_EQ(batched[i]->facts.size(), expected->facts.size());
    for (size_t f = 0; f < expected->facts.size(); ++f) {
      EXPECT_EQ(batched[i]->facts[f], expected->facts[f]);
    }
  }
}

TEST(BatchSolvers, ServiceShapleyMatchesSingleThreaded) {
  const ConjunctiveQuery q = ParseQueryOrDie("R(A,B), S(A,C), T(A,C,D)");
  // The Figure 1 database: known values, Q flips false -> true.
  Database endo;
  endo.AddFactOrDie("R", MakeTuple({1, 5}));
  endo.AddFactOrDie("S", MakeTuple({1, 1}));
  endo.AddFactOrDie("S", MakeTuple({1, 2}));
  endo.AddFactOrDie("T", MakeTuple({1, 2, 4}));

  EvalService service(EvalService::Options{.num_workers = 4});
  auto parallel = AllShapleyValues(service, q, Database(), endo);
  auto serial = AllShapleyValues(q, Database(), endo);
  ASSERT_TRUE(parallel.ok());
  ASSERT_TRUE(serial.ok());
  ASSERT_EQ(parallel->size(), serial->size());
  Fraction sum;
  for (size_t i = 0; i < serial->size(); ++i) {
    EXPECT_EQ((*parallel)[i].first, (*serial)[i].first);
    EXPECT_EQ((*parallel)[i].second, (*serial)[i].second);
    sum += (*parallel)[i].second;
  }
  // Efficiency axiom: values sum to Q(D) - Q(empty) = 1.
  EXPECT_EQ(sum, Fraction(1));
}

TEST(BatchSolvers, ServiceShapleyFillsQueryStats) {
  // The fan-out's n+1 runs each fill their own collector; the caller's
  // stats get their summed steps and the fan-out's wall time.
  const ConjunctiveQuery q = ParseQueryOrDie("R(A,B), S(A,C), T(A,C,D)");
  Database endo;
  endo.AddFactOrDie("R", MakeTuple({1, 5}));
  endo.AddFactOrDie("S", MakeTuple({1, 1}));
  endo.AddFactOrDie("S", MakeTuple({1, 2}));
  endo.AddFactOrDie("T", MakeTuple({1, 2, 4}));
  auto plan = EliminationPlan::Build(q);
  ASSERT_TRUE(plan.ok());

  EvalService service(EvalService::Options{.num_workers = 4});
  obs::QueryStats stats;
  auto values =
      AllShapleyValues(service, q, Database(), endo, nullptr, &stats);
  ASSERT_TRUE(values.ok());
  EXPECT_GT(stats.exec_ns, 0u);
  EXPECT_EQ(stats.steps_total,
            (endo.NumFacts() + 1) * plan->steps().size());
  EXPECT_EQ(stats.steps_serial + stats.steps_parallel, stats.steps_total);
  EXPECT_GT(stats.cancel_checkpoints, 0u);
  EXPECT_FALSE(stats.plan_cache_hit);

  obs::QueryStats again;
  ASSERT_TRUE(
      AllShapleyValues(service, q, Database(), endo, nullptr, &again).ok());
  EXPECT_TRUE(again.plan_cache_hit);
  EXPECT_EQ(again.steps_total, stats.steps_total);
}

TEST(BatchSolvers, ServiceShapleyRejectsLargerRandomMismatch) {
  // A bigger random instance, still exact: parallel == serial everywhere.
  const ConjunctiveQuery q = ParseQueryOrDie("R(A,B), S(A,C), T(A,C,D)");
  Rng rng(31);
  DataGenOptions opts;
  opts.tuples_per_relation = 5;
  opts.domain_size = 6;
  const Database db = RandomDatabaseForQuery(q, rng, opts);
  auto [exo, endo] = SplitExoEndo(db, rng, 0.6);
  if (endo.NumFacts() == 0) {
    GTEST_SKIP() << "degenerate split";
  }

  EvalService service(EvalService::Options{.num_workers = 4});
  auto parallel = AllShapleyValues(service, q, exo, endo);
  auto serial = AllShapleyValues(q, exo, endo);
  ASSERT_TRUE(parallel.ok());
  ASSERT_TRUE(serial.ok());
  ASSERT_EQ(parallel->size(), serial->size());
  for (size_t i = 0; i < serial->size(); ++i) {
    EXPECT_EQ((*parallel)[i].second, (*serial)[i].second)
        << (*serial)[i].first.ToString();
  }
}

}  // namespace
}  // namespace hierarq
