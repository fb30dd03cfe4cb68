// Cross-backend differential harness: both storage backends behind
// `AnnotatedRelation` (baseline std::unordered_map and columnar) must
// produce the same answers for every solver on the same instance.
//
// The harness drives the workload generators (random hierarchical queries
// + random databases, fully seeded) through every backend for
// count, PQE, resilience, and Shapley, over hundreds of instances, and
// asserts:
//   * bit-identical results where the monoid's ⊕/⊗ are exactly
//     associative-commutative (counting, resilience min/plus, exact
//     Fraction Shapley values) — backend iteration order cannot matter;
//   * tiny-relative-error agreement for the floating-point monoids (PQE,
//     expected multiplicity): the backends visit supports in different
//     orders, and double addition is not associative, so the last few
//     ulps may legitimately differ.
// Edge cases get dedicated instances: empty and missing base relations,
// duplicate-key (bag) merges, and single-fact supports.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "hierarq/hierarq.h"

namespace hierarq {
namespace {

uint64_t CountWith(StorageKind kind, const ConjunctiveQuery& q,
                   const Database& db) {
  Evaluator evaluator(kind);
  auto result = evaluator.Evaluate<CountMonoid>(
      q, CountMonoid{}, db, [](const Fact&) -> uint64_t { return 1; });
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result.ok() ? *result : 0;
}

// Relative-or-absolute closeness for the floating monoids.
void ExpectClose(double a, double b) {
  const double scale = std::max({1.0, std::fabs(a), std::fabs(b)});
  EXPECT_NEAR(a, b, 1e-11 * scale);
}

// Removes every fact of `relation` from a copy of `db` — produces the
// "base relation entirely absent" edge case for one atom.
Database DropRelation(const Database& db, const std::string& relation) {
  Database out;
  for (const Fact& fact : db.AllFacts()) {
    if (fact.relation != relation) {
      out.AddFactOrDie(fact.relation, fact.tuple);
    }
  }
  return out;
}

ConjunctiveQuery RandomQuery(Rng& rng) {
  RandomHierarchicalOptions opts;
  opts.num_variables = 1 + static_cast<size_t>(rng.UniformInt(0, 4));
  opts.num_roots = 1 + static_cast<size_t>(rng.UniformInt(0, 1));
  return MakeRandomHierarchical(rng, opts);
}

// ---------------------------------------------------------------- count --

TEST(StorageDifferential, CountAgreesAcrossBackendsOnRandomInstances) {
  size_t instances = 0;
  for (uint64_t seed = 0; seed < 80; ++seed) {
    Rng rng(1000 + seed);
    const ConjunctiveQuery q = RandomQuery(rng);
    DataGenOptions dopts;
    // Includes 0 (all relations empty) and 1 (single-fact supports).
    dopts.tuples_per_relation = static_cast<size_t>(rng.UniformInt(0, 50));
    dopts.domain_size = 2 + static_cast<size_t>(rng.UniformInt(0, 14));
    const Database db = RandomDatabaseForQuery(q, rng, dopts);

    const uint64_t reference = CountWith(StorageKind::kBaseline, q, db);
    for (StorageKind kind : kAllStorageKinds) {
      EXPECT_EQ(CountWith(kind, q, db), reference)
          << "seed=" << seed << " storage=" << StorageKindName(kind)
          << " query=" << q.ToString();
    }
    // The join engine cross-checks the whole family on small instances.
    if (db.NumFacts() <= 60) {
      EXPECT_EQ(reference, BagSetCount(q, db)) << "seed=" << seed;
    }
    ++instances;

    // Variant: first atom's base relation missing entirely.
    const Database dropped = DropRelation(db, q.atoms()[0].relation());
    const uint64_t dropped_reference =
        CountWith(StorageKind::kBaseline, q, dropped);
    EXPECT_EQ(dropped_reference, 0u);  // An empty conjunct kills Q().
    for (StorageKind kind : kAllStorageKinds) {
      EXPECT_EQ(CountWith(kind, q, dropped), dropped_reference)
          << "seed=" << seed << " storage=" << StorageKindName(kind);
    }
    ++instances;
  }
  EXPECT_GE(instances, 160u);
}

// ------------------------------------------------------ duplicate merges --

TEST(StorageDifferential, BagAnnotationsMergeIdenticallyAcrossBackends) {
  // Set databases cannot produce duplicate annotated keys, so bag inputs
  // are simulated the way AnnotateAtom's contract allows: annotating the
  // same relation multiple times into one output with ⊕ as the combiner.
  for (uint64_t seed = 0; seed < 20; ++seed) {
    Rng rng(7000 + seed);
    const ConjunctiveQuery q = RandomQuery(rng);
    DataGenOptions dopts;
    dopts.tuples_per_relation = 1 + static_cast<size_t>(rng.UniformInt(0, 20));
    dopts.domain_size = 2 + static_cast<size_t>(rng.UniformInt(0, 6));
    const Database db = RandomDatabaseForQuery(q, rng, dopts);
    const size_t multiplicity = 2 + static_cast<size_t>(seed % 3);

    auto plan = EliminationPlan::Build(q);
    ASSERT_TRUE(plan.ok());
    const CountMonoid monoid;
    const auto annotator =
        std::function<uint64_t(const Fact&)>([](const Fact&) { return 1; });
    const auto plus = [](uint64_t a, uint64_t b) { return a + b; };

    std::optional<uint64_t> reference;
    for (StorageKind kind : kAllStorageKinds) {
      AnnotatedDatabase<uint64_t> annotated;
      annotated.relations.reserve(q.num_atoms());
      for (const Atom& atom : q.atoms()) {
        AnnotatedRelation<uint64_t> rel(atom.vars(), kind);
        const Relation* relation = db.FindRelation(atom.relation());
        if (relation != nullptr) {
          for (size_t copy = 0; copy < multiplicity; ++copy) {
            AnnotateAtom<uint64_t>(atom, *relation, annotator, plus, &rel);
          }
        }
        annotated.relations.push_back(std::move(rel));
      }
      const uint64_t value =
          RunAlgorithm1(*plan, monoid, std::move(annotated));
      if (!reference.has_value()) {
        reference = value;
      }
      EXPECT_EQ(value, *reference)
          << "seed=" << seed << " storage=" << StorageKindName(kind);
    }
  }
}

// ------------------------------------------------------------------- PQE --

TEST(StorageDifferential, ProbabilityAgreesAcrossBackends) {
  for (uint64_t seed = 0; seed < 60; ++seed) {
    Rng rng(2000 + seed);
    const ConjunctiveQuery q = RandomQuery(rng);
    DataGenOptions dopts;
    dopts.tuples_per_relation = static_cast<size_t>(rng.UniformInt(0, 40));
    dopts.domain_size = 2 + static_cast<size_t>(rng.UniformInt(0, 10));
    const TidDatabase tid = RandomTidForQuery(q, rng, dopts);

    Evaluator baseline(StorageKind::kBaseline);
    auto reference = EvaluateProbability(baseline, q, tid);
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    for (StorageKind kind : kAllStorageKinds) {
      Evaluator evaluator(kind);
      auto result = EvaluateProbability(evaluator, q, tid);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      ExpectClose(*result, *reference);

      auto expectation = ExpectedMultiplicity(evaluator, q, tid);
      auto expectation_reference = ExpectedMultiplicity(baseline, q, tid);
      ASSERT_TRUE(expectation.ok() && expectation_reference.ok());
      ExpectClose(*expectation, *expectation_reference);
    }
  }
}

// ------------------------------------------------------------ resilience --

TEST(StorageDifferential, ResilienceIsBitIdenticalAcrossBackends) {
  for (uint64_t seed = 0; seed < 60; ++seed) {
    Rng rng(3000 + seed);
    const ConjunctiveQuery q = RandomQuery(rng);
    DataGenOptions dopts;
    dopts.tuples_per_relation = static_cast<size_t>(rng.UniformInt(0, 30));
    dopts.domain_size = 2 + static_cast<size_t>(rng.UniformInt(0, 8));
    const Database db = RandomDatabaseForQuery(q, rng, dopts);
    const auto [exo, endo] = SplitExoEndo(db, rng, 0.7);

    Evaluator baseline(StorageKind::kBaseline);
    auto reference = ComputeResilience(baseline, q, exo, endo);
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    for (StorageKind kind : kAllStorageKinds) {
      Evaluator evaluator(kind);
      auto result = ComputeResilience(evaluator, q, exo, endo);
      ASSERT_TRUE(result.ok());
      EXPECT_EQ(*result, *reference)
          << "seed=" << seed << " storage=" << StorageKindName(kind)
          << " query=" << q.ToString();
    }
  }
}

// --------------------------------------------------------------- Shapley --

TEST(StorageDifferential, ShapleyValuesAreBitIdenticalAcrossBackends) {
  // Exact Fractions (BigUint #Sat counts), so equality is exact; the
  // instances stay small because each runs |Dn|+1 Algorithm 1 passes.
  for (uint64_t seed = 0; seed < 24; ++seed) {
    Rng rng(4000 + seed);
    const ConjunctiveQuery q = RandomQuery(rng);
    DataGenOptions dopts;
    dopts.tuples_per_relation = 1 + static_cast<size_t>(rng.UniformInt(0, 3));
    dopts.domain_size = 2 + static_cast<size_t>(rng.UniformInt(0, 2));
    const Database db = RandomDatabaseForQuery(q, rng, dopts);
    const auto [exo, endo] = SplitExoEndo(db, rng, 0.6);

    Evaluator baseline(StorageKind::kBaseline);
    auto reference = AllShapleyValues(baseline, q, exo, endo);
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    for (StorageKind kind : kAllStorageKinds) {
      Evaluator evaluator(kind);
      auto result = AllShapleyValues(evaluator, q, exo, endo);
      ASSERT_TRUE(result.ok());
      ASSERT_EQ(result->size(), reference->size());
      for (size_t i = 0; i < result->size(); ++i) {
        EXPECT_EQ((*result)[i].first, (*reference)[i].first);
        EXPECT_TRUE((*result)[i].second == (*reference)[i].second)
            << "seed=" << seed << " storage=" << StorageKindName(kind)
            << " fact #" << i << ": " << (*result)[i].second.ToString()
            << " vs " << (*reference)[i].second.ToString();
      }
    }
  }
}

// ------------------------------------------------------- service batches --

TEST(StorageDifferential, ServiceBatchesMatchSingleThreadedPerBackend) {
  // The service path adds shared annotation pools + AssignFrom replay on
  // worker scratch; its answers must match the direct evaluator for every
  // backend (and therefore across backends, by the tests above).
  Rng rng(5000);
  std::vector<ConjunctiveQuery> queries;
  for (int i = 0; i < 12; ++i) {
    queries.push_back(RandomQuery(rng));
  }
  std::vector<const ConjunctiveQuery*> query_ptrs;
  for (const ConjunctiveQuery& q : queries) {
    query_ptrs.push_back(&q);
  }
  DataGenOptions dopts;
  dopts.tuples_per_relation = 30;
  dopts.domain_size = 8;
  // One database covering all queries' relations: union per-query draws.
  Database db;
  for (const ConjunctiveQuery& q : queries) {
    const Database part = RandomDatabaseForQuery(q, rng, dopts);
    for (const Fact& fact : part.AllFacts()) {
      // Queries may reuse a relation name at a different arity; such
      // additions fail and are deliberately skipped.
      auto added = db.AddFact(fact.relation, fact.tuple);
      (void)added;
    }
  }

  for (StorageKind kind : kAllStorageKinds) {
    EvalService service(
        EvalService::Options{.num_workers = 4, .storage = kind});
    EXPECT_EQ(service.storage(), kind);
    const auto batch = CountBatch(service, query_ptrs, db);
    ASSERT_EQ(batch.size(), queries.size());
    for (size_t i = 0; i < queries.size(); ++i) {
      ASSERT_TRUE(batch[i].ok()) << batch[i].status().ToString();
      EXPECT_EQ(*batch[i], CountWith(kind, queries[i], db))
          << "storage=" << StorageKindName(kind)
          << " query=" << queries[i].ToString();
    }
  }
}

}  // namespace
}  // namespace hierarq
