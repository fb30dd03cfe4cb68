// Tests for #Sat and Shapley value computation (paper §5.6, Theorem 5.16).

#include <gtest/gtest.h>

#include <optional>

#include "hierarq/core/shapley.h"
#include "hierarq/engine/bruteforce.h"
#include "hierarq/engine/join.h"
#include "hierarq/query/parser.h"
#include "hierarq/service/batch_solvers.h"
#include "hierarq/service/eval_service.h"
#include "hierarq/workload/data_gen.h"
#include "hierarq/workload/query_gen.h"

namespace hierarq {
namespace {

TEST(CountSat, SingleAtomHandComputed) {
  // Q() :- R(A) with Dn = {R(1), R(2), R(3)}, Dx = ∅:
  // every non-empty subset satisfies Q: #Sat(k) = C(3,k) for k ≥ 1.
  const ConjunctiveQuery q = ParseQueryOrDie("Q() :- R(A)");
  Database endo;
  endo.AddFactOrDie("R", MakeTuple({1}));
  endo.AddFactOrDie("R", MakeTuple({2}));
  endo.AddFactOrDie("R", MakeTuple({3}));
  auto counts = CountSat(q, Database{}, endo);
  ASSERT_TRUE(counts.ok());
  ASSERT_EQ(counts->size(), 4u);
  EXPECT_EQ((*counts)[0], BigUint(0));
  EXPECT_EQ((*counts)[1], BigUint(3));
  EXPECT_EQ((*counts)[2], BigUint(3));
  EXPECT_EQ((*counts)[3], BigUint(1));
}

TEST(CountSat, BothPolaritiesSumToBinomial) {
  Rng rng(10);
  for (int round = 0; round < 15; ++round) {
    RandomHierarchicalOptions qopts;
    qopts.num_variables = 1 + static_cast<size_t>(rng.UniformInt(0, 3));
    const ConjunctiveQuery q = MakeRandomHierarchical(rng, qopts);
    DataGenOptions dopts;
    dopts.tuples_per_relation = 4;
    dopts.domain_size = 3;
    const Database db = RandomDatabaseForQuery(q, rng, dopts);
    const auto [exo, endo] = SplitExoEndo(db, rng, 0.7);
    auto both = CountSatBoth(q, exo, endo);
    ASSERT_TRUE(both.ok());
    const size_t n = endo.NumFacts();
    for (size_t k = 0; k <= n; ++k) {
      EXPECT_EQ(both->on_true[k] + both->on_false[k],
                BigUint::Binomial(n, k))
          << q.ToString() << " k=" << k;
    }
  }
}

class CountSatBruteForceParam : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CountSatBruteForceParam, MatchesSubsetEnumeration) {
  Rng rng(GetParam());
  for (int round = 0; round < 8; ++round) {
    RandomHierarchicalOptions qopts;
    qopts.num_variables = 1 + static_cast<size_t>(rng.UniformInt(0, 3));
    const ConjunctiveQuery q = MakeRandomHierarchical(rng, qopts);
    DataGenOptions dopts;
    dopts.tuples_per_relation = 4;
    dopts.domain_size = 3;
    const Database db = RandomDatabaseForQuery(q, rng, dopts);
    const auto [exo, endo] = SplitExoEndo(db, rng, 0.6);
    if (endo.NumFacts() > 14) {
      continue;
    }
    auto fast = CountSatBoth(q, exo, endo);
    ASSERT_TRUE(fast.ok()) << q.ToString();
    const BruteForceSatCounts slow = BruteForceCountSat(q, exo, endo);
    EXPECT_EQ(fast->on_true, slow.on_true) << q.ToString();
    EXPECT_EQ(fast->on_false, slow.on_false) << q.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CountSatBruteForceParam,
                         ::testing::Values(3, 6, 9, 12, 15, 18, 21, 24));

TEST(Shapley, SingleFactTakesAllCredit) {
  // Dn = {R(1)}, Dx = ∅, Q() :- R(A): the only fact always flips Q.
  const ConjunctiveQuery q = ParseQueryOrDie("Q() :- R(A)");
  Database endo;
  endo.AddFactOrDie("R", MakeTuple({1}));
  auto value = ShapleyValue(q, Database{}, endo, Fact{"R", MakeTuple({1})});
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(*value, Fraction(1));
}

TEST(Shapley, TwoSymmetricFactsSplitCredit) {
  const ConjunctiveQuery q = ParseQueryOrDie("Q() :- R(A)");
  Database endo;
  endo.AddFactOrDie("R", MakeTuple({1}));
  endo.AddFactOrDie("R", MakeTuple({2}));
  for (const Fact& f : endo.AllFacts()) {
    auto value = ShapleyValue(q, Database{}, endo, f);
    ASSERT_TRUE(value.ok());
    EXPECT_EQ(*value, Fraction::Of(1, 2));
  }
}

TEST(Shapley, NullPlayerGetsZero) {
  // A fact that can never participate in a satisfying assignment has
  // Shapley value 0 (the null-player axiom).
  const ConjunctiveQuery q = ParseQueryOrDie("Q() :- R(A), S(A)");
  Database exo;
  exo.AddFactOrDie("R", MakeTuple({1}));
  Database endo;
  endo.AddFactOrDie("S", MakeTuple({1}));
  endo.AddFactOrDie("S", MakeTuple({99}));  // No matching R(99): useless.
  auto useless =
      ShapleyValue(q, exo, endo, Fact{"S", MakeTuple({99})});
  ASSERT_TRUE(useless.ok());
  EXPECT_EQ(*useless, Fraction(0));
  auto useful = ShapleyValue(q, exo, endo, Fact{"S", MakeTuple({1})});
  ASSERT_TRUE(useful.ok());
  EXPECT_EQ(*useful, Fraction(1));
}

TEST(Shapley, EfficiencyAxiom) {
  // Σ_f Shapley(f) = Q(Dx ∪ Dn) − Q(Dx) (as 0/1 values).
  Rng rng(20);
  for (int round = 0; round < 15; ++round) {
    RandomHierarchicalOptions qopts;
    qopts.num_variables = 1 + static_cast<size_t>(rng.UniformInt(0, 3));
    const ConjunctiveQuery q = MakeRandomHierarchical(rng, qopts);
    DataGenOptions dopts;
    dopts.tuples_per_relation = 3;
    dopts.domain_size = 3;
    const Database db = RandomDatabaseForQuery(q, rng, dopts);
    const auto [exo, endo] = SplitExoEndo(db, rng, 0.6);
    if (endo.NumFacts() == 0) {
      continue;
    }
    auto all = AllShapleyValues(q, exo, endo);
    ASSERT_TRUE(all.ok()) << q.ToString();
    Fraction sum;
    for (const auto& [fact, value] : *all) {
      EXPECT_GE(value, Fraction(0));
      EXPECT_LE(value, Fraction(1));
      sum += value;
    }
    auto full = exo.UnionWith(endo);
    ASSERT_TRUE(full.ok());
    const int expected = static_cast<int>(EvaluateBoolean(q, *full)) -
                         static_cast<int>(EvaluateBoolean(q, exo));
    EXPECT_EQ(sum, Fraction(expected)) << q.ToString();
  }
}

class ShapleyBruteForceParam : public ::testing::TestWithParam<uint64_t> {};

// Every entry point (one fact, all facts serially, all facts fanned out
// over a service) against the subset brute force, fact by fact. The
// benchmark's reference answers come from AllShapleyValues itself, so
// this is what guards the |Dn|+1-run identity.
TEST_P(ShapleyBruteForceParam, MatchesSubsetFormula) {
  Rng rng(GetParam() * 31 + 5);
  EvalService service(EvalService::Options{.num_workers = 4});
  bool copied_into_exo = false;
  for (int round = 0; round < 6; ++round) {
    RandomHierarchicalOptions qopts;
    qopts.num_variables = 1 + static_cast<size_t>(rng.UniformInt(0, 2));
    const ConjunctiveQuery q = MakeRandomHierarchical(rng, qopts);
    DataGenOptions dopts;
    dopts.tuples_per_relation = 3;
    dopts.domain_size = 2;
    const Database db = RandomDatabaseForQuery(q, rng, dopts);
    auto [exo, endo] = SplitExoEndo(db, rng, 0.7);
    if (endo.NumFacts() == 0 || endo.NumFacts() > 10) {
      continue;
    }
    const std::vector<Fact> facts = endo.AllFacts();
    // Once per seed, a fact in both Dx and Dn: its endogenous copy can
    // never change Q, so its value is 0.
    std::optional<Fact> in_both;
    if (!copied_into_exo) {
      in_both = facts.front();
      exo.AddFactOrDie(in_both->relation, in_both->tuple);
      copied_into_exo = true;
    }
    auto serial = AllShapleyValues(q, exo, endo);
    auto pooled = AllShapleyValues(service, q, exo, endo);
    ASSERT_TRUE(serial.ok()) << q.ToString();
    ASSERT_TRUE(pooled.ok()) << q.ToString();
    ASSERT_EQ(serial->size(), facts.size());
    ASSERT_EQ(pooled->size(), facts.size());
    for (size_t i = 0; i < facts.size(); ++i) {
      const Fact& f = facts[i];
      auto fast = ShapleyValue(q, exo, endo, f);
      ASSERT_TRUE(fast.ok()) << q.ToString();
      const Fraction slow = BruteForceShapleySubsets(q, exo, endo, f);
      EXPECT_EQ(*fast, slow) << q.ToString() << " fact=" << f.ToString();
      EXPECT_EQ((*serial)[i].first, f);
      EXPECT_EQ((*serial)[i].second, slow)
          << q.ToString() << " fact=" << f.ToString();
      EXPECT_EQ((*pooled)[i].first, f);
      EXPECT_EQ((*pooled)[i].second, slow)
          << q.ToString() << " fact=" << f.ToString();
      if (in_both == f) {
        EXPECT_EQ(slow, Fraction(0)) << q.ToString();
      }
    }
  }
  EXPECT_TRUE(copied_into_exo);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShapleyBruteForceParam,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

TEST(Shapley, AllValuesCostOneRunPerFactPlusOne) {
  // One #Sat(Dx, Dn) run serves every fact; each fact adds one
  // #Sat(Dx, Dn \ {f}) run.
  const ConjunctiveQuery q = MakePaperQuery();
  Database exo;
  exo.AddFactOrDie("S", MakeTuple({1, 2}));
  Database endo;
  endo.AddFactOrDie("R", MakeTuple({1, 5}));
  endo.AddFactOrDie("R", MakeTuple({1, 6}));
  endo.AddFactOrDie("S", MakeTuple({1, 1}));
  endo.AddFactOrDie("T", MakeTuple({1, 2, 4}));
  endo.AddFactOrDie("T", MakeTuple({1, 2, 9}));
  Evaluator evaluator;
  const size_t before = evaluator.stats().evaluations;
  auto values = AllShapleyValues(evaluator, q, exo, endo);
  ASSERT_TRUE(values.ok());
  EXPECT_EQ(values->size(), endo.NumFacts());
  EXPECT_EQ(evaluator.stats().evaluations - before, endo.NumFacts() + 1);
}

TEST(Shapley, MatchesPermutationDefinition) {
  // Validate the whole reduction chain against Definition 5.12 verbatim
  // (permutation enumeration) on a small instance.
  const ConjunctiveQuery q = MakePaperQuery();
  Database exo;
  exo.AddFactOrDie("S", MakeTuple({1, 2}));
  Database endo;
  endo.AddFactOrDie("R", MakeTuple({1, 5}));
  endo.AddFactOrDie("R", MakeTuple({1, 6}));
  endo.AddFactOrDie("T", MakeTuple({1, 2, 4}));
  endo.AddFactOrDie("T", MakeTuple({1, 2, 9}));
  for (const Fact& f : endo.AllFacts()) {
    auto fast = ShapleyValue(q, exo, endo, f);
    ASSERT_TRUE(fast.ok());
    const Fraction perm = BruteForceShapleyPermutations(q, exo, endo, f);
    const Fraction subs = BruteForceShapleySubsets(q, exo, endo, f);
    EXPECT_EQ(perm, subs) << f.ToString();
    EXPECT_EQ(*fast, perm) << f.ToString();
  }
}

TEST(Shapley, SymmetricFactsGetEqualValues) {
  // R(1,5) and R(1,6) are exchangeable in the paper query.
  const ConjunctiveQuery q = MakePaperQuery();
  Database exo;
  exo.AddFactOrDie("S", MakeTuple({1, 2}));
  Database endo;
  endo.AddFactOrDie("R", MakeTuple({1, 5}));
  endo.AddFactOrDie("R", MakeTuple({1, 6}));
  endo.AddFactOrDie("T", MakeTuple({1, 2, 4}));
  auto v1 = ShapleyValue(q, exo, endo, Fact{"R", MakeTuple({1, 5})});
  auto v2 = ShapleyValue(q, exo, endo, Fact{"R", MakeTuple({1, 6})});
  ASSERT_TRUE(v1.ok());
  ASSERT_TRUE(v2.ok());
  EXPECT_EQ(*v1, *v2);
}

TEST(Shapley, NonEndogenousFactRejected) {
  const ConjunctiveQuery q = ParseQueryOrDie("Q() :- R(A)");
  Database endo;
  endo.AddFactOrDie("R", MakeTuple({1}));
  auto bad = ShapleyValue(q, Database{}, endo, Fact{"R", MakeTuple({9})});
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

TEST(Shapley, NonHierarchicalRejected) {
  Database endo;
  endo.AddFactOrDie("R", MakeTuple({1}));
  auto bad =
      ShapleyValue(MakeQnh(), Database{}, endo, Fact{"R", MakeTuple({1})});
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kNotHierarchical);
}

TEST(Shapley, IrrelevantEndogenousFactsAreHandled) {
  // Endogenous facts whose relation does not appear in the query dilute
  // permutations but must not change the relative values' correctness —
  // validated against brute force.
  const ConjunctiveQuery q = ParseQueryOrDie("Q() :- R(A)");
  Database endo;
  endo.AddFactOrDie("R", MakeTuple({1}));
  endo.AddFactOrDie("Z", MakeTuple({7}));  // Not in the query.
  const Fact r1{"R", MakeTuple({1})};
  auto fast = ShapleyValue(q, Database{}, endo, r1);
  ASSERT_TRUE(fast.ok());
  EXPECT_EQ(*fast, BruteForceShapleySubsets(q, Database{}, endo, r1));
  EXPECT_EQ(*fast, Fraction(1));
  const Fact z{"Z", MakeTuple({7})};
  auto zero = ShapleyValue(q, Database{}, endo, z);
  ASSERT_TRUE(zero.ok());
  EXPECT_EQ(*zero, Fraction(0));
}

TEST(CountSat, LargeEndogenousSetNeedsBigIntegers) {
  // 80 independent facts: counts reach C(80, 40) ≈ 10^23 > 2^64. The
  // result must match the binomial exactly — this is why BigUint exists.
  const ConjunctiveQuery q = ParseQueryOrDie("Q() :- R(A)");
  Database endo;
  for (int i = 0; i < 80; ++i) {
    endo.AddFactOrDie("R", MakeTuple({i}));
  }
  auto counts = CountSat(q, Database{}, endo);
  ASSERT_TRUE(counts.ok());
  for (size_t k = 1; k <= 80; ++k) {
    EXPECT_EQ((*counts)[k], BigUint::Binomial(80, k));
  }
  EXPECT_EQ((*counts)[40].ToString(), BigUint::Binomial(80, 40).ToString());
  EXPECT_GT(BigUint::Binomial(80, 40), BigUint(~uint64_t{0}));
}

}  // namespace
}  // namespace hierarq
