// Tests for Probabilistic Query Evaluation (paper §5.4, Theorem 5.8).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "hierarq/core/pqe.h"
#include "hierarq/engine/bruteforce.h"
#include "hierarq/query/parser.h"
#include "hierarq/workload/data_gen.h"
#include "hierarq/workload/query_gen.h"

namespace hierarq {
namespace {

TEST(Pqe, SingleAtomSingleFact) {
  const ConjunctiveQuery q = ParseQueryOrDie("Q() :- R(A)");
  TidDatabase db;
  db.AddFactOrDie("R", MakeTuple({1}), 0.3);
  auto p = EvaluateProbability(q, db);
  ASSERT_TRUE(p.ok());
  EXPECT_DOUBLE_EQ(*p, 0.3);
}

TEST(Pqe, SingleAtomIsNoisyOr) {
  // Pr[∃A R(A)] = 1 - ∏ (1 - p_i).
  const ConjunctiveQuery q = ParseQueryOrDie("Q() :- R(A)");
  TidDatabase db;
  db.AddFactOrDie("R", MakeTuple({1}), 0.5);
  db.AddFactOrDie("R", MakeTuple({2}), 0.25);
  db.AddFactOrDie("R", MakeTuple({3}), 0.8);
  auto p = EvaluateProbability(q, db);
  ASSERT_TRUE(p.ok());
  EXPECT_NEAR(*p, 1.0 - 0.5 * 0.75 * 0.2, 1e-12);
}

TEST(Pqe, IndependentConjunctionMultiplies) {
  // Q() :- R(A), S(B): Pr = Pr[∃R] * Pr[∃S].
  const ConjunctiveQuery q = ParseQueryOrDie("Q() :- R(A), S(B)");
  TidDatabase db;
  db.AddFactOrDie("R", MakeTuple({1}), 0.5);
  db.AddFactOrDie("S", MakeTuple({1}), 0.5);
  db.AddFactOrDie("S", MakeTuple({2}), 0.5);
  auto p = EvaluateProbability(q, db);
  ASSERT_TRUE(p.ok());
  EXPECT_NEAR(*p, 0.5 * 0.75, 1e-12);
}

TEST(Pqe, DeterministicFactsGiveBooleanSemantics) {
  // With all probabilities in {0, 1}, Pr[Q] = [Q true on the certain DB].
  const ConjunctiveQuery q = MakePaperQuery();
  TidDatabase db;
  db.AddFactOrDie("R", MakeTuple({1, 5}), 1.0);
  db.AddFactOrDie("S", MakeTuple({1, 2}), 1.0);
  db.AddFactOrDie("T", MakeTuple({1, 2, 4}), 1.0);
  db.AddFactOrDie("T", MakeTuple({2, 2, 4}), 0.0);
  auto p = EvaluateProbability(q, db);
  ASSERT_TRUE(p.ok());
  EXPECT_DOUBLE_EQ(*p, 1.0);
}

TEST(Pqe, EmptyDatabaseIsZero) {
  auto p = EvaluateProbability(MakePaperQuery(), TidDatabase{});
  ASSERT_TRUE(p.ok());
  EXPECT_DOUBLE_EQ(*p, 0.0);
}

TEST(Pqe, NonHierarchicalRejected) {
  TidDatabase db;
  db.AddFactOrDie("R", MakeTuple({1}), 0.5);
  auto p = EvaluateProbability(MakeQnh(), db);
  ASSERT_FALSE(p.ok());
  EXPECT_EQ(p.status().code(), StatusCode::kNotHierarchical);
}

TEST(Pqe, ProbabilityIsAlwaysAUnitIntervalValue) {
  Rng rng(555);
  for (int round = 0; round < 40; ++round) {
    RandomHierarchicalOptions qopts;
    qopts.num_variables = 1 + static_cast<size_t>(rng.UniformInt(0, 5));
    const ConjunctiveQuery q = MakeRandomHierarchical(rng, qopts);
    DataGenOptions dopts;
    dopts.tuples_per_relation = 30;
    dopts.domain_size = 5;
    const TidDatabase db = RandomTidForQuery(q, rng, dopts);
    auto p = EvaluateProbability(q, db);
    ASSERT_TRUE(p.ok());
    EXPECT_GE(*p, 0.0);
    EXPECT_LE(*p, 1.0 + 1e-12);
  }
}

class PqeBruteForceParam : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PqeBruteForceParam, MatchesPossibleWorlds) {
  // The heart of Theorem 5.8: on random hierarchical instances small
  // enough to enumerate, Algorithm 1's probability equals the
  // possible-worlds sum exactly.
  Rng rng(GetParam());
  for (int round = 0; round < 12; ++round) {
    RandomHierarchicalOptions qopts;
    qopts.num_variables = 1 + static_cast<size_t>(rng.UniformInt(0, 3));
    const ConjunctiveQuery q = MakeRandomHierarchical(rng, qopts);
    if (q.num_atoms() > 4) {
      continue;
    }
    DataGenOptions dopts;
    dopts.tuples_per_relation = 3;
    dopts.domain_size = 3;
    const TidDatabase db = RandomTidForQuery(q, rng, dopts, 0.1, 0.9);
    if (db.NumFacts() > 14) {
      continue;
    }
    auto fast = EvaluateProbability(q, db);
    ASSERT_TRUE(fast.ok()) << q.ToString();
    const double slow = BruteForcePqe(q, db);
    EXPECT_NEAR(*fast, slow, 1e-10) << q.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PqeBruteForceParam,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88,
                                           99, 110));

TEST(Pqe, PaperQueryHandComputed) {
  // Q() :- R(A,B), S(A,C), T(A,C,D) over one A-group:
  //   Pr = p_R * (1 - (1 - p_S1·p_T1)(1 - p_S2·p_T2)).
  const ConjunctiveQuery q = MakePaperQuery();
  TidDatabase db;
  db.AddFactOrDie("R", MakeTuple({1, 5}), 0.9);
  db.AddFactOrDie("S", MakeTuple({1, 1}), 0.5);
  db.AddFactOrDie("S", MakeTuple({1, 2}), 0.6);
  db.AddFactOrDie("T", MakeTuple({1, 1, 4}), 0.7);
  db.AddFactOrDie("T", MakeTuple({1, 2, 9}), 0.8);
  auto p = EvaluateProbability(q, db);
  ASSERT_TRUE(p.ok());
  const double expected = 0.9 * (1 - (1 - 0.5 * 0.7) * (1 - 0.6 * 0.8));
  EXPECT_NEAR(*p, expected, 1e-12);
}

TEST(Pqe, TwoIndependentAGroups) {
  // Groups a=1 and a=2 combine with noisy-or at the top level (Eq. (9)).
  const ConjunctiveQuery q = ParseQueryOrDie("Q() :- R(A,B), S(A,C)");
  TidDatabase db;
  db.AddFactOrDie("R", MakeTuple({1, 1}), 0.5);
  db.AddFactOrDie("S", MakeTuple({1, 1}), 0.5);
  db.AddFactOrDie("R", MakeTuple({2, 1}), 0.5);
  db.AddFactOrDie("S", MakeTuple({2, 1}), 0.5);
  auto p = EvaluateProbability(q, db);
  ASSERT_TRUE(p.ok());
  EXPECT_NEAR(*p, 1 - (1 - 0.25) * (1 - 0.25), 1e-12);
}

TEST(Pqe, SmallProbabilitiesKeepRelativePrecision) {
  // 1,000 independent keys, each satisfied with probability 2^-60
  // (R(a,1) and S(a) at 2^-30 each). Computing ⊕ as 1 − (1−p1)(1−p2)
  // rounds every 1 − 2^-60 to 1 and answers 0. The exact answer,
  // 1 − (1 − 2^-60)^1000, is within 5e-16 (relative) of 1000·2^-60.
  const ConjunctiveQuery q = ParseQueryOrDie("Q() :- R(A,B), S(A)");
  const double p = std::ldexp(1.0, -30);
  TidDatabase db;
  for (int64_t a = 0; a < 1000; ++a) {
    db.AddFactOrDie("R", MakeTuple({a, 1}), p);
    db.AddFactOrDie("S", MakeTuple({a}), p);
  }
  auto result = EvaluateProbability(q, db);
  ASSERT_TRUE(result.ok());
  const double expected = 1000.0 * std::ldexp(1.0, -60);
  EXPECT_LE(std::fabs(*result - expected), 1e-13 * expected)
      << "Pr[Q] = " << *result << ", expected about " << expected;
}

}  // namespace
}  // namespace hierarq
