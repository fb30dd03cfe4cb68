// Property tests for the 2-monoid laws (paper Definition 5.6) across all
// instantiations, plus the paper's key structural observation: the three
// problem monoids (and resilience) are NOT distributive, while the classic
// semiring adapters are.

#include <gtest/gtest.h>

#include "hierarq/algebra/bagmax_monoid.h"
#include "hierarq/algebra/prob_monoid.h"
#include "hierarq/algebra/provenance.h"
#include "hierarq/algebra/resilience_monoid.h"
#include "hierarq/algebra/satcount_monoid.h"
#include "hierarq/algebra/semirings.h"
#include "hierarq/algebra/two_monoid.h"
#include "hierarq/util/random.h"

namespace hierarq {
namespace {

// Generic law checks. Equality via a comparator because double needs a
// tolerance.
template <typename M, typename Gen, typename Eq>
void CheckTwoMonoidLaws(const M& monoid, Gen gen, Eq eq, int rounds) {
  static_assert(TwoMonoid<M>);
  for (int i = 0; i < rounds; ++i) {
    const auto a = gen();
    const auto b = gen();
    const auto c = gen();
    // (K, ⊕) commutative monoid with identity 0.
    EXPECT_TRUE(eq(monoid.Plus(a, b), monoid.Plus(b, a)));
    EXPECT_TRUE(eq(monoid.Plus(monoid.Plus(a, b), c),
                   monoid.Plus(a, monoid.Plus(b, c))));
    EXPECT_TRUE(eq(monoid.Plus(a, monoid.Zero()), a));
    EXPECT_TRUE(eq(monoid.Plus(monoid.Zero(), a), a));
    // (K, ⊗) commutative monoid with identity 1.
    EXPECT_TRUE(eq(monoid.Times(a, b), monoid.Times(b, a)));
    EXPECT_TRUE(eq(monoid.Times(monoid.Times(a, b), c),
                   monoid.Times(a, monoid.Times(b, c))));
    EXPECT_TRUE(eq(monoid.Times(a, monoid.One()), a));
    EXPECT_TRUE(eq(monoid.Times(monoid.One(), a), a));
  }
  // 0 ⊗ 0 = 0.
  EXPECT_TRUE(eq(monoid.Times(monoid.Zero(), monoid.Zero()), monoid.Zero()));
}

TEST(ProbMonoid, Laws) {
  Rng rng(1);
  const ProbMonoid m;
  CheckTwoMonoidLaws(
      m, [&rng] { return rng.UniformDouble(); },
      [](double x, double y) { return std::abs(x - y) < 1e-12; }, 300);
}

TEST(ProbMonoid, MatchesIndependentEventSemantics) {
  const ProbMonoid m;
  EXPECT_DOUBLE_EQ(m.Times(0.5, 0.5), 0.25);
  EXPECT_DOUBLE_EQ(m.Plus(0.5, 0.5), 0.75);
  EXPECT_DOUBLE_EQ(m.Plus(1.0, 0.3), 1.0);
  EXPECT_DOUBLE_EQ(m.Times(1.0, 0.3), 0.3);
}

TEST(ProbMonoid, NotDistributive) {
  // The paper (§2): p1 ⊗ (p2 ⊕ p3) ≠ (p1⊗p2) ⊕ (p1⊗p3) in general.
  const ProbMonoid m;
  const double p1 = 0.5;
  const double p2 = 0.5;
  const double p3 = 0.5;
  const double lhs = m.Times(p1, m.Plus(p2, p3));
  const double rhs = m.Plus(m.Times(p1, p2), m.Times(p1, p3));
  EXPECT_GT(std::abs(lhs - rhs), 0.05);  // 0.375 vs 0.4375.
}

BagMaxVec RandomBagMaxVec(Rng& rng, const BagMaxMonoid& m) {
  // Random *monotone* vector — the domain of Definition 5.9.
  BagMaxVec v(m.vector_length());
  uint64_t acc = static_cast<uint64_t>(rng.UniformInt(0, 3));
  for (auto& entry : v) {
    acc += static_cast<uint64_t>(rng.UniformInt(0, 4));
    entry = acc;
  }
  return v;
}

TEST(BagMaxMonoid, Laws) {
  Rng rng(2);
  for (size_t budget : {0, 1, 3, 7}) {
    const BagMaxMonoid m(budget);
    CheckTwoMonoidLaws(
        m, [&rng, &m] { return RandomBagMaxVec(rng, m); },
        [](const BagMaxVec& x, const BagMaxVec& y) { return x == y; }, 150);
  }
}

TEST(BagMaxMonoid, OperatorsMatchDefinition) {
  // Eq. (10)/(11) hand-computed on budget 2.
  const BagMaxMonoid m(2);
  const BagMaxVec x{1, 3, 4};
  const BagMaxVec y{2, 2, 5};
  // Plus: z[0]=1+2=3; z[1]=max(1+2,3+2)=5; z[2]=max(1+5,3+2,4+2)=6.
  EXPECT_EQ(m.Plus(x, y), (BagMaxVec{3, 5, 6}));
  // Times: z[0]=2; z[1]=max(1*2,3*2)=6; z[2]=max(1*5,3*2,4*2)=8.
  EXPECT_EQ(m.Times(x, y), (BagMaxVec{2, 6, 8}));
}

TEST(BagMaxMonoid, PreservesMonotonicity) {
  Rng rng(3);
  const BagMaxMonoid m(5);
  for (int i = 0; i < 200; ++i) {
    const BagMaxVec x = RandomBagMaxVec(rng, m);
    const BagMaxVec y = RandomBagMaxVec(rng, m);
    EXPECT_TRUE(BagMaxMonoid::IsMonotone(m.Plus(x, y)));
    EXPECT_TRUE(BagMaxMonoid::IsMonotone(m.Times(x, y)));
  }
}

TEST(BagMaxMonoid, StarAndCostVectors) {
  const BagMaxMonoid m(3);
  EXPECT_EQ(m.Star(), (BagMaxVec{0, 1, 1, 1}));
  EXPECT_EQ(m.FromCost(0), m.One());
  EXPECT_EQ(m.FromCost(1), m.Star());
  EXPECT_EQ(m.FromCost(3), (BagMaxVec{0, 0, 0, 1}));
  EXPECT_EQ(m.FromCost(9), m.Zero());  // Unaffordable.
}

TEST(BagMaxMonoid, NotDistributive) {
  // ★ ⊗ (1 ⊕ 1) ≠ (★⊗1) ⊕ (★⊗1) at budget 2:
  // lhs = ★ ⊗ (2,2,2) = (0,2,2); rhs = ★ ⊕ ★ = (0,1,2).
  const BagMaxMonoid m(2);
  const BagMaxVec star = m.Star();
  const BagMaxVec one = m.One();
  const auto lhs = m.Times(star, m.Plus(one, one));
  const auto rhs = m.Plus(m.Times(star, one), m.Times(star, one));
  EXPECT_EQ(lhs, (BagMaxVec{0, 2, 2}));
  EXPECT_EQ(rhs, (BagMaxVec{0, 1, 2}));
  EXPECT_NE(lhs, rhs);
}

TEST(BagMaxMonoid, SaturationDetection) {
  const BagMaxMonoid m(1);
  const uint64_t huge = ~uint64_t{0} - 1;
  const BagMaxVec x{huge, huge};
  EXPECT_FALSE(BagMaxMonoid::Saturated(x));
  EXPECT_TRUE(BagMaxMonoid::Saturated(m.Plus(x, x)));
  EXPECT_TRUE(BagMaxMonoid::Saturated(m.Times(x, x)));
  EXPECT_EQ(SatAddU64(huge, huge), ~uint64_t{0});
  EXPECT_EQ(SatMulU64(huge, 2), ~uint64_t{0});
  EXPECT_EQ(SatMulU64(2, 3), 6u);
}

// A random vector that is zero above a random support (0 = all zero up
// to vector_length() = dense), so the laws also run on operands whose
// supports differ — the case the support-bounded convolutions skip.
template <typename Count>
SatCountVec<Count> RandomSatVec(Rng& rng, const SatCountMonoid<Count>& m) {
  SatCountVec<Count> v;
  v.on_false.resize(m.vector_length(), Count(0));
  v.on_true.resize(m.vector_length(), Count(0));
  const size_t support = static_cast<size_t>(
      rng.UniformInt(0, static_cast<int64_t>(m.vector_length())));
  for (size_t i = 0; i < support; ++i) {
    v.on_false[i] = Count(static_cast<uint64_t>(rng.UniformInt(0, 5)));
    v.on_true[i] = Count(static_cast<uint64_t>(rng.UniformInt(0, 5)));
  }
  return v;
}

// Eqs. (15)/(16) verbatim: every index pair of the full-length vectors,
// truncated at vector_length(). `disjunction` picks Plus (true ← any
// true) or Times (true ← both true).
template <typename Count>
SatCountVec<Count> NaiveConvolution(const SatCountVec<Count>& x,
                                    const SatCountVec<Count>& y,
                                    bool disjunction) {
  const size_t length = x.on_false.size();
  SatCountVec<Count> out;
  out.on_false.assign(length, Count(0));
  out.on_true.assign(length, Count(0));
  for (size_t k1 = 0; k1 < length; ++k1) {
    for (size_t k2 = 0; k1 + k2 < length; ++k2) {
      const Count ff = x.on_false[k1] * y.on_false[k2];
      const Count ft = x.on_false[k1] * y.on_true[k2];
      const Count tf = x.on_true[k1] * y.on_false[k2];
      const Count tt = x.on_true[k1] * y.on_true[k2];
      if (disjunction) {
        out.on_false[k1 + k2] += ff;
        out.on_true[k1 + k2] += ft + tf + tt;
      } else {
        out.on_false[k1 + k2] += ff + ft + tf;
        out.on_true[k1 + k2] += tt;
      }
    }
  }
  return out;
}

template <typename Count>
void CheckAgainstNaiveConvolution(uint64_t seed) {
  Rng rng(seed);
  for (size_t n : {0, 1, 2, 5, 12}) {
    const SatCountMonoid<Count> m(n);
    for (int round = 0; round < 60; ++round) {
      const SatCountVec<Count> x = RandomSatVec(rng, m);
      const SatCountVec<Count> y = RandomSatVec(rng, m);
      EXPECT_EQ(m.Plus(x, y), NaiveConvolution(x, y, /*disjunction=*/true))
          << "n=" << n << " x=" << m.ToString(x) << " y=" << m.ToString(y);
      EXPECT_EQ(m.Times(x, y), NaiveConvolution(x, y, /*disjunction=*/false))
          << "n=" << n << " x=" << m.ToString(x) << " y=" << m.ToString(y);
    }
  }
}

TEST(SatCountMonoid, MatchesNaiveConvolutionUint64) {
  CheckAgainstNaiveConvolution<uint64_t>(41);
}

TEST(SatCountMonoid, MatchesNaiveConvolutionBigUint) {
  CheckAgainstNaiveConvolution<BigUint>(42);
}

TEST(SatCountMonoid, LawsUint64) {
  Rng rng(4);
  for (size_t n : {0, 1, 2, 5}) {
    const SatCountMonoid<uint64_t> m(n);
    CheckTwoMonoidLaws(
        m, [&rng, &m] { return RandomSatVec(rng, m); },
        [](const SatCountVec<uint64_t>& x, const SatCountVec<uint64_t>& y) {
          return x == y;
        },
        150);
  }
}

TEST(SatCountMonoid, LawsBigUint) {
  Rng rng(5);
  const SatCountMonoid<BigUint> m(3);
  CheckTwoMonoidLaws(
      m, [&rng, &m] { return RandomSatVec(rng, m); },
      [](const SatCountVec<BigUint>& x, const SatCountVec<BigUint>& y) {
        return x == y;
      },
      60);
}

TEST(SatCountMonoid, NoAnnihilation) {
  // The paper remarks a ⊗ 0 ≠ 0: conjunction with "absent" stays counted
  // on the false side.
  const SatCountMonoid<uint64_t> m(2);
  const auto star = m.Star();
  const auto product = m.Times(star, m.Zero());
  EXPECT_NE(product, m.Zero());
  // star ⊗ 0: the k=1 "true" mass moves to "false" (conjunction with an
  // absent fact is false but the subset still exists).
  EXPECT_EQ(product.on_false[1], 1u);
  EXPECT_EQ(product.on_true[1], 0u);
}

TEST(SatCountMonoid, IdentitiesMatchDefinition) {
  const SatCountMonoid<uint64_t> m(2);
  const auto zero = m.Zero();
  EXPECT_EQ(zero.on_false[0], 1u);
  EXPECT_EQ(zero.on_true[0], 0u);
  const auto one = m.One();
  EXPECT_EQ(one.on_true[0], 1u);
  EXPECT_EQ(one.on_false[0], 0u);
  const auto star = m.Star();
  EXPECT_EQ(star.on_false[0], 1u);
  EXPECT_EQ(star.on_true[1], 1u);
}

TEST(SatCountMonoid, StarPowersCountSubsets) {
  // ★ ⊕ ★ ⊕ ... (n stars, i.e. n independent endogenous facts under a
  // disjunction) has total mass C(n, k) at size k.
  const size_t n = 6;
  const SatCountMonoid<uint64_t> m(n);
  auto acc = m.Zero();
  for (size_t i = 0; i < n; ++i) {
    acc = m.Plus(acc, m.Star());
  }
  for (size_t k = 0; k <= n; ++k) {
    EXPECT_EQ(acc.on_true[k] + acc.on_false[k],
              BigUint::Binomial(n, k).Low64());
    // Disjunction is false only for the empty choice.
    EXPECT_EQ(acc.on_false[k], k == 0 ? 1u : 0u);
  }
}

TEST(SatCountMonoid, NotDistributive) {
  const SatCountMonoid<uint64_t> m(3);
  const auto s = m.Star();
  const auto lhs = m.Times(s, m.Plus(s, s));
  const auto rhs = m.Plus(m.Times(s, s), m.Times(s, s));
  EXPECT_NE(lhs, rhs);
}

TEST(ResilienceMonoid, Laws) {
  Rng rng(6);
  const ResilienceMonoid m;
  CheckTwoMonoidLaws(
      m,
      [&rng]() -> uint64_t {
        if (rng.Bernoulli(0.2)) {
          return ResilienceMonoid::kInfinity;
        }
        return static_cast<uint64_t>(rng.UniformInt(0, 20));
      },
      [](uint64_t x, uint64_t y) { return x == y; }, 300);
}

TEST(ResilienceMonoid, Semantics) {
  const ResilienceMonoid m;
  EXPECT_EQ(m.Plus(2, 3), 5u);                         // Falsify both.
  EXPECT_EQ(m.Times(2, 3), 2u);                        // Cheaper conjunct.
  EXPECT_EQ(m.Plus(2, ResilienceMonoid::kInfinity),
            ResilienceMonoid::kInfinity);
  EXPECT_EQ(m.Times(2, ResilienceMonoid::kInfinity), 2u);
}

TEST(ResilienceMonoid, NotDistributive) {
  const ResilienceMonoid m;
  // min(a, b+c) vs min(a,b) + min(a,c) with a=1,b=1,c=1: 1 vs 2.
  EXPECT_NE(m.Times(1, m.Plus(1, 1)), m.Plus(m.Times(1, 1), m.Times(1, 1)));
}

TEST(Semirings, BoolLawsAndDistributivity) {
  Rng rng(7);
  const BoolMonoid m;
  CheckTwoMonoidLaws(
      m, [&rng] { return rng.Bernoulli(0.5); },
      [](bool x, bool y) { return x == y; }, 100);
  for (bool a : {false, true}) {
    for (bool b : {false, true}) {
      for (bool c : {false, true}) {
        EXPECT_EQ(m.Times(a, m.Plus(b, c)),
                  m.Plus(m.Times(a, b), m.Times(a, c)));
      }
    }
  }
}

TEST(Semirings, CountLawsAndDistributivity) {
  Rng rng(8);
  const CountMonoid m;
  auto gen = [&rng]() -> uint64_t {
    return static_cast<uint64_t>(rng.UniformInt(0, 1000));
  };
  CheckTwoMonoidLaws(
      m, gen, [](uint64_t x, uint64_t y) { return x == y; }, 300);
  for (int i = 0; i < 300; ++i) {
    const uint64_t a = gen();
    const uint64_t b = gen();
    const uint64_t c = gen();
    EXPECT_EQ(m.Times(a, m.Plus(b, c)),
              m.Plus(m.Times(a, b), m.Times(a, c)));
  }
}

TEST(Semirings, TropicalLawsAndDistributivity) {
  Rng rng(9);
  const TropicalMonoid m;
  auto gen = [&rng]() -> double {
    if (rng.Bernoulli(0.1)) {
      return std::numeric_limits<double>::infinity();
    }
    return static_cast<double>(rng.UniformInt(0, 50));
  };
  CheckTwoMonoidLaws(
      m, gen, [](double x, double y) { return x == y; }, 300);
  for (int i = 0; i < 300; ++i) {
    const double a = gen();
    const double b = gen();
    const double c = gen();
    EXPECT_EQ(m.Times(a, m.Plus(b, c)),
              m.Plus(m.Times(a, b), m.Times(a, c)));
  }
}

TEST(CountingMonoid, CountsOperations) {
  const CountingMonoid<CountMonoid> m{CountMonoid{}};
  EXPECT_EQ(m.total_count(), 0u);
  (void)m.Plus(1, 2);
  (void)m.Plus(1, 2);
  (void)m.Times(1, 2);
  EXPECT_EQ(m.plus_count(), 2u);
  EXPECT_EQ(m.times_count(), 1u);
  EXPECT_EQ(m.total_count(), 3u);
  m.ResetCounts();
  EXPECT_EQ(m.total_count(), 0u);
}

}  // namespace
}  // namespace hierarq
