#include "hierarq/core/shapley.h"

#include <utility>

#include "hierarq/algebra/satcount_monoid.h"

namespace hierarq {

namespace {

struct RawSatCount {
  SatCountVec<BigUint> vec;
  size_t relevant_endogenous = 0;  ///< m = |Dn[F]| (★-annotated facts).
};

/// Runs Algorithm 1 with the #Sat monoid. The raw output counts subsets of
/// Dn[F] — the endogenous facts that actually occur in the query's lineage
/// (Eq. (21)); facts of Dn that match no atom (wrong relation, constant
/// mismatch, or shadowed by an identical exogenous fact) are irrelevant and
/// are accounted for by the caller via a binomial expansion.
Result<RawSatCount> RunSatCount(Evaluator& evaluator,
                                const ConjunctiveQuery& query,
                                const Database& exogenous,
                                const Database& endogenous) {
  const size_t n = endogenous.NumFacts();
  const SatCountMonoid<BigUint> monoid(n);

  HIERARQ_ASSIGN_OR_RETURN(Database combined,
                           exogenous.UnionWith(endogenous));
  size_t relevant = 0;
  HIERARQ_ASSIGN_OR_RETURN(
      SatCountVec<BigUint> vec,
      (evaluator.Evaluate<SatCountMonoid<BigUint>>(
          query, monoid, combined,
          [&](const Fact& fact) -> SatCountVec<BigUint> {
            // Definition 5.15: exogenous facts are always present (1);
            // endogenous facts toggle (★). A fact in both is treated as
            // exogenous — its endogenous copy cannot change the query.
            if (exogenous.ContainsFact(fact)) {
              return monoid.One();
            }
            ++relevant;
            return monoid.Star();
          })));
  return RawSatCount{std::move(vec), relevant};
}

}  // namespace

Result<SatCounts> CountSatBoth(Evaluator& evaluator,
                               const ConjunctiveQuery& query,
                               const Database& exogenous,
                               const Database& endogenous) {
  const size_t n = endogenous.NumFacts();
  HIERARQ_ASSIGN_OR_RETURN(
      RawSatCount raw, RunSatCount(evaluator, query, exogenous, endogenous));
  const size_t m = raw.relevant_endogenous;
  HIERARQ_CHECK_LE(m, n);

  // Expand counts over subsets of Dn[F] (m facts) to counts over subsets
  // of Dn (n facts): the n−m irrelevant facts can be added freely without
  // affecting the query, so
  //   #Sat(k, b) = Σ_j raw(j, b) · binomial(n−m, k−j).
  SatCounts out;
  out.on_true.assign(n + 1, BigUint(0));
  out.on_false.assign(n + 1, BigUint(0));
  for (size_t k = 0; k <= n; ++k) {
    for (size_t j = 0; j <= k && j <= m; ++j) {
      const BigUint choices = BigUint::Binomial(n - m, k - j);
      if (choices.IsZero()) {
        continue;
      }
      out.on_true[k] += raw.vec.on_true[j] * choices;
      out.on_false[k] += raw.vec.on_false[j] * choices;
    }
  }
  return out;
}

Result<SatCounts> CountSatBoth(const ConjunctiveQuery& query,
                               const Database& exogenous,
                               const Database& endogenous) {
  Evaluator evaluator;
  return CountSatBoth(evaluator, query, exogenous, endogenous);
}

Result<std::vector<BigUint>> CountSat(Evaluator& evaluator,
                                      const ConjunctiveQuery& query,
                                      const Database& exogenous,
                                      const Database& endogenous) {
  HIERARQ_ASSIGN_OR_RETURN(
      SatCounts both, CountSatBoth(evaluator, query, exogenous, endogenous));
  return std::move(both.on_true);
}

Result<std::vector<BigUint>> CountSat(const ConjunctiveQuery& query,
                                      const Database& exogenous,
                                      const Database& endogenous) {
  Evaluator evaluator;
  return CountSat(evaluator, query, exogenous, endogenous);
}

Result<std::vector<BigUint>> CountSatWithout(Evaluator& evaluator,
                                             const ConjunctiveQuery& query,
                                             const Database& exogenous,
                                             const Database& endogenous,
                                             const Fact& fact) {
  Database endo_minus = endogenous;
  endo_minus.EraseFact(fact);
  return CountSat(evaluator, query, exogenous, endo_minus);
}

Result<Fraction> ShapleyValue(Evaluator& evaluator,
                              const ConjunctiveQuery& query,
                              const Database& exogenous,
                              const Database& endogenous, const Fact& fact) {
  if (!endogenous.ContainsFact(fact)) {
    return Status::InvalidArgument("Shapley value requested for a fact that "
                                   "is not endogenous: " + fact.ToString());
  }
  HIERARQ_ASSIGN_OR_RETURN(std::vector<BigUint> full,
                           CountSat(evaluator, query, exogenous, endogenous));
  std::vector<std::vector<BigUint>> without(1);
  HIERARQ_ASSIGN_OR_RETURN(
      without.front(),
      CountSatWithout(evaluator, query, exogenous, endogenous, fact));
  return std::move(ShapleyFromSatCounts(full, without).front());
}

Result<Fraction> ShapleyValue(const ConjunctiveQuery& query,
                              const Database& exogenous,
                              const Database& endogenous, const Fact& fact) {
  Evaluator evaluator;
  return ShapleyValue(evaluator, query, exogenous, endogenous, fact);
}

Result<std::vector<std::pair<Fact, Fraction>>> AllShapleyValues(
    Evaluator& evaluator, const ConjunctiveQuery& query,
    const Database& exogenous, const Database& endogenous) {
  const std::vector<Fact> facts = endogenous.AllFacts();
  std::vector<std::pair<Fact, Fraction>> out;
  if (facts.empty()) {
    return out;
  }
  HIERARQ_ASSIGN_OR_RETURN(std::vector<BigUint> full,
                           CountSat(evaluator, query, exogenous, endogenous));
  std::vector<std::vector<BigUint>> without;
  without.reserve(facts.size());
  for (const Fact& fact : facts) {
    HIERARQ_ASSIGN_OR_RETURN(
        std::vector<BigUint> without_f,
        CountSatWithout(evaluator, query, exogenous, endogenous, fact));
    without.push_back(std::move(without_f));
  }
  std::vector<Fraction> values = ShapleyFromSatCounts(full, without);
  out.reserve(facts.size());
  for (size_t i = 0; i < facts.size(); ++i) {
    out.emplace_back(facts[i], std::move(values[i]));
  }
  return out;
}

Result<std::vector<std::pair<Fact, Fraction>>> AllShapleyValues(
    const ConjunctiveQuery& query, const Database& exogenous,
    const Database& endogenous) {
  Evaluator evaluator;
  return AllShapleyValues(evaluator, query, exogenous, endogenous);
}

std::vector<Fraction> ShapleyFromSatCounts(
    const std::vector<BigUint>& full,
    const std::vector<std::vector<BigUint>>& without) {
  HIERARQ_CHECK(!full.empty());
  const size_t n = full.size() - 1;
  // factorial[i] = i!, so weight k is factorial[k] · factorial[n−k−1].
  std::vector<BigUint> factorial(n + 1, BigUint(1));
  for (size_t i = 1; i <= n; ++i) {
    factorial[i] = factorial[i - 1] * BigUint(i);
  }
  std::vector<BigInt> weights;
  weights.reserve(n);
  for (size_t k = 0; k < n; ++k) {
    weights.emplace_back(factorial[k] * factorial[n - k - 1]);
  }
  const BigInt denominator(factorial[n]);

  std::vector<Fraction> out;
  out.reserve(without.size());
  for (const std::vector<BigUint>& without_f : without) {
    HIERARQ_CHECK_EQ(without_f.size(), n);
    // Σ_k k!(n−k−1)! (full(k+1) − without_f(k+1) − without_f(k)), over
    // denominator n!; without_f(n) is 0.
    BigInt numerator(0);
    for (size_t k = 0; k < n; ++k) {
      BigInt delta = BigInt(full[k + 1]) - BigInt(without_f[k]);
      if (k + 1 < n) {
        delta -= BigInt(without_f[k + 1]);
      }
      numerator += weights[k] * delta;
    }
    out.emplace_back(numerator, denominator);
  }
  return out;
}

}  // namespace hierarq
