#ifndef HIERARQ_CORE_SHAPLEY_H_
#define HIERARQ_CORE_SHAPLEY_H_

/// \file shapley.h
/// \brief #Sat computation and Shapley values of facts
/// (paper §5.6, Theorem 5.16).
///
/// #Sat_{Q,Dx,Dn}(k) counts the size-k subsets D' ⊆ Dn with Q(Dx ∪ D')
/// true (Definition 5.13). Algorithm 1 computes the whole vector at once
/// with the #Sat 2-monoid (Definition 5.14): exogenous facts are annotated
/// 1, endogenous facts ★ (Definition 5.15). Shapley values then follow
/// from the Livshits–Bertossi–Kimelfeld–Sebag reduction (the displayed
/// equation after Definition 5.13):
///
///   Shapley(f) = Σ_{k=0}^{n-1} k!(n-k-1)!/n! ·
///                ( #Sat_{Q, Dx∪{f}, Dn\{f}}(k) − #Sat_{Q, Dx, Dn\{f}}(k) )
///
/// with n = |Dn|. Splitting the size-(k+1) subsets of Dn on whether they
/// contain f gives #Sat_{Q,Dx,Dn}(k+1) = #Sat_{Q,Dx∪{f},Dn\{f}}(k) +
/// #Sat_{Q,Dx,Dn\{f}}(k+1), so with full = #Sat_{Q,Dx,Dn} and
/// without_f = #Sat_{Q,Dx,Dn\{f}} (n entries; without_f(n) reads as 0):
///
///   Shapley(f) = Σ_{k=0}^{n-1} k!(n-k-1)!/n! ·
///                ( full(k+1) − without_f(k+1) − without_f(k) )
///
/// One `full` run serves every fact, so all n values cost n+1 Algorithm 1
/// runs. Counts use exact BigUint arithmetic; Shapley values are exact
/// `Fraction`s (denominator n!).

/// Every entry point has an `Evaluator&` overload that amortizes the plan
/// build and relation buffers across Algorithm 1 invocations — the
/// all-facts Shapley computation runs Algorithm 1 |Dn|+1 times on the same
/// query, so it reuses one evaluator throughout.

#include <vector>

#include "hierarq/core/evaluator.h"
#include "hierarq/data/database.h"
#include "hierarq/query/query.h"
#include "hierarq/util/bigint.h"
#include "hierarq/util/fraction.h"
#include "hierarq/util/result.h"

namespace hierarq {

/// The full #Sat vector: counts[k] = #Sat_{Q,Dx,Dn}(k) for k = 0..|Dn|.
/// Exact (BigUint) counts.
Result<std::vector<BigUint>> CountSat(const ConjunctiveQuery& query,
                                      const Database& exogenous,
                                      const Database& endogenous);
Result<std::vector<BigUint>> CountSat(Evaluator& evaluator,
                                      const ConjunctiveQuery& query,
                                      const Database& exogenous,
                                      const Database& endogenous);

/// #Sat_{Q,Dx,Dn\{fact}}: the per-fact run of the Shapley solvers, with
/// |Dn| entries when `fact` is endogenous.
Result<std::vector<BigUint>> CountSatWithout(Evaluator& evaluator,
                                             const ConjunctiveQuery& query,
                                             const Database& exogenous,
                                             const Database& endogenous,
                                             const Fact& fact);

/// Both polarity vectors: counts of subsets making Q true and false.
/// Their sum at k is binomial(|Dn|, k) — an identity the tests rely on.
struct SatCounts {
  std::vector<BigUint> on_true;
  std::vector<BigUint> on_false;
};
Result<SatCounts> CountSatBoth(const ConjunctiveQuery& query,
                               const Database& exogenous,
                               const Database& endogenous);
Result<SatCounts> CountSatBoth(Evaluator& evaluator,
                               const ConjunctiveQuery& query,
                               const Database& exogenous,
                               const Database& endogenous);

/// The Shapley value of endogenous fact `fact`, exact.
/// Fails kInvalidArgument when `fact` is not endogenous.
Result<Fraction> ShapleyValue(const ConjunctiveQuery& query,
                              const Database& exogenous,
                              const Database& endogenous, const Fact& fact);
Result<Fraction> ShapleyValue(Evaluator& evaluator,
                              const ConjunctiveQuery& query,
                              const Database& exogenous,
                              const Database& endogenous, const Fact& fact);

/// Shapley values of all endogenous facts, in `endogenous.AllFacts()`
/// order, from |Dn|+1 Algorithm 1 runs (none when Dn is empty). (Their sum
/// equals Q(D) − Q(Dx) ∈ {0, 1} — the efficiency axiom — which the tests
/// verify.)
Result<std::vector<std::pair<Fact, Fraction>>> AllShapleyValues(
    const ConjunctiveQuery& query, const Database& exogenous,
    const Database& endogenous);
Result<std::vector<std::pair<Fact, Fraction>>> AllShapleyValues(
    Evaluator& evaluator, const ConjunctiveQuery& query,
    const Database& exogenous, const Database& endogenous);

/// The combination step every Shapley entry point shares: the formula
/// above, applied to `full` = #Sat_{Q,Dx,Dn} (n+1 entries) and
/// `without[i]` = #Sat_{Q,Dx,Dn\{f_i}} (n entries each) for facts f_i of
/// Dn. Returns Shapley(f_i) in the order of `without`. The weights
/// k!(n−k−1)! and n! are computed once per call.
std::vector<Fraction> ShapleyFromSatCounts(
    const std::vector<BigUint>& full,
    const std::vector<std::vector<BigUint>>& without);

}  // namespace hierarq

#endif  // HIERARQ_CORE_SHAPLEY_H_
