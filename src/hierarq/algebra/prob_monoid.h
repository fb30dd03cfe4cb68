#ifndef HIERARQ_ALGEBRA_PROB_MONOID_H_
#define HIERARQ_ALGEBRA_PROB_MONOID_H_

/// \file prob_monoid.h
/// \brief The probability 2-monoid (paper Definition 5.7).
///
/// Domain K = [0,1];
///   p1 ⊗ p2 = p1·p2                      (conjunction of independent events)
///   p1 ⊕ p2 = p1 + p2 − p1·p2            (disjunction of independent events)
/// Identities 0 = 0 and 1 = 1. ⊗ does not distribute over ⊕, so this is a
/// 2-monoid but not a semiring. Instantiating Algorithm 1 with it yields
/// exactly the Dalvi–Suciu algorithm for evaluating a hierarchical SJF-BCQ
/// over a tuple-independent probabilistic database (Theorem 5.8).
///
/// ⊕ is computed as p1 + p2 − p1·p2, not as the textbook 1 − (1−p1)(1−p2):
/// once the operands fall below about 1e-16, 1 − p rounds to 1 and the
/// textbook form returns 0, while this one keeps full relative precision
/// for small probabilities. Rounding can push the sum a hair past 1, so
/// it is clamped to [0, 1].

#include <algorithm>

namespace hierarq {

class ProbMonoid {
 public:
  using value_type = double;

  double Zero() const { return 0.0; }
  double One() const { return 1.0; }

  /// Probability of the disjunction of two independent events, Eq. (3).
  double Plus(double p1, double p2) const {
    return std::clamp(p1 + p2 - p1 * p2, 0.0, 1.0);
  }

  /// Probability of the conjunction of two independent events, Eq. (2).
  double Times(double p1, double p2) const { return p1 * p2; }
};

}  // namespace hierarq

#endif  // HIERARQ_ALGEBRA_PROB_MONOID_H_
