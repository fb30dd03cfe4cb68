#ifndef HIERARQ_ALGEBRA_SATCOUNT_MONOID_H_
#define HIERARQ_ALGEBRA_SATCOUNT_MONOID_H_

/// \file satcount_monoid.h
/// \brief The #Sat 2-monoid used for Shapley values (paper Definition 5.14).
///
/// Domain K = ℕ^(ℕ×𝔹): vectors indexed by (k, b) where k is a subset size
/// and b a Boolean. For a Boolean formula F over endogenous facts Dn[F],
/// the intended value (Eq. (21)) is
///     x(k, b) = #subsets D' ⊆ Dn[F] with |D'| = k and F(Dx ∪ D') = b.
/// The operators (Eqs. (15)/(16)) are convolutions in k joined with ∨/∧ in
/// b. Identities:
///     0(k,b) = [k = 0 ∧ b = false]   (annotation of absent facts)
///     1(k,b) = [k = 0 ∧ b = true]    (annotation of exogenous facts)
///     ★(k,b) = [k=0 ∧ b=false] + [k=1 ∧ b=true]   (endogenous facts)
/// Note a ⊗ 0 ≠ 0 in general — the 2-monoid only guarantees 0 ⊗ 0 = 0,
/// which is why Algorithm 1 must join on support *unions* (Lemma 6.6).
///
/// The counter type is a template parameter:
///   * `BigUint`   — exact counts (subsets counts overflow uint64 near
///                   |Dn| ≈ 68); used by the exact Shapley solver;
///   * `uint64_t`  — counts mod 2^64; fast, exact while |Dn| is small;
///   * `double`    — floating approximation for quick estimation.
/// Vectors are truncated to |Dn|+1 entries; entry k of a convolution reads
/// only entries ≤ k of the operands, so truncation is lossless. A subtree
/// holding e endogenous facts is zero above k = e, so `Plus`/`Times` loop
/// only over each operand's support d (one past its highest non-zero k):
/// an operation costs d_x·d_y products, at most O(|Dn|²) (Theorem 5.16),
/// and O(1) when an operand is exogenous-only (d = 1).

#include <cstdint>
#include <string>
#include <vector>

#include "hierarq/util/bigint.h"
#include "hierarq/util/logging.h"

namespace hierarq {

/// A (k, b)-indexed count vector: `on_true[k]` is x(k, true) and
/// `on_false[k]` is x(k, false).
template <typename Count>
struct SatCountVec {
  std::vector<Count> on_false;
  std::vector<Count> on_true;

  bool operator==(const SatCountVec& other) const {
    return on_false == other.on_false && on_true == other.on_true;
  }
  bool operator!=(const SatCountVec& other) const {
    return !(*this == other);
  }
};

template <typename Count>
class SatCountMonoid {
 public:
  using value_type = SatCountVec<Count>;

  /// A monoid for at most `max_size` endogenous facts (vectors of length
  /// max_size+1).
  explicit SatCountMonoid(size_t max_size) : length_(max_size + 1) {}

  size_t max_size() const { return length_ - 1; }
  size_t vector_length() const { return length_; }

  value_type Zero() const {
    value_type out = Empty();
    out.on_false[0] = Count(1);
    return out;
  }

  value_type One() const {
    value_type out = Empty();
    out.on_true[0] = Count(1);
    return out;
  }

  /// The ★ annotation of Definition 5.15 (endogenous facts): excluded (size
  /// 0) makes the leaf false, included (size 1) makes it true.
  value_type Star() const {
    value_type out = Empty();
    out.on_false[0] = Count(1);
    if (length_ > 1) {
      out.on_true[1] = Count(1);
    }
    return out;
  }

  /// Eq. (15): convolution in k, disjunction in b.
  /// true  ← (t,t), (t,f), (f,t);   false ← (f,f).
  value_type Plus(const value_type& x, const value_type& y) const {
    CheckShape(x);
    CheckShape(y);
    value_type out = Empty();
    const size_t dx = Support(x);
    const size_t dy = Support(y);
    for (size_t k1 = 0; k1 < dx; ++k1) {
      for (size_t k2 = 0; k2 < dy && k1 + k2 < length_; ++k2) {
        const size_t k = k1 + k2;
        out.on_false[k] += x.on_false[k1] * y.on_false[k2];
        out.on_true[k] += x.on_true[k1] * y.on_true[k2] +
                          x.on_true[k1] * y.on_false[k2] +
                          x.on_false[k1] * y.on_true[k2];
      }
    }
    return out;
  }

  /// Eq. (16): convolution in k, conjunction in b.
  /// true  ← (t,t);   false ← (f,f), (f,t), (t,f).
  value_type Times(const value_type& x, const value_type& y) const {
    CheckShape(x);
    CheckShape(y);
    value_type out = Empty();
    const size_t dx = Support(x);
    const size_t dy = Support(y);
    for (size_t k1 = 0; k1 < dx; ++k1) {
      for (size_t k2 = 0; k2 < dy && k1 + k2 < length_; ++k2) {
        const size_t k = k1 + k2;
        out.on_true[k] += x.on_true[k1] * y.on_true[k2];
        out.on_false[k] += x.on_false[k1] * y.on_false[k2] +
                           x.on_false[k1] * y.on_true[k2] +
                           x.on_true[k1] * y.on_false[k2];
      }
    }
    return out;
  }

  static std::string ToString(const value_type& x) {
    std::string out = "{false:[";
    for (size_t i = 0; i < x.on_false.size(); ++i) {
      if (i > 0) {
        out += ",";
      }
      out += CountToString(x.on_false[i]);
    }
    out += "], true:[";
    for (size_t i = 0; i < x.on_true.size(); ++i) {
      if (i > 0) {
        out += ",";
      }
      out += CountToString(x.on_true[i]);
    }
    return out + "]}";
  }

 private:
  value_type Empty() const {
    value_type out;
    out.on_false.assign(length_, Count(0));
    out.on_true.assign(length_, Count(0));
    return out;
  }

  void CheckShape(const value_type& v) const {
    HIERARQ_CHECK_EQ(v.on_false.size(), length_);
    HIERARQ_CHECK_EQ(v.on_true.size(), length_);
  }

  /// One past the highest k with a non-zero entry in either polarity (0
  /// for the all-zero vector). Entries at or above it add nothing to a
  /// convolution, so `Plus`/`Times` skip them.
  static size_t Support(const value_type& v) {
    size_t d = v.on_false.size();
    while (d > 0 && IsZeroCount(v.on_false[d - 1]) &&
           IsZeroCount(v.on_true[d - 1])) {
      --d;
    }
    return d;
  }

  static bool IsZeroCount(const Count& c) {
    if constexpr (std::is_same_v<Count, BigUint>) {
      return c.IsZero();
    } else {
      return c == Count(0);
    }
  }

  static std::string CountToString(const Count& c) {
    if constexpr (std::is_same_v<Count, BigUint>) {
      return c.ToString();
    } else {
      return std::to_string(c);
    }
  }

  size_t length_;
};

}  // namespace hierarq

#endif  // HIERARQ_ALGEBRA_SATCOUNT_MONOID_H_
