#ifndef HIERARQ_UTIL_BIGINT_H_
#define HIERARQ_UTIL_BIGINT_H_

/// \file bigint.h
/// \brief Arbitrary-precision integers.
///
/// The #Sat 2-monoid (paper Definition 5.14) counts subsets of the endogenous
/// database: counts reach binomial(|Dn|, k), which overflows `uint64_t`
/// already around |Dn| ≈ 68. `BigUint`/`BigInt` provide exact arithmetic for
/// the counting monoid and for exact Shapley values (whose denominators are
/// |Dn|! — astronomically large). Representation: little-endian vector of
/// 64-bit limbs with no trailing zero limbs (canonical; zero = no limbs).
/// The first two limbs live inline, so a value below 2^128 — every #Sat
/// count of a small endogenous database — never touches the heap.
///
/// Only the operations hierarq needs are implemented: add, subtract,
/// schoolbook multiply, bit shifts, binary GCD, small-divisor divmod (for
/// decimal printing), comparison, and exponent-tracked conversion to double.

#include <cstdint>
#include <string>

#include "hierarq/util/inlined_vector.h"
#include "hierarq/util/result.h"

namespace hierarq {

/// Arbitrary-precision unsigned integer.
class BigUint {
 public:
  /// Constructs zero.
  BigUint() = default;
  /// Constructs from a machine word.
  explicit BigUint(uint64_t value);

  /// Parses a decimal string of digits ("0", "12345...").
  static Result<BigUint> FromString(std::string_view text);
  /// n! for small n (n fits memory; intended for Shapley coefficients).
  static BigUint Factorial(uint64_t n);
  /// binomial(n, k); returns 0 when k > n.
  static BigUint Binomial(uint64_t n, uint64_t k);
  /// 2^k.
  static BigUint PowerOfTwo(uint64_t k);

  bool IsZero() const { return limbs_.empty(); }
  /// True iff the value fits in a uint64_t.
  bool FitsUint64() const { return limbs_.size() <= 1; }
  /// The low 64 bits (i.e. value mod 2^64).
  uint64_t Low64() const { return limbs_.empty() ? 0 : limbs_[0]; }
  /// Number of significant bits (0 for zero).
  size_t BitLength() const;
  /// Number of limbs (for complexity accounting in tests).
  size_t LimbCount() const { return limbs_.size(); }

  /// Three-way comparison: negative/zero/positive as *this <,==,> other.
  int Compare(const BigUint& other) const;

  BigUint operator+(const BigUint& other) const;
  /// Precondition: *this >= other (checked).
  BigUint operator-(const BigUint& other) const;
  BigUint operator*(const BigUint& other) const;
  BigUint operator<<(uint64_t bits) const;
  BigUint operator>>(uint64_t bits) const;

  BigUint& operator+=(const BigUint& other);
  BigUint& operator-=(const BigUint& other);
  BigUint& operator*=(const BigUint& other);

  bool operator==(const BigUint& other) const { return Compare(other) == 0; }
  bool operator!=(const BigUint& other) const { return Compare(other) != 0; }
  bool operator<(const BigUint& other) const { return Compare(other) < 0; }
  bool operator<=(const BigUint& other) const { return Compare(other) <= 0; }
  bool operator>(const BigUint& other) const { return Compare(other) > 0; }
  bool operator>=(const BigUint& other) const { return Compare(other) >= 0; }

  /// Divides by a machine word; returns the quotient and sets `*remainder`.
  /// Precondition: divisor != 0.
  BigUint DivModSmall(uint64_t divisor, uint64_t* remainder) const;

  /// Greatest common divisor (binary GCD: shift/subtract only).
  static BigUint Gcd(BigUint a, BigUint b);

  /// Decimal rendering.
  std::string ToString() const;

  /// Lossy conversion: nearest double, +inf if the exponent overflows.
  double ToDouble() const;

  /// Writes the value as `mantissa * 2^exponent` with mantissa in [0.5, 1)
  /// (or mantissa = 0). Exact in the top 64 bits. Used to build floating
  /// quotients of astronomically large numerators/denominators.
  void Frexp(double* mantissa, int64_t* exponent) const;

 private:
  void Normalize();

  InlinedVector<uint64_t, 2> limbs_;
};

/// Arbitrary-precision signed integer: sign-magnitude over BigUint.
class BigInt {
 public:
  BigInt() = default;
  BigInt(int64_t value);  // NOLINT(runtime/explicit): numeric literal use.
  explicit BigInt(BigUint magnitude, bool negative = false);

  static Result<BigInt> FromString(std::string_view text);

  bool IsZero() const { return magnitude_.IsZero(); }
  bool IsNegative() const { return negative_; }
  const BigUint& Magnitude() const { return magnitude_; }

  int Compare(const BigInt& other) const;

  BigInt operator-() const;
  BigInt operator+(const BigInt& other) const;
  BigInt operator-(const BigInt& other) const;
  BigInt operator*(const BigInt& other) const;

  BigInt& operator+=(const BigInt& other);
  BigInt& operator-=(const BigInt& other);
  BigInt& operator*=(const BigInt& other);

  bool operator==(const BigInt& other) const { return Compare(other) == 0; }
  bool operator!=(const BigInt& other) const { return Compare(other) != 0; }
  bool operator<(const BigInt& other) const { return Compare(other) < 0; }
  bool operator<=(const BigInt& other) const { return Compare(other) <= 0; }
  bool operator>(const BigInt& other) const { return Compare(other) > 0; }
  bool operator>=(const BigInt& other) const { return Compare(other) >= 0; }

  std::string ToString() const;
  double ToDouble() const;

 private:
  BigUint magnitude_;
  bool negative_ = false;  // Never true for zero (canonical form).
};

std::ostream& operator<<(std::ostream& os, const BigUint& value);
std::ostream& operator<<(std::ostream& os, const BigInt& value);

}  // namespace hierarq

#endif  // HIERARQ_UTIL_BIGINT_H_
