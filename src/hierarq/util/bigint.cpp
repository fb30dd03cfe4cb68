#include "hierarq/util/bigint.h"

#include <cmath>
#include <limits>
#include <ostream>
#include <vector>

#include "hierarq/util/logging.h"

namespace hierarq {

namespace {

constexpr uint64_t kDecimalChunk = 10000000000000000000ULL;  // 10^19
constexpr int kDecimalChunkDigits = 19;

int CountLeadingZeros(uint64_t x) {
  HIERARQ_CHECK_NE(x, 0u);
  return __builtin_clzll(x);
}

}  // namespace

BigUint::BigUint(uint64_t value) {
  if (value != 0) {
    limbs_.push_back(value);
  }
}

void BigUint::Normalize() {
  while (!limbs_.empty() && limbs_.back() == 0) {
    limbs_.pop_back();
  }
}

Result<BigUint> BigUint::FromString(std::string_view text) {
  if (text.empty()) {
    return Status::ParseError("empty BigUint literal");
  }
  BigUint out;
  const BigUint ten(10);
  for (char c : text) {
    if (c < '0' || c > '9') {
      return Status::ParseError(std::string("invalid digit in BigUint: '") +
                                c + "'");
    }
    out = out * ten + BigUint(static_cast<uint64_t>(c - '0'));
  }
  return out;
}

BigUint BigUint::Factorial(uint64_t n) {
  BigUint out(1);
  for (uint64_t i = 2; i <= n; ++i) {
    out *= BigUint(i);
  }
  return out;
}

BigUint BigUint::Binomial(uint64_t n, uint64_t k) {
  if (k > n) {
    return BigUint();
  }
  k = std::min(k, n - k);
  // Multiply then divide stepwise; each intermediate is an exact binomial
  // scaled by an integer, so the small division is always exact.
  BigUint out(1);
  for (uint64_t i = 1; i <= k; ++i) {
    out *= BigUint(n - k + i);
    uint64_t rem = 0;
    out = out.DivModSmall(i, &rem);
    HIERARQ_CHECK_EQ(rem, 0u);
  }
  return out;
}

BigUint BigUint::PowerOfTwo(uint64_t k) {
  return BigUint(1) << k;
}

size_t BigUint::BitLength() const {
  if (limbs_.empty()) {
    return 0;
  }
  return limbs_.size() * 64 -
         static_cast<size_t>(CountLeadingZeros(limbs_.back()));
}

int BigUint::Compare(const BigUint& other) const {
  if (limbs_.size() != other.limbs_.size()) {
    return limbs_.size() < other.limbs_.size() ? -1 : 1;
  }
  for (size_t i = limbs_.size(); i-- > 0;) {
    if (limbs_[i] != other.limbs_[i]) {
      return limbs_[i] < other.limbs_[i] ? -1 : 1;
    }
  }
  return 0;
}

BigUint& BigUint::operator+=(const BigUint& other) {
  const size_t n = std::max(limbs_.size(), other.limbs_.size());
  const size_t m = other.limbs_.size();
  limbs_.resize(n, 0);
  // Raw pointers keep InlinedVector's per-access bounds checks out of the
  // #Sat convolution's inner loop. They are taken after the resize, which
  // may move this value's limbs; when `other` is *this, n == m and
  // nothing moves.
  uint64_t* out = limbs_.data();
  const uint64_t* rhs = other.limbs_.data();
  unsigned __int128 carry = 0;
  for (size_t i = 0; i < n; ++i) {
    unsigned __int128 sum = carry + out[i];
    if (i < m) {
      sum += rhs[i];
    }
    out[i] = static_cast<uint64_t>(sum);
    carry = sum >> 64;
  }
  if (carry != 0) {
    limbs_.push_back(static_cast<uint64_t>(carry));
  }
  return *this;
}

BigUint& BigUint::operator-=(const BigUint& other) {
  HIERARQ_CHECK_GE(Compare(other), 0) << "BigUint subtraction underflow";
  unsigned __int128 borrow = 0;
  for (size_t i = 0; i < limbs_.size(); ++i) {
    const uint64_t rhs = i < other.limbs_.size() ? other.limbs_[i] : 0;
    const unsigned __int128 need = static_cast<unsigned __int128>(rhs) + borrow;
    if (limbs_[i] >= need) {
      limbs_[i] = static_cast<uint64_t>(limbs_[i] - need);
      borrow = 0;
    } else {
      limbs_[i] = static_cast<uint64_t>(
          (static_cast<unsigned __int128>(1) << 64) + limbs_[i] - need);
      borrow = 1;
    }
  }
  Normalize();
  return *this;
}

BigUint& BigUint::operator*=(const BigUint& other) {
  *this = *this * other;
  return *this;
}

BigUint BigUint::operator+(const BigUint& other) const {
  BigUint out = *this;
  out += other;
  return out;
}

BigUint BigUint::operator-(const BigUint& other) const {
  BigUint out = *this;
  out -= other;
  return out;
}

BigUint BigUint::operator*(const BigUint& other) const {
  if (IsZero() || other.IsZero()) {
    return BigUint();
  }
  const size_t na = limbs_.size();
  const size_t nb = other.limbs_.size();
  BigUint out;
  out.limbs_.resize(na + nb, 0);
  const uint64_t* a = limbs_.data();
  const uint64_t* b = other.limbs_.data();
  uint64_t* product = out.limbs_.data();
  for (size_t i = 0; i < na; ++i) {
    uint64_t carry = 0;
    for (size_t j = 0; j < nb; ++j) {
      unsigned __int128 cur = static_cast<unsigned __int128>(a[i]) * b[j] +
                              product[i + j] + carry;
      product[i + j] = static_cast<uint64_t>(cur);
      carry = static_cast<uint64_t>(cur >> 64);
    }
    product[i + nb] += carry;
  }
  out.Normalize();
  return out;
}

BigUint BigUint::operator<<(uint64_t bits) const {
  if (IsZero() || bits == 0) {
    BigUint out = *this;
    return out;
  }
  const size_t limb_shift = bits / 64;
  const unsigned bit_shift = static_cast<unsigned>(bits % 64);
  BigUint out;
  out.limbs_.resize(limbs_.size() + limb_shift + 1, 0);
  for (size_t i = 0; i < limbs_.size(); ++i) {
    out.limbs_[i + limb_shift] |= bit_shift == 0 ? limbs_[i]
                                                 : (limbs_[i] << bit_shift);
    if (bit_shift != 0) {
      out.limbs_[i + limb_shift + 1] |= limbs_[i] >> (64 - bit_shift);
    }
  }
  out.Normalize();
  return out;
}

BigUint BigUint::operator>>(uint64_t bits) const {
  const size_t limb_shift = bits / 64;
  const unsigned bit_shift = static_cast<unsigned>(bits % 64);
  if (limb_shift >= limbs_.size()) {
    return BigUint();
  }
  BigUint out;
  out.limbs_.resize(limbs_.size() - limb_shift, 0);
  for (size_t i = 0; i < out.limbs_.size(); ++i) {
    out.limbs_[i] = limbs_[i + limb_shift] >> bit_shift;
    if (bit_shift != 0 && i + limb_shift + 1 < limbs_.size()) {
      out.limbs_[i] |= limbs_[i + limb_shift + 1] << (64 - bit_shift);
    }
  }
  out.Normalize();
  return out;
}

BigUint BigUint::DivModSmall(uint64_t divisor, uint64_t* remainder) const {
  HIERARQ_CHECK_NE(divisor, 0u);
  BigUint quotient;
  quotient.limbs_.resize(limbs_.size(), 0);
  unsigned __int128 rem = 0;
  for (size_t i = limbs_.size(); i-- > 0;) {
    const unsigned __int128 cur = (rem << 64) | limbs_[i];
    quotient.limbs_[i] = static_cast<uint64_t>(cur / divisor);
    rem = cur % divisor;
  }
  quotient.Normalize();
  *remainder = static_cast<uint64_t>(rem);
  return quotient;
}

BigUint BigUint::Gcd(BigUint a, BigUint b) {
  if (a.IsZero()) {
    return b;
  }
  if (b.IsZero()) {
    return a;
  }
  // Binary GCD: strip common factors of two, then subtract-and-shift.
  uint64_t shift = 0;
  while ((a.limbs_[0] & 1) == 0 && (b.limbs_[0] & 1) == 0) {
    a = a >> 1;
    b = b >> 1;
    ++shift;
  }
  while ((a.limbs_[0] & 1) == 0) {
    a = a >> 1;
  }
  while (!b.IsZero()) {
    while ((b.limbs_[0] & 1) == 0) {
      b = b >> 1;
    }
    if (a > b) {
      std::swap(a, b);
    }
    b -= a;
  }
  return a << shift;
}

std::string BigUint::ToString() const {
  if (IsZero()) {
    return "0";
  }
  // Peel 19 decimal digits at a time from the least-significant end.
  std::vector<uint64_t> chunks;
  BigUint value = *this;
  while (!value.IsZero()) {
    uint64_t rem = 0;
    value = value.DivModSmall(kDecimalChunk, &rem);
    chunks.push_back(rem);
  }
  std::string out = std::to_string(chunks.back());
  for (size_t i = chunks.size() - 1; i-- > 0;) {
    std::string piece = std::to_string(chunks[i]);
    out += std::string(kDecimalChunkDigits - piece.size(), '0');
    out += piece;
  }
  return out;
}

void BigUint::Frexp(double* mantissa, int64_t* exponent) const {
  if (IsZero()) {
    *mantissa = 0.0;
    *exponent = 0;
    return;
  }
  const size_t bits = BitLength();
  // Collect the top (up to) 64 bits exactly.
  uint64_t top;
  if (bits <= 64) {
    top = limbs_[0];
    *exponent = 0;
  } else {
    const BigUint shifted = *this >> (bits - 64);
    top = shifted.limbs_[0];
    *exponent = static_cast<int64_t>(bits - 64);
  }
  int exp_local = 0;
  *mantissa = std::frexp(static_cast<double>(top), &exp_local);
  *exponent += exp_local;
}

double BigUint::ToDouble() const {
  double mantissa = 0.0;
  int64_t exponent = 0;
  Frexp(&mantissa, &exponent);
  if (exponent > 1100) {
    return std::numeric_limits<double>::infinity();
  }
  return std::ldexp(mantissa, static_cast<int>(exponent));
}

// ---------------------------------------------------------------------------
// BigInt
// ---------------------------------------------------------------------------

BigInt::BigInt(int64_t value) {
  if (value < 0) {
    negative_ = true;
    // Avoid UB on INT64_MIN: negate in unsigned space.
    magnitude_ = BigUint(~static_cast<uint64_t>(value) + 1);
  } else {
    magnitude_ = BigUint(static_cast<uint64_t>(value));
  }
}

BigInt::BigInt(BigUint magnitude, bool negative)
    : magnitude_(std::move(magnitude)), negative_(negative) {
  if (magnitude_.IsZero()) {
    negative_ = false;
  }
}

Result<BigInt> BigInt::FromString(std::string_view text) {
  bool negative = false;
  if (!text.empty() && (text[0] == '-' || text[0] == '+')) {
    negative = text[0] == '-';
    text.remove_prefix(1);
  }
  HIERARQ_ASSIGN_OR_RETURN(BigUint mag, BigUint::FromString(text));
  return BigInt(std::move(mag), negative);
}

int BigInt::Compare(const BigInt& other) const {
  if (negative_ != other.negative_) {
    return negative_ ? -1 : 1;
  }
  const int mag = magnitude_.Compare(other.magnitude_);
  return negative_ ? -mag : mag;
}

BigInt BigInt::operator-() const {
  return BigInt(magnitude_, !negative_);
}

BigInt BigInt::operator+(const BigInt& other) const {
  if (negative_ == other.negative_) {
    return BigInt(magnitude_ + other.magnitude_, negative_);
  }
  const int cmp = magnitude_.Compare(other.magnitude_);
  if (cmp == 0) {
    return BigInt();
  }
  if (cmp > 0) {
    return BigInt(magnitude_ - other.magnitude_, negative_);
  }
  return BigInt(other.magnitude_ - magnitude_, other.negative_);
}

BigInt BigInt::operator-(const BigInt& other) const {
  return *this + (-other);
}

BigInt BigInt::operator*(const BigInt& other) const {
  return BigInt(magnitude_ * other.magnitude_, negative_ != other.negative_);
}

BigInt& BigInt::operator+=(const BigInt& other) {
  *this = *this + other;
  return *this;
}

BigInt& BigInt::operator-=(const BigInt& other) {
  *this = *this - other;
  return *this;
}

BigInt& BigInt::operator*=(const BigInt& other) {
  *this = *this * other;
  return *this;
}

std::string BigInt::ToString() const {
  std::string out = magnitude_.ToString();
  if (negative_) {
    out.insert(out.begin(), '-');
  }
  return out;
}

double BigInt::ToDouble() const {
  const double mag = magnitude_.ToDouble();
  return negative_ ? -mag : mag;
}

std::ostream& operator<<(std::ostream& os, const BigUint& value) {
  return os << value.ToString();
}

std::ostream& operator<<(std::ostream& os, const BigInt& value) {
  return os << value.ToString();
}

}  // namespace hierarq
