// Unit tests for arbitrary-precision integers.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "hierarq/util/bigint.h"
#include "hierarq/util/random.h"

namespace hierarq {
namespace {

// An independent reference for multi-limb arithmetic: little-endian
// base-2^32 digits with schoolbook add and multiply — a different radix
// and code path from BigUint's 64-bit limbs.
using Digits = std::vector<uint32_t>;

void TrimDigits(Digits* d) {
  while (!d->empty() && d->back() == 0) {
    d->pop_back();
  }
}

Digits ToDigits(BigUint v) {
  Digits out;
  while (!v.IsZero()) {
    out.push_back(static_cast<uint32_t>(v.Low64()));
    v = v >> 32;
  }
  return out;
}

Digits AddDigits(const Digits& a, const Digits& b) {
  Digits out(std::max(a.size(), b.size()) + 1, 0);
  uint64_t carry = 0;
  for (size_t i = 0; i < out.size(); ++i) {
    const uint64_t sum = carry + (i < a.size() ? a[i] : 0) +
                         (i < b.size() ? b[i] : 0);
    out[i] = static_cast<uint32_t>(sum);
    carry = sum >> 32;
  }
  TrimDigits(&out);
  return out;
}

Digits MulDigits(const Digits& a, const Digits& b) {
  Digits out(a.size() + b.size() + 1, 0);
  for (size_t i = 0; i < a.size(); ++i) {
    uint64_t carry = 0;
    for (size_t j = 0; j < b.size(); ++j) {
      const uint64_t cur = uint64_t{a[i]} * b[j] + out[i + j] + carry;
      out[i + j] = static_cast<uint32_t>(cur);
      carry = cur >> 32;
    }
    for (size_t k = i + b.size(); carry != 0; ++k) {
      const uint64_t cur = uint64_t{out[k]} + carry;
      out[k] = static_cast<uint32_t>(cur);
      carry = cur >> 32;
    }
  }
  TrimDigits(&out);
  return out;
}

// -1/0/+1 as a <,==,> b, on canonical (trimmed) digit vectors.
int CompareDigits(const Digits& a, const Digits& b) {
  if (a.size() != b.size()) {
    return a.size() < b.size() ? -1 : 1;
  }
  for (size_t i = a.size(); i-- > 0;) {
    if (a[i] != b[i]) {
      return a[i] < b[i] ? -1 : 1;
    }
  }
  return 0;
}

// A value of exactly `limbs` 64-bit limbs (top limb non-zero).
BigUint RandomWithLimbs(Rng& rng, size_t limbs) {
  BigUint out;
  for (size_t i = 0; i < limbs; ++i) {
    uint64_t limb = rng.Next();
    if (i == 0 && limb == 0) {
      limb = 1;
    }
    out = (out << 64) + BigUint(limb);
  }
  return out;
}

TEST(BigUint, ZeroBasics) {
  BigUint z;
  EXPECT_TRUE(z.IsZero());
  EXPECT_EQ(z.ToString(), "0");
  EXPECT_EQ(z.BitLength(), 0u);
  EXPECT_EQ(z.ToDouble(), 0.0);
  EXPECT_EQ(z, BigUint(0));
}

TEST(BigUint, SmallArithmetic) {
  EXPECT_EQ(BigUint(2) + BigUint(3), BigUint(5));
  EXPECT_EQ(BigUint(10) - BigUint(4), BigUint(6));
  EXPECT_EQ(BigUint(6) * BigUint(7), BigUint(42));
  EXPECT_EQ((BigUint(1) << 10), BigUint(1024));
  EXPECT_EQ((BigUint(1024) >> 3), BigUint(128));
}

TEST(BigUint, CarryPropagation) {
  const BigUint max64(~uint64_t{0});
  const BigUint sum = max64 + BigUint(1);
  EXPECT_EQ(sum.ToString(), "18446744073709551616");  // 2^64
  EXPECT_EQ(sum - BigUint(1), max64);
  EXPECT_EQ(sum.BitLength(), 65u);
}

TEST(BigUint, MultiplicationLarge) {
  // (2^64 - 1)^2 = 2^128 - 2^65 + 1.
  const BigUint max64(~uint64_t{0});
  const BigUint square = max64 * max64;
  EXPECT_EQ(square.ToString(),
            "340282366920938463426481119284349108225");
}

TEST(BigUint, StringRoundTrip) {
  const char* kValues[] = {
      "0", "1", "42", "18446744073709551615", "18446744073709551616",
      "123456789012345678901234567890123456789012345678901234567890"};
  for (const char* text : kValues) {
    auto parsed = BigUint::FromString(text);
    ASSERT_TRUE(parsed.ok()) << text;
    EXPECT_EQ(parsed->ToString(), text);
  }
}

TEST(BigUint, FromStringRejectsGarbage) {
  EXPECT_FALSE(BigUint::FromString("").ok());
  EXPECT_FALSE(BigUint::FromString("12a").ok());
  EXPECT_FALSE(BigUint::FromString("-5").ok());
}

TEST(BigUint, Factorial) {
  EXPECT_EQ(BigUint::Factorial(0), BigUint(1));
  EXPECT_EQ(BigUint::Factorial(1), BigUint(1));
  EXPECT_EQ(BigUint::Factorial(5), BigUint(120));
  EXPECT_EQ(BigUint::Factorial(20), BigUint(2432902008176640000ULL));
  // 25! overflows uint64 and is a known constant.
  EXPECT_EQ(BigUint::Factorial(25).ToString(),
            "15511210043330985984000000");
}

TEST(BigUint, FactorialRecurrence) {
  for (uint64_t n = 1; n <= 40; ++n) {
    EXPECT_EQ(BigUint::Factorial(n),
              BigUint::Factorial(n - 1) * BigUint(n));
  }
}

TEST(BigUint, Binomial) {
  EXPECT_EQ(BigUint::Binomial(5, 2), BigUint(10));
  EXPECT_EQ(BigUint::Binomial(10, 0), BigUint(1));
  EXPECT_EQ(BigUint::Binomial(10, 10), BigUint(1));
  EXPECT_EQ(BigUint::Binomial(10, 11), BigUint(0));
  EXPECT_EQ(BigUint::Binomial(52, 5), BigUint(2598960));
  // C(100, 50) is a known 30-digit constant.
  EXPECT_EQ(BigUint::Binomial(100, 50).ToString(),
            "100891344545564193334812497256");
}

TEST(BigUint, PascalIdentity) {
  for (uint64_t n = 1; n <= 30; ++n) {
    for (uint64_t k = 1; k <= n; ++k) {
      EXPECT_EQ(BigUint::Binomial(n, k),
                BigUint::Binomial(n - 1, k - 1) + BigUint::Binomial(n - 1, k));
    }
  }
}

TEST(BigUint, BinomialRowSum) {
  for (uint64_t n = 0; n <= 40; ++n) {
    BigUint sum;
    for (uint64_t k = 0; k <= n; ++k) {
      sum += BigUint::Binomial(n, k);
    }
    EXPECT_EQ(sum, BigUint::PowerOfTwo(n));
  }
}

TEST(BigUint, DivModSmall) {
  uint64_t rem = 0;
  const BigUint q = BigUint(1000003).DivModSmall(10, &rem);
  EXPECT_EQ(q, BigUint(100000));
  EXPECT_EQ(rem, 3u);

  // Multi-limb division.
  auto big = BigUint::FromString("340282366920938463463374607431768211456");
  ASSERT_TRUE(big.ok());  // 2^128.
  const BigUint half = big->DivModSmall(2, &rem);
  EXPECT_EQ(rem, 0u);
  EXPECT_EQ(half, BigUint::PowerOfTwo(127));
}

TEST(BigUint, Gcd) {
  EXPECT_EQ(BigUint::Gcd(BigUint(12), BigUint(18)), BigUint(6));
  EXPECT_EQ(BigUint::Gcd(BigUint(17), BigUint(5)), BigUint(1));
  EXPECT_EQ(BigUint::Gcd(BigUint(0), BigUint(9)), BigUint(9));
  EXPECT_EQ(BigUint::Gcd(BigUint(9), BigUint(0)), BigUint(9));
  EXPECT_EQ(BigUint::Gcd(BigUint(64), BigUint(48)), BigUint(16));
  // gcd(20!, 2^30) = 2^18 (20! has exactly 18 factors of two).
  EXPECT_EQ(BigUint::Gcd(BigUint::Factorial(20), BigUint::PowerOfTwo(30)),
            BigUint::PowerOfTwo(18));
}

TEST(BigUint, GcdRandomizedAgreesWithEuclid) {
  Rng rng(99);
  for (int i = 0; i < 200; ++i) {
    uint64_t a = rng.Next() % 100000;
    uint64_t b = rng.Next() % 100000;
    uint64_t x = a;
    uint64_t y = b;
    while (y != 0) {
      const uint64_t t = x % y;
      x = y;
      y = t;
    }
    EXPECT_EQ(BigUint::Gcd(BigUint(a), BigUint(b)), BigUint(x))
        << a << " " << b;
  }
}

TEST(BigUint, CompareTotalOrder) {
  EXPECT_LT(BigUint(3), BigUint(5));
  EXPECT_GT(BigUint::PowerOfTwo(100), BigUint::PowerOfTwo(99));
  EXPECT_LE(BigUint(7), BigUint(7));
  EXPECT_GE(BigUint::Factorial(10), BigUint::Factorial(9));
}

TEST(BigUint, ToDoubleAccuracy) {
  EXPECT_DOUBLE_EQ(BigUint(12345).ToDouble(), 12345.0);
  EXPECT_NEAR(BigUint::PowerOfTwo(100).ToDouble(), std::ldexp(1.0, 100),
              std::ldexp(1.0, 48));  // Relative error ~2^-52.
  // 170! still fits a double.
  EXPECT_NEAR(BigUint::Factorial(170).ToDouble() / 7.257415615307994e306,
              1.0, 1e-12);
  // 200! does not.
  EXPECT_TRUE(std::isinf(BigUint::Factorial(200).ToDouble()));
}

TEST(BigUint, ShiftRoundTrip) {
  Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    const BigUint v(rng.Next());
    const uint64_t shift = rng.Next() % 200;
    EXPECT_EQ((v << shift) >> shift, v);
  }
}

TEST(BigUint, AdditionCommutesAndAssociates) {
  Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    const BigUint a(rng.Next());
    const BigUint b(rng.Next());
    const BigUint c(rng.Next());
    EXPECT_EQ(a + b, b + a);
    EXPECT_EQ((a + b) + c, a + (b + c));
    EXPECT_EQ(a * b, b * a);
    EXPECT_EQ((a * b) * c, a * (b * c));
    EXPECT_EQ(a * (b + c), a * b + a * c);
  }
}

TEST(BigUint, OneToThreeLimbsAgainstDigitReference) {
  // One and two limbs fit the inline buffer, three spill to the heap;
  // every pairing runs through +, +=, *, *=, - and Compare.
  Rng rng(123);
  for (int i = 0; i < 400; ++i) {
    const size_t la = 1 + static_cast<size_t>(rng.Next() % 3);
    const size_t lb = 1 + static_cast<size_t>(rng.Next() % 3);
    const BigUint a = RandomWithLimbs(rng, la);
    const BigUint b = RandomWithLimbs(rng, lb);
    ASSERT_EQ(a.LimbCount(), la);
    ASSERT_EQ(b.LimbCount(), lb);
    const Digits da = ToDigits(a);
    const Digits db = ToDigits(b);
    EXPECT_EQ(ToDigits(a + b), AddDigits(da, db));
    EXPECT_EQ(ToDigits(a * b), MulDigits(da, db));
    BigUint sum = a;
    sum += b;
    EXPECT_EQ(sum, a + b);
    BigUint product = a;
    product *= b;
    EXPECT_EQ(product, a * b);
    EXPECT_EQ((a + b) - b, a);
    EXPECT_EQ(a.Compare(b), CompareDigits(da, db));
    // Aliased operands: x += x and x *= x.
    BigUint twice = a;
    twice += twice;
    EXPECT_EQ(ToDigits(twice), AddDigits(da, da));
    BigUint square = a;
    square *= square;
    EXPECT_EQ(ToDigits(square), MulDigits(da, da));
    auto parsed = BigUint::FromString(a.ToString());
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, a);
  }
}

TEST(BigUint, CopyMoveAndAssignAcrossInlineAndHeapLimbs) {
  const BigUint one_limb(0x1234);
  const BigUint two_limbs = BigUint::PowerOfTwo(100) + BigUint(7);
  const BigUint three_limbs = BigUint::PowerOfTwo(150) + BigUint(9);
  ASSERT_EQ(one_limb.LimbCount(), 1u);
  ASSERT_EQ(two_limbs.LimbCount(), 2u);
  ASSERT_EQ(three_limbs.LimbCount(), 3u);
  const std::vector<BigUint> values = {BigUint(), one_limb, two_limbs,
                                       three_limbs};
  for (const BigUint& from : values) {
    for (const BigUint& to : values) {
      const BigUint copied(from);
      EXPECT_EQ(copied, from);
      BigUint assigned = to;
      assigned = from;
      EXPECT_EQ(assigned, from);

      BigUint source = from;
      const BigUint moved(std::move(source));
      EXPECT_EQ(moved, from);
      source = to;  // A moved-from value is reusable.
      EXPECT_EQ(source, to);

      BigUint target = to;
      BigUint donor = from;
      target = std::move(donor);
      EXPECT_EQ(target, from);
      donor = to;
      donor += from;
      EXPECT_EQ(ToDigits(donor), AddDigits(ToDigits(to), ToDigits(from)));

      BigUint swapped_a = from;
      BigUint swapped_b = to;
      std::swap(swapped_a, swapped_b);
      EXPECT_EQ(swapped_a, to);
      EXPECT_EQ(swapped_b, from);
    }
  }
  BigUint self = three_limbs;
  const BigUint& alias = self;
  self = alias;
  EXPECT_EQ(self, three_limbs);
  // Growing past the inline buffer and shrinking back into it.
  BigUint grown = one_limb;
  grown *= three_limbs;
  EXPECT_EQ(grown.LimbCount(), 3u);
  grown -= one_limb * BigUint::PowerOfTwo(150);
  EXPECT_EQ(grown, one_limb * BigUint(9));
  EXPECT_EQ(grown.LimbCount(), 1u);
}

TEST(BigInt, SignHandling) {
  EXPECT_EQ(BigInt(-5).ToString(), "-5");
  EXPECT_EQ(BigInt(5).ToString(), "5");
  EXPECT_EQ(BigInt(0).ToString(), "0");
  EXPECT_FALSE(BigInt(0).IsNegative());
  EXPECT_TRUE(BigInt(-1).IsNegative());
  EXPECT_EQ((-BigInt(7)).ToString(), "-7");
  EXPECT_EQ((-BigInt(0)), BigInt(0));
}

TEST(BigInt, Int64MinSafe) {
  const BigInt min64(std::numeric_limits<int64_t>::min());
  EXPECT_EQ(min64.ToString(), "-9223372036854775808");
}

TEST(BigInt, MixedSignArithmetic) {
  EXPECT_EQ(BigInt(5) + BigInt(-8), BigInt(-3));
  EXPECT_EQ(BigInt(-5) + BigInt(8), BigInt(3));
  EXPECT_EQ(BigInt(-5) + BigInt(-8), BigInt(-13));
  EXPECT_EQ(BigInt(5) - BigInt(8), BigInt(-3));
  EXPECT_EQ(BigInt(-3) * BigInt(4), BigInt(-12));
  EXPECT_EQ(BigInt(-3) * BigInt(-4), BigInt(12));
}

TEST(BigInt, CompareAcrossSigns) {
  EXPECT_LT(BigInt(-10), BigInt(1));
  EXPECT_LT(BigInt(-10), BigInt(-2));
  EXPECT_GT(BigInt(3), BigInt(-3));
  EXPECT_EQ(BigInt(0).Compare(BigInt(0)), 0);
}

TEST(BigInt, FromString) {
  EXPECT_EQ(*BigInt::FromString("-123"), BigInt(-123));
  EXPECT_EQ(*BigInt::FromString("+77"), BigInt(77));
  EXPECT_EQ(*BigInt::FromString("0"), BigInt(0));
  EXPECT_FALSE(BigInt::FromString("--1").ok());
}

TEST(BigInt, ToDouble) {
  EXPECT_DOUBLE_EQ(BigInt(-42).ToDouble(), -42.0);
  EXPECT_DOUBLE_EQ(BigInt(42).ToDouble(), 42.0);
}

TEST(BigInt, RandomizedAgainstInt128) {
  Rng rng(77);
  for (int i = 0; i < 300; ++i) {
    const int64_t a = rng.UniformInt(-1000000, 1000000);
    const int64_t b = rng.UniformInt(-1000000, 1000000);
    EXPECT_EQ((BigInt(a) + BigInt(b)).ToString(), std::to_string(a + b));
    EXPECT_EQ((BigInt(a) - BigInt(b)).ToString(), std::to_string(a - b));
    EXPECT_EQ((BigInt(a) * BigInt(b)).ToString(), std::to_string(a * b));
  }
}

}  // namespace
}  // namespace hierarq
