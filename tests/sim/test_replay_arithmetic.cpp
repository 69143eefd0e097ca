// Bit-exactness of sim::repeatedSum, the closed form tick-leap replay uses
// for cumulative accumulators: for every input it must return exactly the
// bits n round-to-nearest-even additions `x += d` leave. Each case compares
// bit patterns (std::bit_cast), so -0.0 vs +0.0 and NaN payloads count.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <random>
#include <string>

#include "sim/machine.hpp"

namespace dike::sim {
namespace {

double naiveSum(double x, double d, std::int64_t n) {
  for (std::int64_t k = 0; k < n; ++k) x += d;
  return x;
}

std::string describe(double x, double d, std::int64_t n) {
  char buf[160];
  std::snprintf(buf, sizeof buf, "x=%a d=%a n=%lld", x, d,
                static_cast<long long>(n));
  return buf;
}

/// Counts mismatches (reporting the first few) so one broken family does
/// not flood the log with a million failures.
class Checker {
 public:
  void check(double x, double d, std::int64_t n) {
    ++cases_;
    const double want = naiveSum(x, d, n);
    const double got = repeatedSum(x, d, n);
    if (std::bit_cast<std::uint64_t>(want) == std::bit_cast<std::uint64_t>(got))
      return;
    if (++failures_ <= 10) {
      ADD_FAILURE() << describe(x, d, n) << ": naive " << std::hexfloat << want
                    << " closed form " << got;
    }
  }
  [[nodiscard]] std::int64_t cases() const { return cases_; }
  [[nodiscard]] std::int64_t failures() const { return failures_; }

 private:
  std::int64_t cases_ = 0;
  std::int64_t failures_ = 0;
};

constexpr double kUlpOfOne = std::numeric_limits<double>::epsilon();  // 2^-52
constexpr double kMinSub = std::numeric_limits<double>::denorm_min();  // 2^-1074

TEST(ReplayArithmetic, NZeroAndOneAreTheFirstSteps) {
  Checker c;
  for (const double x : {0.0, -0.0, 1.0, 3.5, 1e300, -2.0})
    for (const double d : {0.0, -0.0, 0.25, 1e-20, -3.0})
      for (const std::int64_t n : {std::int64_t{0}, std::int64_t{1},
                                   std::int64_t{2}, std::int64_t{3}})
        c.check(x, d, n);
  EXPECT_EQ(c.failures(), 0);
}

TEST(ReplayArithmetic, SignedZerosAndZeroAddends) {
  Checker c;
  for (const double x : {0.0, -0.0, kMinSub, -kMinSub, 1.0, -1.0})
    for (const double d : {0.0, -0.0})
      for (const std::int64_t n : {1, 2, 7, 1000}) c.check(x, d, n);
  // x = -0.0 with a real addend: the first sum drops the sign.
  for (const double d : {kMinSub, 1.0, 0.1, 3.0 * kMinSub})
    for (const std::int64_t n : {1, 2, 5, 4097}) {
      c.check(-0.0, d, n);
      c.check(0.0, d, n);
      c.check(-0.0, -d, n);
      c.check(0.0, -d, n);
    }
  EXPECT_EQ(c.failures(), 0);
}

/// d = (k + 1/2) ulp of x's binade: every sum is a tie, whose rounding
/// depends on the parity of the running significand.
TEST(ReplayArithmetic, TiesAtExactlyHalfAnUlp) {
  Checker c;
  for (const double base : {1.0, 1.0 + kUlpOfOne, 1.0 + 2 * kUlpOfOne,
                            1.5, 1.5 + kUlpOfOne, 1024.0 + 1024 * kUlpOfOne})
    for (const double k : {0.0, 1.0, 2.0, 3.0, 1000.0, 1001.0})
      for (const std::int64_t n : {1, 2, 3, 10, 999, 4096}) {
        const double u = std::ldexp(kUlpOfOne, std::ilogb(base));
        c.check(base, (k + 0.5) * u, n);
      }
  EXPECT_EQ(c.failures(), 0);
}

TEST(ReplayArithmetic, AddendsBelowHalfAnUlpNeverMove) {
  Checker c;
  for (const double x : {1.0, 1.0 + kUlpOfOne, 1e15, 123456789.0})
    for (const double frac : {0.25, 1.0 / 3.0, 0.4999999, 1e-10}) {
      const double d = frac * std::ldexp(kUlpOfOne, std::ilogb(x));
      for (const std::int64_t n : {1, 2, 1000}) c.check(x, d, n);
    }
  EXPECT_EQ(c.failures(), 0);
}

TEST(ReplayArithmetic, SubnormalAddends) {
  Checker c;
  for (const double d : {kMinSub, 3 * kMinSub, 12345 * kMinSub,
                         std::numeric_limits<double>::min() / 3})
    for (const double x :
         {0.0, -0.0, kMinSub, 7 * kMinSub, std::numeric_limits<double>::min(),
          std::numeric_limits<double>::min() * 1.75, 1.0})
      for (const std::int64_t n : {1, 2, 100, 100000}) c.check(x, d, n);
  EXPECT_EQ(c.failures(), 0);
}

/// x one step below a power of two crosses a binade on its first sum.
TEST(ReplayArithmetic, OneStepBelowAPowerOfTwo) {
  Checker c;
  for (const int e : {-1022, -1000, -3, 0, 1, 10, 52, 53, 60, 1000}) {
    const double p = std::ldexp(1.0, e);
    const double x = std::nextafter(p, 0.0);
    const double u = p - x;  // ulp just below p
    for (const double d : {u, 2 * u, 3 * u, 0.5 * u, 1.5 * u, 0.75 * u, p})
      for (const std::int64_t n : {1, 2, 3, 64, 5000}) c.check(x, d, n);
  }
  EXPECT_EQ(c.failures(), 0);
}

/// The top binade: the exact jump must overflow to +inf exactly where the
/// additions do.
TEST(ReplayArithmetic, OverflowIntoInfinity) {
  Checker c;
  const double big = std::numeric_limits<double>::max();
  const double u = big - std::nextafter(big, 0.0);  // 2^971
  for (const double d : {u, 3 * u, 0.5 * u, 1.5 * u})
    for (const std::int64_t n : {1, 2, 10, 1000})
      c.check(std::nextafter(big, 0.0) - 100 * u, d, n);
  EXPECT_EQ(c.failures(), 0);
}

TEST(ReplayArithmetic, NegativeAndMixedSigns) {
  Checker c;
  for (const double x : {-1.0, -0.3, 1.0, 0.3, -1e10, 1e10})
    for (const double d : {-0.1, 0.1, -1e-7, 1e-7, -3.0, 3.0})
      for (const std::int64_t n : {1, 2, 50, 3000}) c.check(x, d, n);
  EXPECT_EQ(c.failures(), 0);
}

TEST(ReplayArithmetic, NonFiniteOperands) {
  Checker c;
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const double x : {inf, -inf, nan, 1.0})
    for (const double d : {inf, -inf, nan, 1.0})
      for (const std::int64_t n : {1, 2, 5}) c.check(x, d, n);
  EXPECT_EQ(c.failures(), 0);
}

/// Long leaps, up to 10^6 additions, across many binades.
TEST(ReplayArithmetic, LongLeapsUpToAMillionSteps) {
  Checker c;
  for (const double d : {0.1, 1.0 / 3.0, 2.33e6 * 0.7, 1e-3 * 37.5, 1e-300})
    for (const double x : {0.0, 1e9, 12345.678})
      for (const std::int64_t n : {999, 65537, 1000000}) c.check(x, d, n);
  EXPECT_EQ(c.failures(), 0);
}

/// A half-ulp tie in the upper binade right after a crossing: below 2^k the
/// addend is a whole number of (small) ulps, above it every sum is a tie.
/// An increment measured on the step that crosses (instead of two steps
/// inside the binade) is wrong for a quarter of these.
TEST(ReplayArithmetic, TieRightAfterABinadeCrossing) {
  std::mt19937_64 rng{20161};
  Checker c;
  for (int i = 0; i < 200000; ++i) {
    const int e = static_cast<int>(rng() % 200) - 100;
    const double p = std::ldexp(1.0, e);
    const double uLow = std::ldexp(1.0, e - 53);  // ulp of [2^(e-1), 2^e)
    const auto below = static_cast<double>(1 + rng() % 64);
    const auto odd = static_cast<double>(2 * (rng() % 16) + 1);
    const double x = p - below * uLow;
    const double d = odd * uLow;  // (odd/2) ulps above p: a tie there
    c.check(x, d, static_cast<std::int64_t>(1 + rng() % 300));
  }
  EXPECT_EQ(c.cases(), 200000);
  EXPECT_EQ(c.failures(), 0);
}

/// A million random cases over magnitudes, ratios and step counts, with
/// short addend significands so ties and exact sums are common.
TEST(ReplayArithmetic, MillionRandomCases) {
  std::mt19937_64 rng{42};
  Checker c;
  auto significand = [&rng](int bits) {
    return static_cast<double>(rng() >> (64 - bits)) + 1.0;
  };
  for (int i = 0; i < 1000000; ++i) {
    const int xExp = static_cast<int>(rng() % 120) - 60;
    const double x = i % 16 == 0
                         ? 0.0
                         : std::ldexp(significand(53), xExp - 52);
    const int bits = 1 + static_cast<int>(rng() % 53);
    const int shift = static_cast<int>(rng() % 70) - 10;  // d vs x magnitude
    const double d = std::ldexp(significand(bits), xExp - shift - bits);
    const std::int64_t n = 1 + static_cast<std::int64_t>(rng() % 64);
    c.check(i % 7 == 0 ? -x : x, i % 11 == 0 ? -d : d, n);
  }
  EXPECT_EQ(c.cases(), 1000000);
  EXPECT_EQ(c.failures(), 0);
}

}  // namespace
}  // namespace dike::sim
