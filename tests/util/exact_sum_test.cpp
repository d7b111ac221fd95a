// util::ExactSum against tests/util/exact_sum_reference.hpp (Shewchuk's
// expansion with fsum's rounding, no code shared with the chunks) and
// against hand-worked cases: subnormals, heavy cancellation, terms near
// overflow, non-finite terms, add-then-sub, order and 2^k scaling.

#include "relmore/util/exact_sum.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "exact_sum_reference.hpp"

namespace relmore::util {
namespace {

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

constexpr double kMax = std::numeric_limits<double>::max();
constexpr double kMinNormal = std::numeric_limits<double>::min();
constexpr double kTiny = std::numeric_limits<double>::denorm_min();
constexpr double kInf = std::numeric_limits<double>::infinity();

/// SplitMix64: deterministic across platforms.
struct Rng {
  std::uint64_t state;
  std::uint64_t next() {
    state += 0x9E3779B97F4A7C15ULL;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  std::uint64_t below(std::uint64_t n) { return next() % n; }
};

/// A random finite double of either sign with its biased exponent drawn
/// from [lo, hi] (0 draws a subnormal).
double draw(Rng& rng, std::uint64_t lo, std::uint64_t hi) {
  const std::uint64_t biased = lo + rng.below(hi - lo + 1);
  const std::uint64_t fraction = rng.next() & ((std::uint64_t{1} << 52) - 1);
  return std::bit_cast<double>((rng.next() & 1) << 63 | biased << 52 | fraction);
}

double sum_of(const std::vector<double>& terms) {
  ExactSum sum;
  for (const double x : terms) sum.add(x);
  return sum.value();
}

/// Terms whose partial sums stay far below overflow, mixed in scale, with
/// a share of them cancelling an earlier term up to a small residue.
std::vector<double> random_terms(Rng& rng, std::size_t n) {
  std::vector<double> terms;
  const int kind = static_cast<int>(rng.below(4));
  for (std::size_t i = 0; i < n; ++i) {
    double x = 0.0;
    switch (kind) {
      case 0: x = draw(rng, 0, 2000); break;    // anywhere below 2^977
      case 1: x = draw(rng, 0, 60); break;      // subnormal and just above
      case 2: x = draw(rng, 1003, 1043); break; // around 1
      default: x = draw(rng, 0, 1200); break;
    }
    if (!terms.empty() && rng.below(3) == 0) {
      x = -terms[rng.below(terms.size())] + std::ldexp(x, -70);
    }
    terms.push_back(x);
  }
  return terms;
}

TEST(ExactSum, NoTermsReadPositiveZero) {
  EXPECT_EQ(bits(ExactSum{}.value()), bits(0.0));
  EXPECT_EQ(bits(sum_of({-0.0, -0.0})), bits(0.0));
  EXPECT_EQ(bits(sum_of({1.5, -0.0})), bits(1.5));
}

TEST(ExactSum, RoundsHalfWayCasesToEven) {
  const double ulp1 = 0x1p-52;
  EXPECT_EQ(bits(sum_of({1.0, ulp1 / 2})), bits(1.0));                    // tie: even stays
  EXPECT_EQ(bits(sum_of({1.0 + ulp1, ulp1 / 2})), bits(1.0 + 2 * ulp1));  // tie: odd goes up
  EXPECT_EQ(bits(sum_of({1.0, ulp1 / 2, 0x1p-200})), bits(1.0 + ulp1));   // sticky breaks it
  EXPECT_EQ(bits(sum_of({1.0, ulp1 / 2, -0x1p-200})), bits(1.0));
  EXPECT_EQ(bits(sum_of({-1.0, -ulp1 / 2, -0x1p-200})), bits(-1.0 - ulp1));
}

TEST(ExactSum, SubnormalsSumExactly) {
  EXPECT_EQ(bits(sum_of({kTiny, kTiny, kTiny})), bits(3 * kTiny));
  EXPECT_EQ(bits(sum_of({kMinNormal - kTiny, kTiny})), bits(kMinNormal));
  EXPECT_EQ(bits(sum_of({kMinNormal, -kTiny})), bits(kMinNormal - kTiny));
  EXPECT_EQ(bits(sum_of({-kTiny, kTiny, -kTiny})), bits(-kTiny));
  // Subnormals reach the normal range and round there.
  std::vector<double> terms(3, kMinNormal - kTiny);
  terms.push_back(0x1p-1021);
  EXPECT_EQ(bits(sum_of(terms)), bits(reference::exact_sum(terms)));
  Rng rng{11};
  for (int c = 0; c < 500; ++c) {
    std::vector<double> sub;
    const std::size_t n = 1 + rng.below(40);
    for (std::size_t i = 0; i < n; ++i) sub.push_back(draw(rng, 0, 3));
    ASSERT_EQ(bits(sum_of(sub)), bits(reference::exact_sum(sub))) << "case " << c;
  }
}

TEST(ExactSum, HeavyCancellationKeepsTheResidue) {
  EXPECT_EQ(bits(sum_of({1e100, 1.0, -1e100})), bits(1.0));
  EXPECT_EQ(bits(sum_of({0x1p900, 0x1p-900, -0x1p900, kTiny})), bits(0x1p-900 + kTiny));
  // The Python docs' fsum example.
  EXPECT_EQ(bits(sum_of({1e100, 1.0, -1e100, 1e-100, 1e50, -1.0, -1e50})), bits(1e-100));
  EXPECT_EQ(bits(sum_of(std::vector<double>(10, 0.1))), bits(1.0));
  Rng rng{12};
  for (int c = 0; c < 500; ++c) {
    std::vector<double> terms;
    const std::size_t n = 2 + rng.below(30);
    for (std::size_t i = 0; i < n; ++i) {
      const double x = draw(rng, 900, 1100);
      terms.push_back(x);
      terms.push_back(-x * (1.0 + 0x1p-52 * static_cast<double>(rng.below(4))));
    }
    terms.push_back(draw(rng, 0, 1100));
    std::reverse(terms.begin() + static_cast<std::ptrdiff_t>(n), terms.end());
    ASSERT_EQ(bits(sum_of(terms)), bits(reference::exact_sum(terms))) << "case " << c;
  }
}

TEST(ExactSum, TermsNearOverflow) {
  // The partial sums of a left-to-right double sum overflow here; the
  // exact sum does not.
  EXPECT_EQ(bits(sum_of({kMax, kMax, -kMax})), bits(kMax));
  EXPECT_EQ(bits(sum_of({-kMax, -kMax, kMax, 0x1p971})), bits(-kMax + 0x1p971));
  // Totals at and beyond the threshold round to infinity as IEEE does:
  // half an ulp above the largest double is a tie, and its last bit is odd.
  EXPECT_EQ(bits(sum_of({kMax, kMax})), bits(kInf));
  EXPECT_EQ(bits(sum_of({-kMax, -kMax})), bits(-kInf));
  EXPECT_EQ(bits(sum_of({kMax, 0x1p970})), bits(kInf));
  EXPECT_EQ(bits(sum_of({kMax, 0x1p969})), bits(kMax));
  EXPECT_EQ(bits(sum_of({kMax, 0x1p970, -0x1p-1000})), bits(kMax));
  // Thousands of terms at the top of the range, cancelling to a small rest.
  Rng rng{13};
  std::vector<double> terms;
  for (int i = 0; i < 3000; ++i) terms.push_back(draw(rng, 2040, 2046));
  for (int i = 0; i < 3000; ++i) terms.push_back(-terms[static_cast<std::size_t>(i)]);
  terms.push_back(0x1.5p-3);
  EXPECT_EQ(bits(sum_of(terms)), bits(0x1.5p-3));
  std::vector<double> halves;
  for (int i = 0; i < 4; ++i) halves.push_back(draw(rng, 2040, 2040));
  EXPECT_EQ(bits(sum_of(halves)), bits(reference::exact_sum(halves)));
}

TEST(ExactSum, InfinitiesAndNansAreCounted) {
  ExactSum sum;
  sum.add(2.0);
  sum.add(kInf);
  EXPECT_EQ(bits(sum.value()), bits(kInf));
  sum.add(kInf);
  sum.sub(kInf);
  EXPECT_EQ(bits(sum.value()), bits(kInf));
  sum.add(-kInf);
  EXPECT_TRUE(std::isnan(sum.value()));
  sum.sub(kInf);
  EXPECT_EQ(bits(sum.value()), bits(-kInf));
  sum.sub(-kInf);
  EXPECT_EQ(bits(sum.value()), bits(2.0));
  sum.add(std::numeric_limits<double>::quiet_NaN());
  EXPECT_TRUE(std::isnan(sum.value()));
  sum.add(kInf);
  EXPECT_TRUE(std::isnan(sum.value()));
  sum.sub(kInf);
  sum.sub(std::numeric_limits<double>::quiet_NaN());
  EXPECT_EQ(bits(sum.value()), bits(2.0));
  // The reference sums non-finite terms in IEEE arithmetic, and agrees.
  for (const std::vector<double>& terms :
       {std::vector<double>{1.0, kInf}, std::vector<double>{kInf, -kInf, 3.0},
        std::vector<double>{-kInf, -kInf, kMax}, std::vector<double>{1.0, std::nan("")}}) {
    const double want = reference::exact_sum(terms);
    const double got = sum_of(terms);
    EXPECT_TRUE(std::isnan(want) ? std::isnan(got) : bits(got) == bits(want));
  }
}

TEST(ExactSum, AddThenSubReturnsToPositiveZero) {
  Rng rng{14};
  for (int c = 0; c < 200; ++c) {
    std::vector<double> terms = random_terms(rng, 1 + rng.below(3000));
    ExactSum sum;
    for (const double x : terms) sum.add(x);
    // Take them out in another order, with a removed infinity on the way.
    std::reverse(terms.begin(), terms.end());
    std::rotate(terms.begin(), terms.begin() + static_cast<std::ptrdiff_t>(terms.size() / 3),
                terms.end());
    sum.add(-kInf);
    for (const double x : terms) sum.sub(x);
    sum.sub(-kInf);
    ASSERT_EQ(bits(sum.value()), bits(0.0)) << "case " << c;
  }
}

TEST(ExactSum, PermutationsGiveTheSameBits) {
  Rng rng{15};
  for (int c = 0; c < 200; ++c) {
    std::vector<double> terms = random_terms(rng, 1 + rng.below(200));
    const double want = reference::exact_sum(terms);
    for (int p = 0; p < 4; ++p) {
      for (std::size_t i = terms.size(); i > 1; --i) std::swap(terms[i - 1], terms[rng.below(i)]);
      ASSERT_EQ(bits(sum_of(terms)), bits(want)) << "case " << c << " permutation " << p;
    }
  }
}

TEST(ExactSum, ScalesExactlyByPowersOfTwo) {
  Rng rng{16};
  for (int c = 0; c < 200; ++c) {
    // Normal terms in [2^-500, 2^500): every scaled total stays normal.
    std::vector<double> terms;
    const std::size_t n = 1 + rng.below(100);
    for (std::size_t i = 0; i < n; ++i) terms.push_back(draw(rng, 523, 1523));
    const double base = sum_of(terms);
    if (base == 0.0 || std::abs(base) < 0x1p-400) continue;
    for (const int k : {-300, -41, -1, 1, 7, 300}) {
      std::vector<double> scaled;
      for (const double x : terms) scaled.push_back(std::ldexp(x, k));
      ASSERT_EQ(bits(sum_of(scaled)), bits(std::ldexp(base, k))) << "case " << c << " k " << k;
    }
  }
}

// Thousands of random cases, some longer than the 2047 terms between
// carry passes, against the reference.
TEST(ExactSum, MatchesTheReferenceOnRandomTerms) {
  Rng rng{17};
  for (int c = 0; c < 3000; ++c) {
    const std::size_t n = c < 2900 ? 1 + rng.below(50) : 2000 + rng.below(6000);
    const std::vector<double> terms = random_terms(rng, n);
    ASSERT_EQ(bits(sum_of(terms)), bits(reference::exact_sum(terms)))
        << "case " << c << ", " << n << " terms";
  }
}

}  // namespace
}  // namespace relmore::util
