#include "relmore/util/roots.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

namespace relmore::util {
namespace {

TEST(Brent, FindsSimpleRoot) {
  const auto r = brent([](double x) { return x * x - 2.0; }, 0.0, 2.0);
  ASSERT_TRUE(r.has_value());
  EXPECT_NEAR(*r, std::sqrt(2.0), 1e-12);
}

TEST(Brent, FindsTranscendentalRoot) {
  const auto r = brent([](double x) { return std::cos(x) - x; }, 0.0, 1.0);
  ASSERT_TRUE(r.has_value());
  EXPECT_NEAR(*r, 0.7390851332151607, 1e-12);
}

TEST(Brent, RejectsInvalidBracket) {
  EXPECT_FALSE(brent([](double x) { return x * x + 1.0; }, -1.0, 1.0).has_value());
}

TEST(Brent, AcceptsRootAtEndpoint) {
  const auto r = brent([](double x) { return x; }, 0.0, 1.0);
  ASSERT_TRUE(r.has_value());
  EXPECT_DOUBLE_EQ(*r, 0.0);
}

TEST(Brent, SteepFunction) {
  const auto r = brent([](double x) { return std::exp(20.0 * x) - 5.0; }, -1.0, 1.0);
  ASSERT_TRUE(r.has_value());
  EXPECT_NEAR(*r, std::log(5.0) / 20.0, 1e-10);
}

// The end-values entry is the loop brent() runs: handed f(a) and f(b), it
// returns brent()'s root bit for bit, two evaluations sooner.
TEST(BrentBracketed, EndValuesEntryReturnsThePlainEntrysRoot) {
  int calls = 0;
  const auto f = [&calls](double x) {
    ++calls;
    return std::cos(x) - x;
  };
  const double brackets[][2] = {{0.0, 1.0}, {-2.0, 3.0}, {0.7, 0.75}, {1.0, 0.0}};
  for (const auto& ab : brackets) {
    calls = 0;
    const auto plain = brent(f, ab[0], ab[1]);
    const int plain_calls = calls;
    const double fa = f(ab[0]);
    const double fb = f(ab[1]);
    calls = 0;
    const auto ends = brent_bracketed(f, ab[0], ab[1], fa, fb);
    ASSERT_TRUE(plain.has_value());
    ASSERT_TRUE(ends.has_value());
    EXPECT_EQ(std::bit_cast<std::uint64_t>(*ends), std::bit_cast<std::uint64_t>(*plain))
        << ab[0] << " " << ab[1];
    EXPECT_EQ(calls, plain_calls - 2);
  }
}

TEST(BrentBracketed, RejectsGivenEndsThatShareASign) {
  const auto f = [](double x) { return x * x + 1.0; };
  EXPECT_FALSE(brent_bracketed(f, -1.0, 1.0, f(-1.0), f(1.0)).has_value());
  // The given values decide, not f: x brackets 0 on [-1, 1], but ends
  // handed in as (1, 2) share a sign.
  EXPECT_FALSE(brent_bracketed([](double x) { return x; }, -1.0, 1.0, 1.0, 2.0).has_value());
  EXPECT_FALSE(brent_bracketed([](double x) { return x; }, -1.0, 1.0, -2.0, -1.0).has_value());
}

// Property sweep: Brent finds sin roots at k*pi from tight brackets.
class BrentSinSweep : public ::testing::TestWithParam<int> {};

TEST_P(BrentSinSweep, FindsKPi) {
  const int k = GetParam();
  const double target = k * M_PI;
  const auto r = brent([](double x) { return std::sin(x); }, target - 1.0, target + 1.0);
  ASSERT_TRUE(r.has_value());
  EXPECT_NEAR(*r, target, 1e-10 * (1.0 + target));
}

INSTANTIATE_TEST_SUITE_P(Roots, BrentSinSweep, ::testing::Values(1, 2, 3, 5, 8, 13, 21));

}  // namespace
}  // namespace relmore::util
