// eed::ramp_stage_checked against its reference: three independent
// util::find_root_forward searches (10/50/90%) on ramp_input_response,
// each from t = 0. The kernel shares one bracket scan and one pole/residue
// set between the levels, and must land on the same bits.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <random>
#include <string>

#include "relmore/eed/model.hpp"
#include "relmore/eed/response.hpp"
#include "relmore/eed/second_order.hpp"
#include "relmore/util/roots.hpp"

namespace relmore::eed {
namespace {

using util::ErrorCode;

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// First crossing of `level` by one forward search of its own.
std::optional<double> reference_crossing(const NodeModel& node, double rise, double level) {
  const auto f = [&](double t) { return ramp_input_response(node, t, 1.0, rise) - level; };
  const double scale = std::max(rise, std::max(delay_50(node), 1e-18));
  return util::find_root_forward(f, 0.0, 0.05 * scale, 1.6, 400);
}

/// The reference stage: step closed forms at rise 0, else three searches.
std::optional<RampStage> reference_stage(const NodeModel& node, double rise) {
  if (rise == 0.0) return RampStage{delay_50(node), rise_time(node)};
  const std::optional<double> t50 = reference_crossing(node, rise, 0.5);
  const std::optional<double> t10 = reference_crossing(node, rise, 0.1);
  const std::optional<double> t90 = reference_crossing(node, rise, 0.9);
  if (!t50 || !t10 || !t90) return std::nullopt;
  return RampStage{*t50 - 0.5 * rise, *t90 - *t10};
}

NodeModel node_with(double zeta, double sum_rc) {
  NodeModel n;
  n.zeta = zeta;
  n.sum_rc = sum_rc;
  n.omega_n = 2.0 * zeta / sum_rc;
  n.sum_lc = 1.0 / (n.omega_n * n.omega_n);
  return n;
}

/// Log-uniform in [lo, hi].
double log_uniform(std::mt19937_64& rng, double lo, double hi) {
  std::uniform_real_distribution<double> u(std::log(lo), std::log(hi));
  return std::exp(u(rng));
}

/// Draws `count` nodes from `make`, each at a slew from 1e-3x to 1e3x its
/// delay_50 (every eighth at slew 0), and compares kernel and reference.
template <typename MakeNode>
void expect_same_bits(std::uint64_t seed, int count, MakeNode make) {
  std::mt19937_64 rng(seed);
  int timed = 0;
  for (int i = 0; i < count; ++i) {
    const NodeModel node = make(rng);
    const double rise = i % 8 == 0 ? 0.0 : delay_50(node) * log_uniform(rng, 1e-3, 1e3);
    const std::optional<RampStage> want = reference_stage(node, rise);
    const util::Result<RampStage> got = ramp_stage_checked(node, rise);
    ASSERT_EQ(got.is_ok(), want.has_value())
        << "zeta=" << node.zeta << " omega_n=" << node.omega_n << " rise=" << rise;
    if (!want) continue;
    ++timed;
    EXPECT_EQ(bits(got.value().delay), bits(want->delay))
        << "zeta=" << node.zeta << " omega_n=" << node.omega_n << " rise=" << rise;
    EXPECT_EQ(bits(got.value().output_rise), bits(want->output_rise))
        << "zeta=" << node.zeta << " omega_n=" << node.omega_n << " rise=" << rise;
  }
  EXPECT_EQ(timed, count);  // every draw here has all three crossings
}

TEST(RampStage, MatchesThreeForwardSearchesOverTheDampingRange) {
  expect_same_bits(1, 2000, [](std::mt19937_64& rng) {
    return node_with(log_uniform(rng, 0.03, 30.0), log_uniform(rng, 1e-13, 1e-10));
  });
}

TEST(RampStage, MatchesThreeForwardSearchesAtRcLimitNodes) {
  expect_same_bits(2, 1000, [](std::mt19937_64& rng) {
    return node_model(log_uniform(rng, 1e-13, 1e-10), 0.0);  // SL = 0: zeta = omega_n = inf
  });
}

TEST(RampStage, MatchesThreeForwardSearchesAtTheSplitDoublePole) {
  // |zeta - 1| < 1e-7: node_poles moves zeta to 1 + 1e-7 before the
  // partial fractions.
  expect_same_bits(3, 1000, [](std::mt19937_64& rng) {
    std::uniform_real_distribution<double> offset(-0.99e-7, 0.99e-7);
    return node_with(1.0 + offset(rng), log_uniform(rng, 1e-13, 1e-10));
  });
}

TEST(RampStage, ZeroSlewIsTheStepClosedForms) {
  for (const NodeModel& node : {node_with(0.4, 1e-11), node_with(3.0, 2e-12),
                                node_model(5e-12, 0.0)}) {
    const util::Result<RampStage> got = ramp_stage_checked(node, 0.0);
    ASSERT_TRUE(got.is_ok());
    EXPECT_EQ(bits(got.value().delay), bits(delay_50(node)));
    EXPECT_EQ(bits(got.value().output_rise), bits(rise_time(node)));
  }
}

TEST(RampStage, NegativeSlewIsAStatusNotAThrow) {
  util::Result<RampStage> got = RampStage{};
  EXPECT_NO_THROW(got = ramp_stage_checked(node_with(0.5, 1e-11), -1e-12));
  ASSERT_FALSE(got.is_ok());
  EXPECT_EQ(got.status().code(), ErrorCode::kNegativeValue);
}

TEST(RampStage, NeverCrossedIsAStatusNotAThrow) {
  // An infinite ramp never lifts the output off 0: no level is crossed,
  // and the reference searches give up the same way.
  const double inf = std::numeric_limits<double>::infinity();
  for (const NodeModel& node : {node_with(0.5, 1e-11), node_model(1e-11, 0.0)}) {
    ASSERT_FALSE(reference_stage(node, inf).has_value());
    util::Result<RampStage> got = RampStage{};
    EXPECT_NO_THROW(got = ramp_stage_checked(node, inf));
    ASSERT_FALSE(got.is_ok());
    EXPECT_EQ(got.status().code(), ErrorCode::kInvalidArgument);
    EXPECT_NE(got.status().message().find("never crosses"), std::string::npos);
  }
}

}  // namespace
}  // namespace relmore::eed
