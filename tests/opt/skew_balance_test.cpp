#include "relmore/opt/skew_balance.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "relmore/analysis/report.hpp"
#include "relmore/circuit/builders.hpp"
#include "relmore/sim/measure.hpp"
#include "relmore/sim/tree_transient.hpp"

namespace relmore::opt {
namespace {

using circuit::RlcTree;
using circuit::SectionId;

RlcTree mismatched_h_tree() {
  RlcTree h = circuit::make_h_tree(3, {40.0, 4e-9, 0.4e-12});
  // Perturb two quadrants: one heavier load, one lighter wire. The
  // mismatch is kept mild enough that narrowing-only sizing can close it
  // (larger mismatches clamp at the width floor — covered separately in
  // RespectsWidthFloor).
  const auto sinks = h.leaves();
  h.values(sinks[0]).capacitance *= 1.12;
  h.values(sinks[2]).resistance *= 0.92;
  return h;
}

TEST(SkewBalance, ReducesSkewByLargeFactor) {
  RlcTree h = mismatched_h_tree();
  const SkewBalanceResult r = balance_skew(h);
  EXPECT_GT(r.skew_before, 0.0);
  EXPECT_LT(r.skew_after, r.skew_before / 5.0);
}

TEST(SkewBalance, SlowestSinkUntouched) {
  RlcTree h = mismatched_h_tree();
  const analysis::SkewSummary before = analysis::sink_skew(h);
  const auto sinks = h.leaves();
  const SkewBalanceResult r = balance_skew(h);
  for (std::size_t i = 0; i < sinks.size(); ++i) {
    if (sinks[i] == before.slowest) {
      EXPECT_DOUBLE_EQ(r.sink_widths[i], 1.0);
    } else {
      EXPECT_LE(r.sink_widths[i], 1.0);
    }
  }
}

TEST(SkewBalance, BalancedTreeIsNoOp) {
  RlcTree h = circuit::make_h_tree(3, {40.0, 4e-9, 0.4e-12});
  const SkewBalanceResult r = balance_skew(h);
  EXPECT_NEAR(r.skew_after, 0.0, 1e-15);
  for (double w : r.sink_widths) EXPECT_DOUBLE_EQ(w, 1.0);
}

TEST(SkewBalance, ImprovementHoldsUnderSimulation) {
  // The optimization ran on the closed form; verify the *simulated* skew
  // also improved (the fidelity property in action).
  RlcTree before_tree = mismatched_h_tree();
  RlcTree after_tree = mismatched_h_tree();
  (void)balance_skew(after_tree);

  const auto simulated_skew = [](const RlcTree& t) {
    sim::TransientOptions opts;
    opts.t_stop = 30e-9;
    opts.dt = 3e-12;
    const auto res = sim::simulate_tree(t, sim::StepSource{1.0}, opts);
    double lo = 1e300;
    double hi = -1e300;
    for (const SectionId s : t.leaves()) {
      const double d = res.waveform(s).first_rise_crossing(0.5);
      lo = std::min(lo, d);
      hi = std::max(hi, d);
    }
    return hi - lo;
  };
  const double sim_before = simulated_skew(before_tree);
  const double sim_after = simulated_skew(after_tree);
  EXPECT_LT(sim_after, 0.5 * sim_before);
}

TEST(SkewBalance, RespectsWidthFloor) {
  // An extreme mismatch cannot be fully balanced; widths clamp at the floor.
  RlcTree h = circuit::make_h_tree(2, {40.0, 4e-9, 0.4e-12});
  const auto sinks = h.leaves();
  h.values(sinks[0]).capacitance *= 30.0;  // hopelessly slow quadrant
  SkewBalanceOptions opts;
  opts.width_min = 0.6;
  const SkewBalanceResult r = balance_skew(h, opts);
  EXPECT_GT(r.skew_after, 0.0);  // cannot fully close the gap
  bool clamped = false;
  for (double w : r.sink_widths) {
    EXPECT_GE(w, opts.width_min - 1e-12);
    if (std::abs(w - opts.width_min) < 1e-9) clamped = true;
  }
  EXPECT_TRUE(clamped);
  EXPECT_LE(r.skew_after, r.skew_before);
}

TEST(SkewBalance, ValidatesInputs) {
  RlcTree h = circuit::make_h_tree(2, {40.0, 4e-9, 0.4e-12});
  SkewBalanceOptions bad;
  bad.width_min = 0.0;
  EXPECT_THROW(balance_skew(h, bad), std::invalid_argument);
  bad.width_min = 1.5;
  EXPECT_THROW(balance_skew(h, bad), std::invalid_argument);
  RlcTree empty;
  EXPECT_THROW(balance_skew(empty), std::invalid_argument);
}

}  // namespace
}  // namespace relmore::opt
