#include "relmore/opt/wire_sizing.hpp"

#include <gtest/gtest.h>

#include "relmore/analysis/compare.hpp"
#include "relmore/eed/eed.hpp"
#include "relmore/sim/measure.hpp"
#include "relmore/util/worker_pool.hpp"

namespace relmore::opt {
namespace {

WireSizingProblem small_problem() {
  WireSizingProblem p;
  p.segments = 4;
  return p;
}

TEST(WireSizing, BuildsExpectedTopology) {
  const WireSizingProblem p = small_problem();
  const auto tree = build_sized_line(p, {1.0, 1.0, 1.0, 1.0});
  // driver + 4 segments + load
  EXPECT_EQ(tree.size(), 6u);
  EXPECT_EQ(tree.section(0).name, "driver");
  EXPECT_EQ(tree.section(5).name, "load");
  EXPECT_DOUBLE_EQ(tree.section(0).v.resistance, p.driver_resistance);
  EXPECT_DOUBLE_EQ(tree.section(5).v.capacitance, p.load_capacitance);
}

TEST(WireSizing, WidthModelAppliesPerSegment) {
  const WireSizingProblem p = small_problem();
  const auto tree = build_sized_line(p, {2.0, 1.0, 1.0, 1.0});
  // Segment 0 at w=2: R halves, C = area*2 + fringe.
  EXPECT_DOUBLE_EQ(tree.section(1).v.resistance, p.unit_resistance / 2.0);
  EXPECT_DOUBLE_EQ(tree.section(1).v.capacitance,
                   p.unit_area_cap * 2.0 + p.unit_fringe_cap);
  // Weak L(w) reduction at w=2.
  EXPECT_LT(tree.section(1).v.inductance, p.unit_inductance);
  EXPECT_GT(tree.section(1).v.inductance, 0.5 * p.unit_inductance);
}

TEST(WireSizing, ValidatesInputs) {
  WireSizingProblem bad = small_problem();
  bad.segments = 0;
  EXPECT_THROW(build_sized_line(bad, {}), std::invalid_argument);
  const WireSizingProblem p = small_problem();
  EXPECT_THROW(build_sized_line(p, {1.0}), std::invalid_argument);
  EXPECT_THROW(build_sized_line(p, {1.0, 1.0, 0.0, 1.0}), std::invalid_argument);
}

TEST(WireSizing, OptimizerImprovesOnUniform) {
  const WireSizingProblem p = small_problem();
  const std::vector<double> uniform(4, 1.0);
  for (DelayModel model : {DelayModel::kWyattRc, DelayModel::kEquivalentElmore}) {
    const double base = sized_line_delay(p, uniform, model);
    const WireSizingResult r = optimize_wire_sizing(p, model);
    EXPECT_LE(r.delay, base);
    EXPECT_TRUE(r.converged);
    for (double w : r.widths) {
      EXPECT_GE(w, p.width_min);
      EXPECT_LE(w, p.width_max);
    }
  }
}

TEST(WireSizing, RcOptimumTapersFromSource) {
  // Classic RC wire-sizing result [18]: optimal widths decrease toward the
  // sink (wide near the driver, narrow near the load).
  WireSizingProblem p = small_problem();
  p.unit_inductance = 0.0;  // pure RC sizing
  const WireSizingResult r = optimize_wire_sizing(p, DelayModel::kWyattRc);
  for (std::size_t i = 1; i < r.widths.size(); ++i) {
    EXPECT_LE(r.widths[i], r.widths[i - 1] + 1e-3) << "segment " << i;
  }
}

TEST(WireSizing, EedOptimumBeatsRcOptimumUnderSimulation) {
  // Size the wire under each model, then score both choices with the
  // reference simulator: the inductance-aware model must not be worse.
  const WireSizingProblem p = small_problem();
  const WireSizingResult rc = optimize_wire_sizing(p, DelayModel::kWyattRc);
  const WireSizingResult ed = optimize_wire_sizing(p, DelayModel::kEquivalentElmore);

  const auto simulate = [&](const std::vector<double>& widths) {
    const auto tree = build_sized_line(p, widths);
    const auto sink = static_cast<circuit::SectionId>(tree.size() - 1);
    const auto cmp = analysis::compare_step_response(tree, sink);
    return cmp.ref_delay_50;
  };
  const double sim_rc = simulate(rc.widths);
  const double sim_ed = simulate(ed.widths);
  EXPECT_LE(sim_ed, sim_rc * 1.02);  // within noise or better
}

TEST(WireSizing, BatchedCandidateSweepMatchesScalarBitwise) {
  // sized_line_delays puts one candidate per kernel lane; every lane runs
  // the scalar pass's operations in the scalar order, so each delay must
  // be bitwise equal to the one-at-a-time sized_line_delay path.
  const WireSizingProblem p = small_problem();
  std::vector<std::vector<double>> candidates;
  for (int i = 0; i < 11; ++i) {  // 11 candidates: ragged lane-group tail
    std::vector<double> w(4, 1.0);
    w[static_cast<std::size_t>(i) % 4] = 0.5 + 0.3 * static_cast<double>(i);
    candidates.push_back(w);
  }
  for (DelayModel model : {DelayModel::kWyattRc, DelayModel::kEquivalentElmore}) {
    const std::vector<double> batched = sized_line_delays(p, candidates, model);
    ASSERT_EQ(batched.size(), candidates.size());
    for (std::size_t s = 0; s < candidates.size(); ++s) {
      EXPECT_EQ(batched[s], sized_line_delay(p, candidates[s], model))
          << "candidate " << s << " model " << static_cast<int>(model);
    }
  }
}

TEST(WireSizing, BatchedSweepComposesWithPool) {
  const WireSizingProblem p = small_problem();
  std::vector<std::vector<double>> candidates(9, std::vector<double>(4, 1.0));
  for (std::size_t s = 0; s < candidates.size(); ++s) {
    candidates[s][0] = 0.6 + 0.2 * static_cast<double>(s);
  }
  const std::vector<double> serial =
      sized_line_delays(p, candidates, DelayModel::kEquivalentElmore);
  util::WorkerPool pool(4);
  const std::vector<double> pooled =
      sized_line_delays(p, candidates, DelayModel::kEquivalentElmore, &pool);
  EXPECT_EQ(serial, pooled);
}

TEST(WireSizing, BatchedOptimizerMatchesScalarOptimizer) {
  const WireSizingProblem p = small_problem();
  const WireSizingResult scalar = optimize_wire_sizing(p, DelayModel::kEquivalentElmore);
  const WireSizingResult batched = optimize_wire_sizing_batched(p, DelayModel::kEquivalentElmore);
  ASSERT_EQ(batched.widths.size(), scalar.widths.size());
  for (const double w : batched.widths) {
    EXPECT_GE(w, p.width_min);
    EXPECT_LE(w, p.width_max);
  }
  // Different search strategies, same objective: the batched grid sweep
  // must land within a percent of the golden-section optimum.
  EXPECT_NEAR(batched.delay, scalar.delay, 0.01 * scalar.delay);
  EXPECT_LE(batched.delay,
            sized_line_delay(p, std::vector<double>(4, 1.0), DelayModel::kEquivalentElmore));
}

TEST(WireSizing, BatchedSweepRejectsBadInput) {
  const WireSizingProblem p = small_problem();
  EXPECT_TRUE(sized_line_delays(p, {}, DelayModel::kEquivalentElmore).empty());
  EXPECT_THROW(
      (void)sized_line_delays(p, {{1.0, 1.0}}, DelayModel::kEquivalentElmore),
      std::invalid_argument);  // wrong width count
  BatchedSizingOptions bad;
  bad.grid = 1;
  EXPECT_THROW((void)optimize_wire_sizing_batched(p, DelayModel::kEquivalentElmore, bad),
               std::invalid_argument);
}

TEST(WireSizing, ModelEnumIsExhaustive) {
  const WireSizingProblem p = small_problem();
  const std::vector<double> w(4, 1.0);
  EXPECT_GT(sized_line_delay(p, w, DelayModel::kWyattRc), 0.0);
  EXPECT_GT(sized_line_delay(p, w, DelayModel::kEquivalentElmore), 0.0);
}

}  // namespace
}  // namespace relmore::opt
