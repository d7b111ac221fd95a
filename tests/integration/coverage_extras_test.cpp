#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "relmore/analysis/compare.hpp"
#include "relmore/analysis/report.hpp"
#include "relmore/circuit/builders.hpp"
#include "relmore/circuit/netlist.hpp"
#include "relmore/eed/eed.hpp"
#include "relmore/eed/frequency.hpp"
#include "relmore/linalg/eigen.hpp"
#include "relmore/moments/pole_residue.hpp"
#include "relmore/sim/adaptive.hpp"
#include "relmore/sim/measure.hpp"
#include "relmore/sim/state_space.hpp"
#include "relmore/sim/waveform.hpp"

namespace relmore {
namespace {

using circuit::RlcTree;
using circuit::SectionId;

TEST(CoverageExtras, EigenTrivialSizes) {
  const linalg::Matrix one = linalg::Matrix::from_rows({{-3.5}});
  const auto v1 = linalg::eigenvalues(one);
  ASSERT_EQ(v1.size(), 1u);
  EXPECT_NEAR(v1[0].real(), -3.5, 1e-14);
  const auto id = linalg::eigenvalues(linalg::Matrix::identity(4));
  for (const auto& v : id) EXPECT_NEAR(v.real(), 1.0, 1e-10);
}

TEST(CoverageExtras, EigenJordanBlockEigenvaluesCorrect) {
  // Defective matrix [[2,1],[0,2]]: eigenvalues are both 2 even though the
  // eigenvector basis is deficient (eigen_decompose guards the division).
  const linalg::Matrix j = linalg::Matrix::from_rows({{2.0, 1.0}, {0.0, 2.0}});
  const auto vals = linalg::eigenvalues(j);
  for (const auto& v : vals) {
    EXPECT_NEAR(v.real(), 2.0, 1e-9);
    EXPECT_NEAR(v.imag(), 0.0, 1e-9);
  }
}

/// Frequency-domain property sweep: the 2-pole model's |H| tracks the
/// exact tree transfer at the sink up to ~the natural frequency, for all
/// damping levels of the Fig. 5 tree.
class FrequencyTrackingSweep : public ::testing::TestWithParam<double> {};

TEST_P(FrequencyTrackingSweep, ModelTracksExactBelowResonance) {
  RlcTree t = circuit::make_fig5_tree({25.0, 2e-9, 0.2e-12}, nullptr);
  analysis::scale_inductance_for_zeta(t, 6, GetParam());
  const auto model = eed::analyze(t);
  const auto& nm = model.at(6);
  const sim::ModalSolver exact(t);
  for (double frac : {0.05, 0.15, 0.3}) {
    const double w = frac * nm.omega_n;
    const double mag_model = std::abs(eed::transfer_function(nm, w));
    const double mag_exact = std::abs(exact.transfer(6, w));
    EXPECT_NEAR(mag_model, mag_exact, 0.05 * mag_exact + 0.01)
        << "zeta=" << GetParam() << " frac=" << frac;
  }
}

INSTANTIATE_TEST_SUITE_P(Integration, FrequencyTrackingSweep,
                         ::testing::Values(0.5, 0.8, 1.2, 2.0));

TEST(CoverageExtras, SpiceRoundTripPreservesHTreeTiming) {
  const RlcTree h = circuit::make_h_tree(3, {40.0, 4e-9, 0.4e-12});
  std::stringstream deck;
  circuit::write_spice(h, deck);
  const RlcTree back = circuit::read_spice(deck);
  ASSERT_EQ(back.size(), h.size());
  const auto skew_a = analysis::sink_skew(h);
  const auto skew_b = analysis::sink_skew(back);
  EXPECT_NEAR(skew_a.min_delay, skew_b.min_delay, 1e-9 * skew_a.min_delay);
  EXPECT_NEAR(skew_a.skew(), skew_b.skew(), 1e-20);
}

TEST(CoverageExtras, CombTreeTimingSane) {
  const RlcTree comb =
      circuit::make_comb_tree(6, {30.0, 1.5e-9, 0.1e-12}, {8.0, 0.4e-9, 0.25e-12});
  const auto rows = analysis::tree_timing_report(comb);
  // Teeth further down the spine are strictly slower.
  double prev = 0.0;
  for (const auto& r : rows) {
    if (!r.is_sink) continue;
    EXPECT_GT(r.delay_50, prev);
    prev = r.delay_50;
  }
}

TEST(CoverageExtras, AdaptiveHandlesExponentialSource) {
  const RlcTree t = circuit::make_fig5_tree({25.0, 2e-9, 0.2e-12}, nullptr);
  sim::AdaptiveOptions opts;
  opts.t_stop = 6e-9;
  opts.tol = 1e-4;
  const auto res = sim::simulate_tree_adaptive(t, sim::ExpSource{1.0, 0.5e-9}, opts);
  const sim::ModalSolver exact(t);
  const auto w = res.waveform(6);
  const auto ref = exact.response_waveform(6, sim::ExpSource{1.0, 0.5e-9}, w.times());
  EXPECT_LT(w.max_abs_difference(ref), 5e-3);
}

TEST(CoverageExtras, MeasurementOnAweWaveformMatchesClosedForms) {
  // Chain: moments -> AWE q=2 -> waveform -> measurement should agree with
  // the EED closed forms on a single section (both exact there).
  RlcTree t;
  t.add_section(circuit::kInput, 40.0, 2e-9, 0.5e-12);
  const auto models = moments::awe_models_for_tree(t, 2);
  const auto nm = eed::analyze(t).at(0);
  const double horizon = analysis::suggest_horizon(nm);
  const auto grid = sim::uniform_grid(horizon, 8001);
  const auto w = sim::sample(grid, [&](double t) { return models[0].step_response(t); });
  const auto m = sim::measure_rising(w, 1.0);
  EXPECT_NEAR(m.delay_50, eed::delay_50_exact(nm), 2e-3 * eed::delay_50_exact(nm) + 1e-13);
  EXPECT_NEAR(m.rise_10_90, eed::rise_time_exact(nm),
              2e-3 * eed::rise_time_exact(nm) + 1e-13);
  if (nm.underdamped()) {
    EXPECT_NEAR(m.overshoot_pct, eed::overshoot_pct(nm, 1), 0.2);
  }
}

TEST(CoverageExtras, TimingReportConsistentWithSkewBalanceTargets) {
  RlcTree h = circuit::make_h_tree(3, {40.0, 4e-9, 0.4e-12});
  h.values(h.leaves()[1]).capacitance *= 1.1;
  const auto before = analysis::sink_skew(h);
  const auto rows = analysis::tree_timing_report(h);
  // The report's max sink delay equals the skew summary's slowest delay.
  double max_sink = 0.0;
  for (const auto& r : rows) {
    if (r.is_sink) max_sink = std::max(max_sink, r.delay_50);
  }
  EXPECT_NEAR(max_sink, before.max_delay, 1e-20);
}

}  // namespace
}  // namespace relmore
