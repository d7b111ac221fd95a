#include "relmore/eed/frequency.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "relmore/circuit/builders.hpp"
#include "relmore/eed/model.hpp"
#include "relmore/sim/state_space.hpp"

namespace relmore::eed {
namespace {

/// 20 log10 |H(jw)| and the phase of H(jw) in degrees.
double magnitude_db(const NodeModel& node, double omega) {
  return 20.0 * std::log10(std::abs(transfer_function(node, omega)));
}
double phase_deg(const NodeModel& node, double omega) {
  return std::arg(transfer_function(node, omega)) * 180.0 / M_PI;
}

NodeModel node_with(double zeta, double omega_n) {
  NodeModel n;
  n.zeta = zeta;
  n.omega_n = omega_n;
  n.sum_rc = 2.0 * zeta / omega_n;
  n.sum_lc = 1.0 / (omega_n * omega_n);
  return n;
}

TEST(Frequency, DcGainIsUnity) {
  const NodeModel n = node_with(0.6, 1e10);
  EXPECT_NEAR(std::abs(transfer_function(n, 0.0)), 1.0, 1e-15);
  EXPECT_NEAR(magnitude_db(n, 1.0), 0.0, 1e-6);
  EXPECT_NEAR(phase_deg(n, 0.0), 0.0, 1e-12);
}

TEST(Frequency, MinusNinetyDegreesAtOmegaN) {
  // At w = wn the real part of the denominator vanishes: phase = -90 deg.
  const NodeModel n = node_with(0.4, 2e9);
  EXPECT_NEAR(phase_deg(n, n.omega_n), -90.0, 1e-9);
}

TEST(Frequency, HighFrequencyRollsOffMinus40dBPerDecade) {
  const NodeModel n = node_with(0.7, 1e9);
  const double m1 = magnitude_db(n, 100.0 * n.omega_n);
  const double m2 = magnitude_db(n, 1000.0 * n.omega_n);
  EXPECT_NEAR(m2 - m1, -40.0, 0.1);
}

TEST(Frequency, ResonantPeakFormulas) {
  const NodeModel n = node_with(0.3, 5e9);
  ASSERT_TRUE(has_resonant_peak(n));
  const double wr = peak_frequency(n);
  EXPECT_NEAR(wr, 5e9 * std::sqrt(1.0 - 2.0 * 0.09), 1.0);
  const double mr = peak_magnitude(n);
  EXPECT_NEAR(std::abs(transfer_function(n, wr)), mr, 1e-9);
  // The peak really is the maximum: neighbors are lower.
  EXPECT_GT(mr, std::abs(transfer_function(n, wr * 0.9)));
  EXPECT_GT(mr, std::abs(transfer_function(n, wr * 1.1)));
}

TEST(Frequency, NoPeakAboveCriticalZeta) {
  const NodeModel n = node_with(0.8, 1e9);
  EXPECT_FALSE(has_resonant_peak(n));
  EXPECT_THROW((void)peak_frequency(n), std::invalid_argument);
  EXPECT_THROW((void)peak_magnitude(n), std::invalid_argument);
}

TEST(Frequency, BandwidthIsMinus3dBPoint) {
  for (double zeta : {0.3, 0.7, 1.5}) {
    const NodeModel n = node_with(zeta, 1e9);
    const double w3 = bandwidth_3db(n);
    EXPECT_NEAR(magnitude_db(n, w3), -3.0103, 1e-3) << "zeta=" << zeta;
  }
}

TEST(Frequency, RcLimitSinglePole) {
  NodeModel rc;
  rc.sum_rc = 1e-9;
  rc.sum_lc = 0.0;
  rc.zeta = std::numeric_limits<double>::infinity();
  rc.omega_n = std::numeric_limits<double>::infinity();
  EXPECT_NEAR(bandwidth_3db(rc), 1e9, 1.0);
  EXPECT_NEAR(std::abs(transfer_function(rc, 1e9)), M_SQRT1_2, 1e-9);
  EXPECT_NEAR(phase_deg(rc, 1e9), -45.0, 1e-9);
  EXPECT_FALSE(has_resonant_peak(rc));
}

TEST(Frequency, RejectsBadArguments) {
  const NodeModel n = node_with(0.5, 1e9);
  EXPECT_THROW((void)transfer_function(n, -1.0), std::invalid_argument);
}

TEST(Frequency, MatchesExactTransferAtLowFrequency) {
  // Below the first resonance the 2nd-order model should track the exact
  // state-space transfer function of the full tree.
  const circuit::RlcTree t = circuit::make_fig5_tree({25.0, 2e-9, 0.2e-12}, nullptr);
  const auto model = analyze(t);
  const auto& nm = model.at(6);
  const sim::ModalSolver exact(t);
  for (double frac : {0.05, 0.1, 0.2}) {
    const double w = frac * nm.omega_n;
    const auto h_model = transfer_function(nm, w);
    const auto h_exact = exact.transfer(6, w);
    EXPECT_NEAR(std::abs(h_model - h_exact), 0.0, 0.02) << "w=" << w;
  }
}

TEST(Frequency, ExactTransferDcGainUnity) {
  const circuit::RlcTree t = circuit::make_fig8_tree(nullptr);
  const sim::ModalSolver exact(t);
  const auto h0 = exact.transfer(t.find_by_name("O"), 0.0);
  EXPECT_NEAR(h0.real(), 1.0, 1e-9);
  EXPECT_NEAR(h0.imag(), 0.0, 1e-9);
}

}  // namespace
}  // namespace relmore::eed
