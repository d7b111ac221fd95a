#include "relmore/eed/response.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "ode_reference.hpp"
#include "ramp_reference.hpp"
#include "relmore/eed/second_order.hpp"
#include "relmore/sim/source.hpp"
#include "relmore/sim/waveform.hpp"

namespace relmore::eed {
namespace {

NodeModel underdamped_node() {
  NodeModel n;
  n.zeta = 0.5;
  n.omega_n = 1.0e9;
  n.sum_rc = 2.0 * n.zeta / n.omega_n;
  n.sum_lc = 1.0 / (n.omega_n * n.omega_n);
  return n;
}

NodeModel overdamped_node() {
  NodeModel n;
  n.zeta = 1.8;
  n.omega_n = 1.0e9;
  n.sum_rc = 2.0 * n.zeta / n.omega_n;
  n.sum_lc = 1.0 / (n.omega_n * n.omega_n);
  return n;
}

NodeModel rc_node() {
  NodeModel n;
  n.sum_rc = 1e-9;
  n.sum_lc = 0.0;
  n.zeta = std::numeric_limits<double>::infinity();
  n.omega_n = std::numeric_limits<double>::infinity();
  return n;
}

TEST(StepResponse, MatchesScaledForm) {
  const NodeModel n = underdamped_node();
  for (double t : {0.2e-9, 1.0e-9, 3.0e-9}) {
    EXPECT_NEAR(step_response(n, t, 2.0),
                2.0 * scaled_step_response(n.zeta, n.omega_n * t), 1e-12);
  }
  EXPECT_DOUBLE_EQ(step_response(n, -1e-9, 2.0), 0.0);
}

TEST(StepResponse, RcLimitIsExponential) {
  const NodeModel n = rc_node();
  EXPECT_NEAR(step_response(n, 1e-9, 1.0), 1.0 - std::exp(-1.0), 1e-12);
}

TEST(ExpInput, ReducesTowardStepForTinyTau) {
  const NodeModel n = underdamped_node();
  for (double t : {0.5e-9, 1.5e-9, 4.0e-9}) {
    EXPECT_NEAR(exp_input_response(n, t, 1.0, 1e-15), step_response(n, t, 1.0), 1e-4);
  }
}

TEST(ExpInput, StartsAtZeroSettlesAtSupply) {
  for (const NodeModel& n : {underdamped_node(), overdamped_node()}) {
    EXPECT_NEAR(exp_input_response(n, 0.0, 1.8, 0.5e-9), 0.0, 1e-12);
    EXPECT_NEAR(exp_input_response(n, 200.0e-9, 1.8, 0.5e-9), 1.8, 1e-6);
  }
}

TEST(ExpInput, MatchesOdeIntegration) {
  // Cross-check closed form (eq. 44) against RK45 on the same model.
  const double tau = 0.7e-9;
  for (const NodeModel& n : {underdamped_node(), overdamped_node()}) {
    const auto grid = sim::uniform_grid(8.0e-9, 81);
    const sim::Waveform closed =
        sim::sample(grid, [&](double t) { return exp_input_response(n, t, 1.0, tau); });
    const sim::Waveform ode =
        reference::arbitrary_input_waveform(n, sim::ExpSource{1.0, tau}, grid);
    EXPECT_LT(closed.max_abs_difference(ode), 1e-7);
  }
}

TEST(ExpInput, RcLimitTwoTimeConstants) {
  const NodeModel n = rc_node();
  const double tau = 0.4e-9;
  const double T = n.sum_rc;
  const double t = 1.3e-9;
  const double expected =
      1.0 - (T * std::exp(-t / T) - tau * std::exp(-t / tau)) / (T - tau);
  EXPECT_NEAR(exp_input_response(n, t, 1.0, tau), expected, 1e-12);
}

TEST(ExpInput, RcLimitEqualTimeConstants) {
  const NodeModel n = rc_node();
  const double t = 2.0e-9;
  const double T = n.sum_rc;
  const double expected = 1.0 - std::exp(-t / T) * (1.0 + t / T);
  EXPECT_NEAR(exp_input_response(n, t, 1.0, T), expected, 1e-9);
}

/// A long double reference for the exponential-input response, built
/// another way than the closed form: the step response in residue form
/// less the input's decay convolved with the impulse response, pole by
/// pole, each convolution e^{xt}·∫₀ᵗ e^{(y−x)s} ds taken from its Taylor
/// series where the two exponents are close and as a plain difference
/// quotient where they are not.
namespace exp_reference {

using reference::Real;

/// ∫₀ᵗ e^{x(t−s)}·e^{y·s} ds.
Real convolved(Real x, Real y, Real t) {
  const Real c = (y - x) * t;
  if (std::abs(c) > 1) return (std::exp(y * t) - std::exp(x * t)) / (y - x);
  Real sum = 0;
  Real term = 1;  // c^k/(k+1)!
  for (int k = 0; k < 40; ++k) {
    term /= k + 1;
    sum += term;
    term *= c;
  }
  return std::exp(x * t) * t * sum;
}

/// v(t) for V = 1: in seconds on RC nodes, in u = omega_n·t otherwise.
Real response(const NodeModel& node, double t_seconds, double tau_seconds) {
  if (!std::isfinite(node.omega_n)) {
    const Real T = node.sum_rc;
    const Real t = t_seconds;
    return -std::expm1(-t / T) - convolved(-1 / T, -1 / Real(tau_seconds), t) / T;
  }
  const Real zeta = node.zeta;
  const Real u = Real(t_seconds) * node.omega_n;
  const Real a = 1 / (Real(tau_seconds) * node.omega_n);
  const Real d = std::sqrt((zeta - 1) * (zeta + 1));
  const Real p1 = -1 / (zeta + d);
  const Real p2 = -(zeta + d);
  const Real step = 1 + (p2 * std::exp(p1 * u) - p1 * std::exp(p2 * u)) / (p1 - p2);
  return step - (convolved(p1, -a, u) - convolved(p2, -a, u)) / (p1 - p2);
}

}  // namespace exp_reference

TEST(ExpInput, SurvivesPoleCollision) {
  // 1/tau at, and within 1e-12 to 1e-2 relative of, the RC pole and the
  // slow and the fast pole of overdamped nodes: the closed form stays
  // within 1e-14 of the long double reference on times across every
  // time constant in play.
  if (!reference::long_double_is_wider()) GTEST_SKIP() << "long double has only 53 bits";
  struct Case {
    NodeModel node;
    double slow_tau;  ///< the node's slowest and fastest time constants
    double fast_tau;
    bool fast_pole;   ///< whether 1/tau meets the fast pole, not the slow one
  };
  std::vector<Case> cases{{rc_node(), rc_node().sum_rc, rc_node().sum_rc, false}};
  for (const double zeta : {1.5, 3.0, 30.0, 1e4}) {
    NodeModel n;
    n.zeta = zeta;
    n.omega_n = 1e10;
    n.sum_rc = 2.0 * zeta / n.omega_n;
    n.sum_lc = 1.0 / (n.omega_n * n.omega_n);
    const double fast = zeta + std::sqrt((zeta - 1.0) * (zeta + 1.0));
    for (const bool at_fast : {false, true}) {
      cases.push_back({n, fast / n.omega_n, 1.0 / (fast * n.omega_n), at_fast});
    }
  }
  for (const Case& c : cases) {
    const double pole_tau = c.fast_pole ? c.fast_tau : c.slow_tau;
    for (const double delta : {0.0, 1e-12, -1e-12, 2e-9, -2e-9, 1e-6, -1e-6, 1e-4, -1e-4, 1e-2}) {
      const double tau = pole_tau * (1.0 + delta);
      for (double t = 1e-3 * c.fast_tau; t <= 40.0 * c.slow_tau; t *= 1.5) {
        const double v = exp_input_response(c.node, t, 1.0, tau);
        const double err =
            std::abs(static_cast<double>(static_cast<reference::Real>(v) -
                                         exp_reference::response(c.node, t, tau)));
        EXPECT_LE(err, 1e-14) << "zeta=" << c.node.zeta << (c.fast_pole ? " fast" : " slow")
                              << " pole, delta=" << delta << " t=" << t;
      }
    }
  }
}

TEST(ExpInput, RejectsBadTau) {
  EXPECT_THROW((void)exp_input_response(underdamped_node(), 1e-9, 1.0, 0.0),
               std::invalid_argument);
}

TEST(ArbitraryInput, StepMatchesClosedForm) {
  const NodeModel n = underdamped_node();
  const auto grid = sim::uniform_grid(8.0e-9, 81);
  const sim::Waveform ode =
      reference::arbitrary_input_waveform(n, sim::StepSource{1.0}, grid);
  const sim::Waveform closed = sim::sample(grid, [&](double t) { return step_response(n, t); });
  EXPECT_LT(ode.max_abs_difference(closed), 1e-6);
}

TEST(ArbitraryInput, RcNodeRampFollowsInput) {
  // A slow ramp through a fast RC: output tracks input minus T*slope lag.
  const NodeModel n = rc_node();
  const double rise = 50.0e-9;  // much slower than T = 1 ns
  const auto grid = sim::uniform_grid(rise, 51);
  const sim::Waveform w =
      reference::arbitrary_input_waveform(n, sim::RampSource{1.0, rise}, grid);
  const double slope = 1.0 / rise;
  const double mid = w.value_at(25.0e-9);
  EXPECT_NEAR(mid, slope * (25.0e-9 - n.sum_rc), 1e-3);
}

TEST(ArbitraryInput, RejectsEmptyAndDecreasingTimes) {
  const NodeModel n = underdamped_node();
  EXPECT_THROW(reference::arbitrary_input_waveform(n, sim::StepSource{1.0}, {}),
               std::invalid_argument);
  EXPECT_THROW(reference::arbitrary_input_waveform(n, sim::StepSource{1.0}, {1e-9, 0.5e-9}),
               std::invalid_argument);
}

TEST(Waveforms, SampleConsistently) {
  const NodeModel n = underdamped_node();
  const auto grid = sim::uniform_grid(5e-9, 11);
  const sim::Waveform w = sim::sample(grid, [&](double t) { return step_response(n, t, 1.5); });
  ASSERT_EQ(w.size(), 11u);
  for (std::size_t i = 0; i < grid.size(); ++i) {
    EXPECT_DOUBLE_EQ(w.values()[i], step_response(n, grid[i], 1.5));
  }
}

}  // namespace
}  // namespace relmore::eed
