#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "ode_reference.hpp"
#include "relmore/eed/response.hpp"
#include "relmore/eed/second_order.hpp"
#include "relmore/sim/waveform.hpp"

namespace relmore::eed {
namespace {

NodeModel node_with(double zeta, double omega_n) {
  NodeModel n;
  n.zeta = zeta;
  n.omega_n = omega_n;
  n.sum_rc = 2.0 * zeta / omega_n;
  n.sum_lc = 1.0 / (omega_n * omega_n);
  return n;
}

TEST(RampResponse, ZeroRiseIsStep) {
  const NodeModel n = node_with(0.5, 1e9);
  for (double t : {0.5e-9, 2e-9}) {
    EXPECT_DOUBLE_EQ(ramp_input_response(n, t, 1.0, 0.0), step_response(n, t, 1.0));
  }
}

TEST(RampResponse, StartsAtZero) {
  const NodeModel n = node_with(0.5, 1e9);
  EXPECT_DOUBLE_EQ(ramp_input_response(n, 0.0, 1.0, 1e-9), 0.0);
  EXPECT_DOUBLE_EQ(ramp_input_response(n, -1e-9, 1.0, 1e-9), 0.0);
}

TEST(RampResponse, SettlesAtSupply) {
  for (double zeta : {0.4, 1.0, 2.0}) {
    const NodeModel n = node_with(zeta, 1e9);
    EXPECT_NEAR(ramp_input_response(n, 300e-9, 1.8, 1e-9), 1.8, 1e-5) << zeta;
  }
}

TEST(RampResponse, MatchesOdeIntegration) {
  const double rise = 0.8e-9;
  for (double zeta : {0.4, 1.0, 1.8}) {
    const NodeModel n = node_with(zeta, 2e9);
    const auto grid = sim::uniform_grid(6e-9, 61);
    const sim::Waveform closed =
        sim::sample(grid, [&](double t) { return ramp_input_response(n, t, 1.0, rise); });
    const sim::Waveform ode =
        reference::arbitrary_input_waveform(n, sim::RampSource{1.0, rise}, grid);
    EXPECT_LT(closed.max_abs_difference(ode), 1e-7) << "zeta=" << zeta;
  }
}

TEST(RampResponse, RcLimitMatchesOde) {
  NodeModel rc;
  rc.sum_rc = 0.5e-9;
  rc.sum_lc = 0.0;
  rc.zeta = std::numeric_limits<double>::infinity();
  rc.omega_n = std::numeric_limits<double>::infinity();
  const double rise = 1e-9;
  const auto grid = sim::uniform_grid(6e-9, 61);
  const sim::Waveform closed =
      sim::sample(grid, [&](double t) { return ramp_input_response(rc, t, 1.0, rise); });
  const sim::Waveform ode =
      reference::arbitrary_input_waveform(rc, sim::RampSource{1.0, rise}, grid);
  EXPECT_LT(closed.max_abs_difference(ode), 1e-7);
}

TEST(RampResponse, SlowerRampReducesOvershoot) {
  // Same physics the paper notes for exponential inputs (§V-A): slower
  // edges excite less of the resonance.
  const NodeModel n = node_with(0.3, 1e9);
  const auto grid = sim::uniform_grid(60e-9, 2001);
  const auto peak = [&](double rise) {
    return sim::sample(grid, [&](double t) { return ramp_input_response(n, t, 1.0, rise); })
        .max_value();
  };
  const double fast_peak = peak(0.1e-9);
  const double slow_peak = peak(20e-9);
  EXPECT_GT(fast_peak, 1.2);
  EXPECT_LT(slow_peak, fast_peak);
  EXPECT_LT(slow_peak, 1.1);
}

TEST(RampResponse, LinearRegionTracksRampWithLag) {
  // Well into a long ramp, the output follows the input delayed by the
  // first moment (sum RC) — a classic interconnect rule of thumb.
  const NodeModel n = node_with(1.5, 5e9);
  const double rise = 100e-9;  // much slower than 1/omega_n
  const double slope = 1.0 / rise;
  const double t = 50e-9;
  const double expected = slope * (t - n.sum_rc);
  EXPECT_NEAR(ramp_input_response(n, t, 1.0, rise), expected, 1e-4);
}

}  // namespace
}  // namespace relmore::eed
