#include "relmore/eed/second_order.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "ramp_reference.hpp"

namespace relmore::eed {
namespace {

TEST(ScaledResponse, StartsAtZeroEndsAtOne) {
  for (double zeta : {0.0, 0.2, 0.7, 1.0, 1.5, 3.0}) {
    EXPECT_DOUBLE_EQ(scaled_step_response(zeta, 0.0), 0.0) << zeta;
    EXPECT_DOUBLE_EQ(scaled_step_response(zeta, -1.0), 0.0) << zeta;
    const double late = zeta >= 1.0 ? 400.0 * zeta : 200.0 / std::max(zeta, 0.05);
    if (zeta > 0.0) {
      EXPECT_NEAR(scaled_step_response(zeta, late), 1.0, 1e-6) << zeta;
    }
  }
}

TEST(ScaledResponse, PureLcOscillates) {
  // zeta = 0: v = 1 - cos(t').
  for (double tp : {0.3, 1.0, 2.0, M_PI}) {
    EXPECT_NEAR(scaled_step_response(0.0, tp), 1.0 - std::cos(tp), 1e-12);
  }
  // Peak value 2 at t' = pi.
  EXPECT_NEAR(scaled_step_response(0.0, M_PI), 2.0, 1e-12);
}

TEST(ScaledResponse, ContinuousAcrossCriticalDamping) {
  for (double tp : {0.5, 1.0, 2.0, 5.0}) {
    const double below = scaled_step_response(1.0 - 1e-6, tp);
    const double at = scaled_step_response(1.0, tp);
    const double above = scaled_step_response(1.0 + 1e-6, tp);
    EXPECT_NEAR(below, at, 1e-5) << "t'=" << tp;
    EXPECT_NEAR(above, at, 1e-5) << "t'=" << tp;
  }
}

// Next to critical damping the under- and overdamped forms stay exact,
// so nothing snaps them to the double-pole form, which is off there by
// ~|zeta - 1|. The long double reference gives the response, and a
// five-point stencil over it the derivative (truncation ~1e-14 at h = 1e-3).
TEST(ScaledResponse, ExactNextToCriticalDamping) {
  if (!reference::long_double_is_wider()) GTEST_SKIP() << "long double has only 53 bits";
  for (const double offset : {0x1p-52, 1e-12, 1e-9, 5e-8, 1e-7}) {
    for (const double zeta : {1.0 - offset, 1.0 + offset}) {
      NodeModel node;
      node.zeta = zeta;
      node.omega_n = 1.0;
      node.sum_lc = 1.0;
      node.sum_rc = 2.0 * zeta;
      const reference::Response v(node, 0.0);
      const long double h = 1e-3L;
      for (int i = 0; i <= 400; ++i) {
        const double u = 0.01 + (40.0 - 0.01) * i / 400.0;
        const long double slope =
            (v(u - 2 * h) - 8 * v(u - h) + 8 * v(u + h) - v(u + 2 * h)) / (12 * h);
        EXPECT_NEAR(scaled_step_response(zeta, u), static_cast<double>(v(u)), 1e-15)
            << "zeta = 1 " << (zeta < 1.0 ? "- " : "+ ") << offset << ", u = " << u;
        EXPECT_NEAR(scaled_step_derivative(zeta, u), static_cast<double>(slope), 1e-12)
            << "zeta = 1 " << (zeta < 1.0 ? "- " : "+ ") << offset << ", u = " << u;
      }
    }
  }
}

TEST(ScaledResponse, OverdampedMonotone) {
  double prev = -1.0;
  for (double tp = 0.0; tp < 50.0; tp += 0.25) {
    const double v = scaled_step_response(2.0, tp);
    EXPECT_GE(v, prev - 1e-12);
    prev = v;
  }
}

TEST(ScaledResponse, LargeArgumentOverflowGuard) {
  // Very overdamped, very late: must not overflow to NaN/inf.
  const double v = scaled_step_response(50.0, 5000.0);
  EXPECT_TRUE(std::isfinite(v));
  EXPECT_NEAR(v, 1.0, 1e-6);
}

TEST(ScaledResponse, RejectsNegativeZeta) {
  EXPECT_THROW(scaled_step_response(-0.1, 1.0), std::invalid_argument);
}

TEST(ScaledDerivative, MatchesFiniteDifference) {
  for (double zeta : {0.3, 1.0, 2.5}) {
    for (double tp : {0.4, 1.3, 3.0}) {
      const double h = 1e-6;
      const double fd =
          (scaled_step_response(zeta, tp + h) - scaled_step_response(zeta, tp - h)) / (2 * h);
      EXPECT_NEAR(scaled_step_derivative(zeta, tp), fd, 1e-6) << zeta << " " << tp;
    }
  }
}

TEST(ScaledDelay, PureLcIsPiOverThree) {
  // 1 - cos(t') = 0.5 at t' = pi/3 — the paper's 1.047 anchor.
  EXPECT_NEAR(scaled_delay_exact(0.0), M_PI / 3.0, 1e-10);
}

TEST(ScaledDelay, RcLimitApproachesWyatt) {
  // Large zeta: dominant pole at -1/(2 zeta) (scaled), so t'_50 -> 2 zeta ln2.
  const double zeta = 20.0;
  EXPECT_NEAR(scaled_delay_exact(zeta), 2.0 * zeta * std::log(2.0), 0.02 * zeta);
}

TEST(ScaledRise, PureLcAnchor) {
  // 1 - cos(t'): t10 = acos(0.9), t90 = acos(0.1).
  EXPECT_NEAR(scaled_rise_exact(0.0), std::acos(0.1) - std::acos(0.9), 1e-10);
}

TEST(ScaledDelay, PaperFitAccurateWithinTwoPercentPlusOffset) {
  // Paper Fig. 6: the fit tracks the exact curve closely over [0, 3].
  for (double zeta = 0.0; zeta <= 3.0; zeta += 0.1) {
    const double exact = scaled_delay_exact(zeta);
    const double fit = scaled_delay_fitted(zeta);
    EXPECT_NEAR(fit, exact, 0.04 + 0.03 * exact) << "zeta=" << zeta;
  }
}

TEST(ScaledRise, RefitAccurate) {
  for (double zeta = 0.0; zeta <= 3.0; zeta += 0.1) {
    const double exact = scaled_rise_exact(zeta);
    const double fit = scaled_rise_fitted(zeta);
    EXPECT_NEAR(fit, exact, 0.08 + 0.05 * exact) << "zeta=" << zeta;
  }
}

TEST(ScaledRise, DominantPoleTailAccurate) {
  // Beyond the fitted domain the dominant-pole form takes over and tracks
  // the exact curve to a fraction of a percent.
  for (double zeta : {3.5, 5.0, 10.0, 20.0}) {
    const double exact = scaled_rise_exact(zeta);
    EXPECT_NEAR(scaled_rise_fitted(zeta), exact, 0.01 * exact) << "zeta=" << zeta;
  }
  // Seam continuity at zeta = 3 within 1%.
  EXPECT_NEAR(scaled_rise_fitted(3.0 + 1e-9), scaled_rise_fitted(3.0),
              0.01 * scaled_rise_fitted(3.0));
}

TEST(ScaledCrossing, RejectsBadFraction) {
  EXPECT_THROW(scaled_crossing_exact(1.0, 0.0), std::invalid_argument);
  EXPECT_THROW(scaled_crossing_exact(1.0, 1.0), std::invalid_argument);
}

TEST(NodeMetrics, RcLimitReducesToWyatt) {
  NodeModel rc;
  rc.sum_rc = 1e-10;
  rc.sum_lc = 0.0;
  rc.zeta = std::numeric_limits<double>::infinity();
  rc.omega_n = std::numeric_limits<double>::infinity();
  EXPECT_NEAR(delay_50(rc), std::log(2.0) * 1e-10, 1e-22);
  EXPECT_NEAR(delay_50_exact(rc), std::log(2.0) * 1e-10, 1e-22);
  EXPECT_NEAR(rise_time(rc), std::log(9.0) * 1e-10, 1e-22);
  EXPECT_NEAR(rise_time_exact(rc), std::log(9.0) * 1e-10, 1e-22);
}

TEST(NodeMetrics, PhysicalScalingByOmegaN) {
  NodeModel n;
  n.zeta = 0.6;
  n.omega_n = 2.0e9;
  n.sum_rc = 2.0 * n.zeta / n.omega_n;
  n.sum_lc = 1.0 / (n.omega_n * n.omega_n);
  EXPECT_NEAR(delay_50_exact(n), scaled_delay_exact(0.6) / 2.0e9, 1e-18);
  EXPECT_NEAR(rise_time_exact(n), scaled_rise_exact(0.6) / 2.0e9, 1e-18);
}

TEST(Overshoot, MatchesClassicFormula) {
  NodeModel n;
  n.zeta = 0.4;
  n.omega_n = 1.0e9;
  const double wd = std::sqrt(1.0 - 0.16);
  EXPECT_NEAR(overshoot_pct(n, 1), 100.0 * std::exp(-M_PI * 0.4 / wd), 1e-9);
  EXPECT_NEAR(overshoot_pct(n, 2), 100.0 * std::exp(-2.0 * M_PI * 0.4 / wd), 1e-9);
  EXPECT_NEAR(overshoot_time(n, 1), M_PI / (1.0e9 * wd), 1e-20);
}

TEST(Overshoot, FirstPeakMatchesResponseMaximum) {
  // The response evaluated at overshoot_time(1) equals 1 + overshoot.
  NodeModel n;
  n.zeta = 0.3;
  n.omega_n = 1.0;
  const double t1 = overshoot_time(n, 1);
  const double v = scaled_step_response(n.zeta, n.omega_n * t1);
  EXPECT_NEAR(v, 1.0 + overshoot_pct(n, 1) / 100.0, 1e-9);
}

TEST(Overshoot, RejectsInvalid) {
  NodeModel n;
  n.zeta = 1.2;
  n.omega_n = 1.0;
  EXPECT_THROW(overshoot_pct(n, 1), std::invalid_argument);
  n.zeta = 0.5;
  EXPECT_THROW(overshoot_pct(n, 0), std::invalid_argument);
  EXPECT_THROW(overshoot_time(n, -1), std::invalid_argument);
}

TEST(Settling, UnderdampedEnvelope) {
  NodeModel n;
  n.zeta = 0.5;
  n.omega_n = 1.0;
  const double ts = settling_time(n, 0.1);
  // After ts, every extremum is within 10%.
  const double wd = std::sqrt(1.0 - 0.25);
  const int n_first = static_cast<int>(std::round(ts * wd / M_PI));
  EXPECT_LE(overshoot_pct(n, n_first), 10.0 + 1e-9);
  if (n_first > 1) {
    EXPECT_GT(overshoot_pct(n, n_first - 1), 10.0);
  }
}

TEST(Settling, MonotoneCaseCrossesBand) {
  NodeModel n;
  n.zeta = 2.0;
  n.omega_n = 1.0;
  const double ts = settling_time(n, 0.1);
  EXPECT_NEAR(scaled_step_response(2.0, ts), 0.9, 1e-9);
}

TEST(Settling, UndampedNeverSettles) {
  NodeModel n;
  n.zeta = 0.0;
  n.omega_n = 1.0;
  EXPECT_TRUE(std::isinf(settling_time(n, 0.1)));
}

TEST(Settling, RejectsBadBand) {
  NodeModel n;
  n.zeta = 0.5;
  n.omega_n = 1.0;
  EXPECT_THROW(settling_time(n, 0.0), std::invalid_argument);
  EXPECT_THROW(settling_time(n, 1.0), std::invalid_argument);
}

// Property sweep: the exact scaled metrics interpolate between the LC and
// RC anchors and are monotone in zeta.
class MetricMonotoneSweep : public ::testing::TestWithParam<double> {};

TEST_P(MetricMonotoneSweep, DelayIncreasesWithZeta) {
  const double z = GetParam();
  EXPECT_GT(scaled_delay_exact(z + 0.1), scaled_delay_exact(z));
  EXPECT_GT(scaled_rise_exact(z + 0.1), scaled_rise_exact(z));
}

INSTANTIATE_TEST_SUITE_P(SecondOrder, MetricMonotoneSweep,
                         ::testing::Values(0.0, 0.25, 0.5, 0.75, 0.95, 1.05, 1.5, 2.0, 2.5));

}  // namespace
}  // namespace relmore::eed
