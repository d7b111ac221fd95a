// eed::ramp_crossing and eed::ramp_stage_checked, the exact wire-stage
// kernel: every crossing against a long double bisection (ramp_reference.hpp),
// each branch of the kernel on its own, exact scaling with time, the
// limits of a vanishing rise and a vanishing inductance, and the large-zeta
// forms of the response functions.

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <string>

#include "ramp_reference.hpp"
#include "relmore/eed/model.hpp"
#include "relmore/eed/response.hpp"
#include "relmore/eed/second_order.hpp"

namespace relmore::eed {
namespace {

using util::ErrorCode;

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr std::array<double, 3> kLevels{0.1, 0.5, 0.9};

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

NodeModel node_with(double zeta, double sum_rc) {
  if (std::isinf(zeta)) return node_model(sum_rc, 0.0);
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

/// Every level's crossing is within 1e-14 relative of the reference's.
void expect_converged(const NodeModel& node, double rise, double tol = 1e-14) {
  for (const double level : kLevels) {
    const double got = ramp_crossing(node, rise, level);
    const double want = static_cast<double>(reference::crossing(node, rise, level));
    ASSERT_TRUE(std::isfinite(want)) << "zeta=" << node.zeta << " rise=" << rise;
    EXPECT_NEAR(got, want, tol * want)
        << "zeta=" << node.zeta << " omega_n=" << node.omega_n << " rise=" << rise
        << " level=" << level;
  }
}

#define REQUIRE_WIDE_LONG_DOUBLE()                                     \
  if (!reference::long_double_is_wider()) {                            \
    GTEST_SKIP() << "long double has 53 bits here: no wider reference"; \
  }

// The reference itself next to critical damping, against 400-bit mpmath
// (S(u) = u − 2ζ + e^{−ζu}(2ζ·cosh du + (2ζ² − 1)/d·sinh du), v = (S(u) −
// S(u − rise))/rise, d = √(ζ² − 1)): a form with terms ~1/(p₁ − p₂)
// cancels as ζ → 1⁺, so the crossing tests would check the kernel
// against a reference that is itself off there.
TEST(RampReference, ExactNextToCriticalDamping) {
  if (!reference::long_double_is_wider()) GTEST_SKIP() << "long double has only 53 bits";
  struct Point {
    double offset;  // zeta − 1
    double rise;
    double u;
    long double v;
  };
  const Point points[] = {
      {0x1p-52, 1e-3, 0.05, 0.001185474227274099022069L},
      {0x1p-52, 1e-3, 0.5, 0.09005242834826414859358L},
      {0x1p-52, 1e-3, 1.0, 0.264057177951864051349L},
      {0x1p-52, 1e-3, 2.0, 0.5938587924510458202433L},
      {0x1p-52, 1e-3, 5.0, 0.9595554686451823996608L},
      {0x1p-52, 1e-3, 12.0, 0.999920088362865662654L},
      {0x1p-52, 1e-3, 1e-3 + 40.05, 0.9999999999999998341913L},
      {0x1p-52, 1.0, 0.05, 2.032022646371864066673e-5L},
      {0x1p-52, 1.0, 0.5, 0.01632664928158355823162L},
      {0x1p-52, 1.0, 1.0, 0.1036383235143269563541L},
      {0x1p-52, 1.0, 2.0, 0.4377028094321237477719L},
      {0x1p-52, 1.0, 5.0, 0.9372717956611931131099L},
      {0x1p-52, 1.0, 12.0, 0.9998688968626734002002L},
      {0x1p-52, 1.0, 1.0 + 40.05, 0.9999999999999998940699L},
      {1e-12, 1e-3, 0.05, 0.001185474227274060546853L},
      {1e-12, 1e-3, 0.5, 0.0900524283482389429647L},
      {1e-12, 1e-3, 1.0, 0.2640571779517415637852L},
      {1e-12, 1e-3, 2.0, 0.5938587924506850644472L},
      {1e-12, 1e-3, 5.0, 0.9595554686449016331051L},
      {1e-12, 1e-3, 12.0, 0.9999200883628621227315L},
      {1e-12, 1e-3, 1e-3 + 40.05, 0.9999999999999998341913L},
      {1e-12, 1.0, 0.05, 2.032022646371814030546e-5L},
      {1e-12, 1.0, 0.5, 0.01632664928158005545295L},
      {1e-12, 1.0, 1.0, 0.1036383235142889850967L},
      {1e-12, 1.0, 2.0, 0.4377028094318760039967L},
      {1e-12, 1.0, 5.0, 0.9372717956608562695544L},
      {1e-12, 1.0, 12.0, 0.9998688968626681527469L},
      {1e-12, 1.0, 1.0 + 40.05, 0.9999999999999998940699L},
      {0.5, 1e-3, 0.05, 0.001166467520591139163542L},
      {0.5, 1e-3, 0.5, 0.07874246831484013631386L},
      {0.5, 1e-3, 1.0, 0.2132180910383972474011L},
      {0.5, 1e-3, 2.0, 0.4554013485938536677238L},
      {0.5, 1e-3, 5.0, 0.8265622285961324097423L},
      {0.5, 1e-3, 12.0, 0.9880341252594374503346L},
      {0.5, 1e-3, 1e-3 + 40.05, 0.9999997341211368520761L},
      {0.5, 1.0, 0.05, 2.007246932553958364798e-5L},
      {0.5, 1.0, 0.5, 0.01472153404848899783797L},
      {0.5, 1.0, 1.0, 0.08732786024757594674329L},
      {0.5, 1.0, 2.0, 0.3402127941765011502462L},
      {0.5, 1.0, 5.0, 0.788827249199584190509L},
      {0.5, 1.0, 12.0, 0.9854306128879299250293L},
      {0.5, 1.0, 1.0 + 40.05, 0.9999997789651270082513L},
  };
  for (const Point& p : points) {
    NodeModel node;
    node.zeta = 1.0 + p.offset;
    node.omega_n = 1.0;
    node.sum_lc = 1.0;
    node.sum_rc = 2.0 * node.zeta;
    const reference::Response v(node, p.rise);
    EXPECT_LE(static_cast<double>(std::fabs(v(p.u) - p.v)), 1e-16)
        << "zeta = 1 + " << p.offset << ", rise = " << p.rise << ", u = " << p.u;
  }
}

TEST(RampStage, EveryCrossingMatchesALongDoubleBisection) {
  REQUIRE_WIDE_LONG_DOUBLE();
  // zeta in {inf} ∪ [0.05, 1e12], rise in {0} ∪ [1e-3, 1e3] x delay.
  std::mt19937_64 rng(21);
  for (int i = 0; i < 10000; ++i) {
    const double zeta = i % 10 == 0 ? kInf : log_uniform(rng, 0.05, 1e12);
    const NodeModel node = node_with(zeta, log_uniform(rng, 1e-13, 1e-10));
    const double rise = i % 8 == 0 ? 0.0 : delay_50(node) * log_uniform(rng, 1e-3, 1e3);
    expect_converged(node, rise);
    if (HasFailure()) return;
  }
}

TEST(RampStage, StageIsReadOffTheCrossings) {
  std::mt19937_64 rng(5);
  for (int i = 0; i < 500; ++i) {
    const double zeta = i % 5 == 0 ? kInf : log_uniform(rng, 0.05, 1e9);
    const NodeModel node = node_with(zeta, log_uniform(rng, 1e-13, 1e-10));
    const double rise = i % 4 == 0 ? 0.0 : delay_50(node) * log_uniform(rng, 1e-3, 1e3);
    const util::Result<RampStage> stage = ramp_stage_checked(node, rise);
    ASSERT_TRUE(stage.is_ok());
    const double t10 = ramp_crossing(node, rise, 0.1);
    const double t50 = ramp_crossing(node, rise, 0.5);
    const double t90 = ramp_crossing(node, rise, 0.9);
    if (rise == 0.0 && std::isinf(zeta)) continue;  // Wyatt's ln2·SR, ln9·SR
    EXPECT_EQ(bits(stage.value().delay), bits(t50 - 0.5 * rise));
    EXPECT_EQ(bits(stage.value().output_rise), bits(t90 - t10));
  }
}

TEST(RampStage, ZeroSlewIsTheStepClosedForms) {
  for (const NodeModel& node : {node_with(0.4, 1e-11), node_with(1.0, 1e-11),
                                node_with(3.0, 2e-12), node_model(5e-12, 0.0)}) {
    const util::Result<RampStage> got = ramp_stage_checked(node, 0.0);
    ASSERT_TRUE(got.is_ok());
    EXPECT_EQ(bits(got.value().delay), bits(delay_50_exact(node)));
    EXPECT_EQ(bits(got.value().output_rise), bits(rise_time_exact(node)));
  }
  // RC: Wyatt's closed forms, bit for bit.
  const NodeModel rc = node_model(5e-12, 0.0);
  EXPECT_EQ(bits(ramp_stage_checked(rc, 0.0).value().delay), bits(0.6931471805599453 * 5e-12));
  EXPECT_EQ(bits(ramp_stage_checked(rc, 0.0).value().output_rise),
            bits(2.1972245773362196 * 5e-12));
}

TEST(RampStage, NegativeSlewIsAStatusNotAThrow) {
  util::Result<RampStage> got = RampStage{};
  EXPECT_NO_THROW(got = ramp_stage_checked(node_with(0.5, 1e-11), -1e-12));
  ASSERT_FALSE(got.is_ok());
  EXPECT_EQ(got.status().code(), ErrorCode::kNegativeValue);
  EXPECT_TRUE(std::isnan(ramp_crossing(node_with(0.5, 1e-11), -1e-12, 0.5)));
}

TEST(RampStage, NeverCrossedIsAStatusNotAThrow) {
  // An infinite or NaN ramp never lifts the output off 0: no level is
  // crossed, on every branch.
  for (const NodeModel& node : {node_with(0.5, 1e-11), node_with(4.0, 1e-11),
                                node_model(1e-11, 0.0)}) {
    for (const double rise : {kInf, std::numeric_limits<double>::quiet_NaN()}) {
      util::Result<RampStage> got = RampStage{};
      EXPECT_NO_THROW(got = ramp_stage_checked(node, rise));
      ASSERT_FALSE(got.is_ok());
      EXPECT_EQ(got.status().code(), ErrorCode::kInvalidArgument);
      EXPECT_NE(got.status().message().find("never crosses 10%"), std::string::npos);
    }
  }
  EXPECT_TRUE(std::isnan(ramp_crossing(node_with(2.0, 1e-11), 1e-12, 1.0)));
  EXPECT_TRUE(std::isnan(ramp_crossing(node_with(2.0, 1e-11), 1e-12, 0.0)));
}

// --- One test per branch of the kernel ---------------------------------

TEST(RampStage, RcCrossingsDuringAndAfterTheRamp) {
  REQUIRE_WIDE_LONG_DOUBLE();
  const NodeModel rc = node_model(7e-12, 0.0);
  // b = T/SR. At b = 0.05 every level is crossed after the ramp, in closed
  // form; at b = 200 every level is crossed during it (Halley on
  // x + expm1(−x) = level·b); at b = 2 (v(b) = 0.57) the 10% and 50%
  // levels are crossed during the ramp and the 90% level after it.
  for (const double b : {0.05, 0.5, 2.0, 12.0, 200.0, 1e6}) {
    expect_converged(rc, b * 7e-12);
  }
  // After the ramp the crossing is SR·(ln(expm1(b)/b) − log1p(−level)).
  const double b = 0.05;
  const long double lead = std::log(std::expm1(0.05L) / 0.05L);
  for (const double level : kLevels) {
    const long double want = 7e-12L * (lead - std::log1p(-static_cast<long double>(level)));
    EXPECT_NEAR(ramp_crossing(rc, b * 7e-12, level), static_cast<double>(want),
                1e-15 * static_cast<double>(want));
  }
  // No resistance: the output is the input ramp.
  const NodeModel wire = node_model(0.0, 0.0);
  EXPECT_EQ(ramp_crossing(wire, 8e-12, 0.5), 4e-12);
  EXPECT_EQ(ramp_crossing(wire, 0.0, 0.5), 0.0);
}

TEST(RampStage, OverdampedNewtonConverges) {
  REQUIRE_WIDE_LONG_DOUBLE();
  std::mt19937_64 rng(8);
  for (int i = 0; i < 2000; ++i) {
    const double zeta = log_uniform(rng, 1.25, 0x1p27);
    const NodeModel node = node_with(zeta, log_uniform(rng, 1e-13, 1e-10));
    const double rise = i % 6 == 0 ? 0.0 : delay_50(node) * log_uniform(rng, 1e-4, 1e4);
    expect_converged(node, rise);
    if (HasFailure()) return;
  }
}

TEST(RampStage, RampEndCrossingsConverge) {
  REQUIRE_WIDE_LONG_DOUBLE();
  // A level crossed right at the end of the ramp, from either side: the
  // seam between the during- and after-ramp forms, for Newton (zeta 1.3,
  // 3, 40) and the bracket (0.5). The rise putting v(rise) on the level
  // is bisected for, then nudged by up to a part in 1e12 both ways.
  for (const double zeta : {0.5, 1.3, 3.0, 40.0}) {
    const NodeModel node = node_with(zeta, 1e-11);
    for (const double level : kLevels) {
      double lo = 1e-15;
      double hi = 1e-6;
      for (int i = 0; i < 100; ++i) {
        const double mid = std::sqrt(lo * hi);
        (ramp_crossing(node, mid, level) <= mid ? hi : lo) = mid;
      }
      for (const double nudge : {-1e-12, -1e-15, 0.0, 1e-15, 1e-12}) {
        const double rise = hi * (1.0 + nudge);
        const double got = ramp_crossing(node, rise, level);
        const double want = static_cast<double>(reference::crossing(node, rise, level));
        EXPECT_NEAR(got, want, 1e-14 * want) << "zeta=" << zeta << " level=" << level;
      }
    }
  }
}

TEST(RampStage, BracketBelowTheNewtonThreshold) {
  REQUIRE_WIDE_LONG_DOUBLE();
  // Under zeta = 1.25 the bracket scan and Brent (relative stop) time the
  // node: underdamped, critical and just-overdamped nodes converge, and
  // the answers join the Newton branch's smoothly across the threshold.
  std::mt19937_64 rng(9);
  for (int i = 0; i < 1000; ++i) {
    const NodeModel node = node_with(log_uniform(rng, 0.05, 1.25), log_uniform(rng, 1e-13, 1e-10));
    const double rise = i % 6 == 0 ? 0.0 : delay_50(node) * log_uniform(rng, 1e-3, 1e3);
    expect_converged(node, rise);
    if (HasFailure()) return;
  }
  for (const double rise : {0.0, 3e-12, 3e-10}) {
    for (const double level : kLevels) {
      const double below = ramp_crossing(node_with(std::nextafter(1.25, 0.0), 1e-11), rise, level);
      const double at = ramp_crossing(node_with(1.25, 1e-11), rise, level);
      EXPECT_NEAR(below, at, 1e-14 * at) << "rise=" << rise << " level=" << level;
    }
  }
  // Critical damping itself (a double pole) is no special case.
  expect_converged(node_with(1.0, 1e-11), 0.0);
  expect_converged(node_with(1.0, 1e-11), 4e-12);
}

/// The scaled step response near u = 0 in long double, from its Taylor
/// series: g = Σ b_k u^{k+1}/(k+1) over the impulse response's
/// coefficients, (k+1)k·b_{k+1} = −(2ζk·b_k + b_{k−1}), b_1 = 1.
long double small_step(long double zeta, long double u) {
  long double b_prev = 0;
  long double b = 1;
  long double uk = u;
  long double g = 0;
  for (int k = 1; k < 40; ++k) {
    g += b * uk * u / (k + 1);
    const long double next = -(2 * zeta * k * b + b_prev) / ((k + 1) * k);
    b_prev = b;
    b = next;
    uk *= u;
  }
  return g;
}

TEST(RampStage, CappedNewtonFallsBackToTheBracket) {
  REQUIRE_WIDE_LONG_DOUBLE();
  // A level of 1e-12 of the step is reached at u ~ sqrt(2e-12): Newton
  // from the dominant pole's seed (u ~ 0.1-1) halves its way down and
  // hits the step cap, and the bracket scan solves the level instead.
  for (const double zeta : {1.5, 3.0, 50.0}) {
    const NodeModel node = node_model(2.0 * zeta, 1.0);  // omega_n = 1
    for (const double level : {1e-12, 1e-15}) {
      long double lo = 0;
      long double hi = 1e-3L;
      for (int i = 0; i < 200; ++i) {
        const long double mid = (lo + hi) / 2;
        (small_step(zeta, mid) < level ? lo : hi) = mid;
      }
      const double want = static_cast<double>(hi);
      EXPECT_NEAR(ramp_crossing(node, 0.0, level), want, 1e-14 * want)
          << "zeta=" << zeta << " level=" << level;
    }
  }
}

// --- Scaling and limits --------------------------------------------------

TEST(RampStage, ScalesExactlyWithTime) {
  // Scaling C and L by 2^k (SR by 2^k, SL by 4^k) and the rise by 2^k
  // scales every crossing, delay and rise by exactly 2^k: the kernel
  // solves in u = omega_n·t from (zeta, omega_n·T), or x = t/SR from T/SR.
  std::mt19937_64 rng(13);
  for (int i = 0; i < 400; ++i) {
    const double sr = log_uniform(rng, 1e-13, 1e-10);
    const double zeta = i % 5 == 0 ? kInf : log_uniform(rng, 0.05, 1e9);
    const double sl = std::isinf(zeta) ? 0.0 : (sr / (2.0 * zeta)) * (sr / (2.0 * zeta));
    const NodeModel node = node_model(sr, sl);
    const double rise = i % 4 == 0 ? 0.0 : delay_50(node) * log_uniform(rng, 1e-3, 1e3);
    const util::Result<RampStage> base = ramp_stage_checked(node, rise);
    ASSERT_TRUE(base.is_ok());
    for (const int k : {-20, -1, 1, 20}) {
      const NodeModel scaled = node_model(std::ldexp(sr, k), std::ldexp(sl, 2 * k));
      const util::Result<RampStage> got = ramp_stage_checked(scaled, std::ldexp(rise, k));
      ASSERT_TRUE(got.is_ok());
      EXPECT_EQ(bits(got.value().delay), bits(std::ldexp(base.value().delay, k)))
          << "zeta=" << zeta << " rise=" << rise << " k=" << k;
      EXPECT_EQ(bits(got.value().output_rise), bits(std::ldexp(base.value().output_rise, k)))
          << "zeta=" << zeta << " rise=" << rise << " k=" << k;
    }
  }
}

TEST(RampStage, ShortRiseApproachesTheStep) {
  // As the rise goes to 0, each crossing goes to the step's: the ramp
  // shifts it by about rise/2, and the stage delay (measured from the
  // input's 50% point) and output rise go to the step's.
  for (const NodeModel& node : {node_with(0.3, 1e-11), node_with(1.0, 1e-11),
                                node_with(4.0, 1e-11), node_model(1e-11, 0.0)}) {
    const RampStage step = ramp_stage_checked(node, 0.0).value();
    for (const double fraction : {1e-3, 1e-6, 1e-9, 1e-12}) {
      const double rise = fraction * 1e-11;
      const RampStage ramp = ramp_stage_checked(node, rise).value();
      EXPECT_NEAR(ramp.delay, step.delay, 2.0 * rise + 1e-15 * step.delay) << node.zeta;
      EXPECT_NEAR(ramp.output_rise, step.output_rise, 2.0 * rise + 1e-15 * step.output_rise)
          << node.zeta;
      for (const double level : kLevels) {
        const double t0 = ramp_crossing(node, 0.0, level);
        EXPECT_NEAR(ramp_crossing(node, rise, level), t0 + 0.5 * rise, rise + 1e-15 * t0);
      }
    }
  }
}

TEST(RampStage, VanishingInductanceApproachesRc) {
  // SL -> 0 sends zeta to infinity; the crossings go to the RC node's
  // within about 1/(4 zeta^2), and past zeta = 2^27 they are the RC
  // node's bit for bit.
  const double sr = 1e-11;
  const NodeModel rc = node_model(sr, 0.0);
  for (const double rise : {0.0, 1e-13, 1e-11, 1e-9}) {
    for (const double zeta : {1e2, 1e4, 1e6, 1e8, 1e12}) {
      const NodeModel node = node_model(sr, (sr / (2.0 * zeta)) * (sr / (2.0 * zeta)));
      for (const double level : kLevels) {
        const double want = ramp_crossing(rc, rise, level);
        const double got = ramp_crossing(node, rise, level);
        EXPECT_NEAR(got, want, (4.0 / (zeta * zeta) + 1e-14) * want)
            << "zeta=" << zeta << " rise=" << rise;
        if (zeta >= 0x1p27) {
          EXPECT_EQ(bits(got), bits(want));
        }
      }
    }
  }
}

TEST(LargeZeta, ResponsesStayAtTheRcLimit) {
  // zeta from 1e7 up: the slow pole -1/(zeta + sqrt(zeta^2 - 1)) is formed
  // without cancellation, so nothing collapses to 0, inf or "never
  // crosses" (SR = T = 10 ps).
  const double sr = 10e-12;
  const double rise = 10e-12;
  const NodeModel rc = node_model(sr, 0.0);
  for (const double zeta : {1e7, 3e7, 1e8, 1e12}) {
    const NodeModel node = node_model(sr, (sr / (2.0 * zeta)) * (sr / (2.0 * zeta)));
    for (const double t : {2e-12, 10e-12, 25e-12, 60e-12}) {
      const double tol = 1e-9;
      EXPECT_NEAR(step_response(node, t), step_response(rc, t), tol) << zeta << " " << t;
      EXPECT_NEAR(exp_input_response(node, t, 1.0, 3e-12), exp_input_response(rc, t, 1.0, 3e-12),
                  tol)
          << zeta << " " << t;
      EXPECT_NEAR(ramp_input_response(node, t, 1.0, rise), ramp_input_response(rc, t, 1.0, rise),
                  tol)
          << zeta << " " << t;
    }
    EXPECT_NEAR(delay_50_exact(node), delay_50_exact(rc), 1e-9 * delay_50_exact(rc)) << zeta;
    EXPECT_NEAR(rise_time_exact(node), rise_time_exact(rc), 1e-9 * rise_time_exact(rc)) << zeta;
    const util::Result<RampStage> got = ramp_stage_checked(node, rise);
    ASSERT_TRUE(got.is_ok()) << zeta;
    const RampStage want = ramp_stage_checked(rc, rise).value();
    EXPECT_NEAR(got.value().delay, want.delay, 1e-9 * want.delay) << zeta;
    EXPECT_NEAR(got.value().output_rise, want.output_rise, 1e-9 * want.output_rise) << zeta;
  }
}

}  // namespace
}  // namespace relmore::eed
