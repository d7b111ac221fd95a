#include "relmore/eed/second_order.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "relmore/eed/response.hpp"

namespace relmore::eed {

namespace {

constexpr double kLn2 = 0.6931471805599453;
constexpr double kLn9 = 2.1972245773362196;

/// The exact step crossing of `fraction` by `node`, or a throw when the
/// no-throw kernel finds none (a non-finite model).
double step_crossing(const NodeModel& node, double fraction) {
  const double t = ramp_crossing(node, 0.0, fraction);
  if (std::isnan(t)) throw std::runtime_error("step crossing: the response never crosses");
  return t;
}

}  // namespace

double scaled_step_response(double zeta, double t_scaled) {
  if (zeta < 0.0) throw std::invalid_argument("scaled_step_response: zeta must be >= 0");
  if (t_scaled <= 0.0) return 0.0;
  const double t = t_scaled;
  if (zeta == 1.0) {
    // Critically damped: v = 1 - (1 + t) e^{-t}. Next to it the two forms
    // below stay exact: sin(wd t)/wd and sinh(d t)/d tend to t.
    return 1.0 - (1.0 + t) * std::exp(-t);
  }
  if (zeta < 1.0) {
    // Underdamped (paper eq. 31): v = 1 - e^{-zt}[cos(wd t) + z sin(wd t)/wd],
    // wd = sqrt((1 - z)(1 + z)), which keeps its digits as z nears 1.
    const double wd = std::sqrt((1.0 - zeta) * (1.0 + zeta));
    return 1.0 -
           std::exp(-zeta * t) * (std::cos(wd * t) + zeta * std::sin(wd * t) / wd);
  }
  // Overdamped, written in the cancellation-free cosh/sinh form:
  // v = 1 - e^{-zt}[cosh(d t) + z sinh(d t)/d],  d = sqrt(z^2 - 1).
  const double d = std::sqrt((zeta - 1.0) * (zeta + 1.0));
  // Avoid overflow for large arguments: combine exponents analytically.
  const double x = d * t;
  if (x > 30.0) {
    // cosh/sinh ~ e^x/2; v = 1 - 0.5 (1 + z/d) e^{(d - z) t} (minus a
    // negligible e^{-(d+z)t} term), with d - z = -1/(z + d): the
    // difference itself rounds to 0 from z ~ 1e8.
    return 1.0 - 0.5 * (1.0 + zeta / d) * std::exp(-t / (zeta + d));
  }
  return 1.0 - std::exp(-zeta * t) * (std::cosh(x) + zeta * std::sinh(x) / d);
}

double scaled_step_derivative(double zeta, double t_scaled) {
  if (zeta < 0.0) throw std::invalid_argument("scaled_step_derivative: zeta must be >= 0");
  if (t_scaled <= 0.0) return 0.0;
  const double t = t_scaled;
  if (zeta == 1.0) return t * std::exp(-t);
  if (zeta < 1.0) {
    const double wd = std::sqrt((1.0 - zeta) * (1.0 + zeta));
    return std::exp(-zeta * t) * std::sin(wd * t) / wd;
  }
  const double d = std::sqrt((zeta - 1.0) * (zeta + 1.0));
  const double x = d * t;
  if (x > 30.0) return 0.5 / d * std::exp(-t / (zeta + d));
  return std::exp(-zeta * t) * std::sinh(x) / d;
}

double scaled_crossing_exact(double zeta, double fraction) {
  if (fraction <= 0.0 || fraction >= 1.0) {
    throw std::invalid_argument("scaled_crossing_exact: fraction must be in (0, 1)");
  }
  if (zeta < 0.0) throw std::invalid_argument("scaled_crossing_exact: zeta must be >= 0");
  // The node with omega_n = 1 (SL = 1, SR = 2 zeta) has time = scaled time.
  NodeModel unit;
  unit.sum_rc = 2.0 * zeta;
  unit.sum_lc = 1.0;
  unit.zeta = zeta;
  unit.omega_n = 1.0;
  return step_crossing(unit, fraction);
}

double scaled_delay_exact(double zeta) { return scaled_crossing_exact(zeta, 0.5); }

double scaled_rise_exact(double zeta) {
  return scaled_crossing_exact(zeta, 0.9) - scaled_crossing_exact(zeta, 0.1);
}

double FitCoefficients::operator()(double zeta) const {
  const double zp = p == 1.0 ? zeta : std::pow(zeta, p);
  return a * std::exp(-zp / b) + c * zeta + d;
}

FitCoefficients delay_fit_paper() { return {1.047, 0.85, 1.39, 1.0, 0.0}; }

FitCoefficients rise_fit_refit() {
  // Least-squares refit against scaled_rise_exact() on zeta in [0, 3]
  // (the paper's eq. 34 digits were lost; see DESIGN.md §4). The values
  // below are the output of fit_scaled_rise() — bench/fig06 re-derives
  // them and the Fit.RiseRefitMatchesStoredCoefficients test pins them.
  return {2.32803, 0.22199, 4.73853, 1.56310, -1.30843};
}

double scaled_delay_fitted(double zeta) { return delay_fit_paper()(zeta); }

double scaled_rise_fitted(double zeta) {
  // The refit covers its fitted domain zeta in [0, 3]. Beyond it the exact
  // curve approaches its RC asymptote like -1/zeta, which the fitted form
  // cannot track; the dominant-pole closed form ln9*(zeta + sqrt(zeta^2-1))
  // is within 0.03% there (and reduces exactly to the Wyatt rise time
  // ln9 * sum_rc as zeta -> inf). Seam mismatch at zeta = 3 is < 0.8%.
  if (zeta > 3.0) return kLn9 * (zeta + std::sqrt(zeta * zeta - 1.0));
  return rise_fit_refit()(zeta);
}

namespace {

bool is_rc_limit(const NodeModel& node) { return !std::isfinite(node.omega_n); }

}  // namespace

double delay_50(const NodeModel& node) {
  if (is_rc_limit(node)) return kLn2 * node.sum_rc;
  return scaled_delay_fitted(node.zeta) / node.omega_n;
}

double delay_50_exact(const NodeModel& node) {
  if (is_rc_limit(node)) return kLn2 * node.sum_rc;
  return step_crossing(node, 0.5);
}

double rise_time(const NodeModel& node) {
  if (is_rc_limit(node)) return kLn9 * node.sum_rc;
  return scaled_rise_fitted(node.zeta) / node.omega_n;
}

double rise_time_exact(const NodeModel& node) {
  if (is_rc_limit(node)) return kLn9 * node.sum_rc;
  return step_crossing(node, 0.9) - step_crossing(node, 0.1);
}

double overshoot_pct(const NodeModel& node, int n) {
  if (n < 1) throw std::invalid_argument("overshoot_pct: n must be >= 1");
  if (!(node.zeta < 1.0)) {
    throw std::invalid_argument("overshoot_pct: node is not underdamped");
  }
  const double wd = std::sqrt((1.0 - node.zeta) * (1.0 + node.zeta));
  return 100.0 * std::exp(-static_cast<double>(n) * M_PI * node.zeta / wd);
}

double overshoot_time(const NodeModel& node, int n) {
  if (n < 1) throw std::invalid_argument("overshoot_time: n must be >= 1");
  if (!(node.zeta < 1.0)) {
    throw std::invalid_argument("overshoot_time: node is not underdamped");
  }
  const double wd = std::sqrt((1.0 - node.zeta) * (1.0 + node.zeta));
  return static_cast<double>(n) * M_PI / (node.omega_n * wd);
}

double settling_time(const NodeModel& node, double band) {
  if (band <= 0.0 || band >= 1.0) {
    throw std::invalid_argument("settling_time: band must be in (0, 1)");
  }
  if (is_rc_limit(node)) return std::log(1.0 / band) * node.sum_rc;
  if (node.zeta >= 1.0) {
    // Monotone response: settled once it crosses 1 - band.
    return scaled_crossing_exact(node.zeta, 1.0 - band) / node.omega_n;
  }
  if (node.zeta <= 0.0) return std::numeric_limits<double>::infinity();
  // Paper eqs. (41)-(42): the first extremum whose excursion is below
  // `band` of the steady state; its index solves e^{-n pi z/wd} <= band.
  const double wd = std::sqrt((1.0 - node.zeta) * (1.0 + node.zeta));
  const double n_real = wd * std::log(1.0 / band) / (M_PI * node.zeta);
  const double n = std::max(1.0, std::ceil(n_real));
  return n * M_PI / (node.omega_n * wd);
}

}  // namespace relmore::eed
