#include "relmore/eed/response.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <complex>
#include <stdexcept>
#include <string>
#include <tuple>

#include "relmore/eed/second_order.hpp"
#include "relmore/util/integrate.hpp"
#include "relmore/util/roots.hpp"

namespace relmore::eed {

namespace {

using Complex = std::complex<double>;

bool is_rc_limit(const NodeModel& node) { return !std::isfinite(node.omega_n); }

/// Poles of the node's second-order transfer function, separated if they
/// coincide (simple-pole partial fractions then remain valid to rounding).
std::pair<Complex, Complex> node_poles(const NodeModel& node) {
  double zeta = node.zeta;
  if (std::abs(zeta - 1.0) < 1e-7) zeta = 1.0 + 1e-7;  // split the double pole
  const Complex disc = std::sqrt(Complex(zeta * zeta - 1.0, 0.0));
  const Complex p1 = node.omega_n * (-zeta + disc);
  const Complex p2 = node.omega_n * (-zeta - disc);
  return {p1, p2};
}

}  // namespace

double step_response(const NodeModel& node, double t, double v_supply) {
  if (t <= 0.0) return 0.0;
  if (is_rc_limit(node)) {
    return v_supply * -std::expm1(-t / node.sum_rc);  // Wyatt single-pole limit
  }
  return v_supply * scaled_step_response(node.zeta, node.omega_n * t);
}

double exp_input_response(const NodeModel& node, double t, double v_supply, double tau) {
  if (tau <= 0.0) throw std::invalid_argument("exp_input_response: tau must be positive");
  if (t <= 0.0) return 0.0;
  if (is_rc_limit(node)) {
    // Single-pole system 1/(1 + sT) driven by V(1 - e^{-t/tau}).
    const double T = node.sum_rc;
    if (std::abs(T - tau) < 1e-12 * std::max(T, tau)) {
      return v_supply * (1.0 - std::exp(-t / T) * (1.0 + t / T));
    }
    return v_supply *
           (1.0 - (T * std::exp(-t / T) - tau * std::exp(-t / tau)) / (T - tau));
  }
  // Partial fractions of  H(s) V (1/s - 1/(s + a)),  a = 1/tau,
  // H(s) = wn^2 / ((s - p1)(s - p2))  (paper eqs. 44-48).
  auto [p1, p2] = node_poles(node);
  double a = 1.0 / tau;
  // Keep -a away from the poles (pole/zero collision => resonant term);
  // a tiny perturbation changes the waveform by O(1e-9).
  const double sep = std::min(std::abs(p1 + a), std::abs(p2 + a));
  if (sep < 1e-9 * node.omega_n) a *= 1.0 + 1e-7;

  const double wn2 = node.omega_n * node.omega_n;
  const Complex r1 = wn2 / (p1 * (p1 - p2));           // H/s residue at p1
  const Complex r2 = wn2 / (p2 * (p2 - p1));           // H/s residue at p2
  const Complex q0 = wn2 / ((-a - p1) * (-a - p2));    // H/(s+a) residue at -a
  const Complex q1 = wn2 / ((p1 + a) * (p1 - p2));     // H/(s+a) residue at p1
  const Complex q2 = wn2 / ((p2 + a) * (p2 - p1));     // H/(s+a) residue at p2

  const Complex e1 = std::exp(p1 * t);
  const Complex e2 = std::exp(p2 * t);
  const double ea = std::exp(-a * t);
  const Complex v = 1.0 + (r1 - q1) * e1 + (r2 - q2) * e2 - q0 * ea;
  return v_supply * v.real();
}

sim::Waveform step_waveform(const NodeModel& node, const std::vector<double>& times,
                            double v_supply) {
  std::vector<double> v(times.size());
  for (std::size_t i = 0; i < times.size(); ++i) v[i] = step_response(node, times[i], v_supply);
  return sim::Waveform(times, v);
}

sim::Waveform exp_input_waveform(const NodeModel& node, const std::vector<double>& times,
                                 double v_supply, double tau) {
  std::vector<double> v(times.size());
  for (std::size_t i = 0; i < times.size(); ++i) {
    v[i] = exp_input_response(node, times[i], v_supply, tau);
  }
  return sim::Waveform(times, v);
}

namespace {

/// S(t) = integral from 0 to t of the unit step response. The step
/// response is 1 + r1 e^{p1 t} + r2 e^{p2 t} with r_i the residues of
/// H(s)/s, so S(t) = t + sum_i (r_i/p_i)(e^{p_i t} - 1). The poles and
/// residues are computed once per node, not once per evaluation.
class IntegratedStep {
 public:
  explicit IntegratedStep(const NodeModel& node)
      : rc_limit_(is_rc_limit(node)), sum_rc_(node.sum_rc) {
    if (rc_limit_) return;
    std::tie(p1_, p2_) = node_poles(node);
    const double wn2 = node.omega_n * node.omega_n;
    const Complex r1 = wn2 / (p1_ * (p1_ - p2_));
    const Complex r2 = wn2 / (p2_ * (p2_ - p1_));
    c1_ = r1 / p1_;
    c2_ = r2 / p2_;
  }

  double operator()(double t) const {
    if (t <= 0.0) return 0.0;
    if (rc_limit_) return t - sum_rc_ * -std::expm1(-t / sum_rc_);
    const Complex acc = c1_ * (std::exp(p1_ * t) - 1.0) + c2_ * (std::exp(p2_ * t) - 1.0);
    return t + acc.real();
  }

 private:
  bool rc_limit_;
  double sum_rc_;
  Complex p1_;
  Complex p2_;
  Complex c1_;  ///< r1 / p1
  Complex c2_;  ///< r2 / p2
};

/// The ramp response v(t) = V/T·[S(t) − S(t−T)] for a rise T > 0.
double ramp_response(const IntegratedStep& step, double t, double v_supply,
                     double rise_seconds) {
  if (t <= 0.0) return 0.0;
  const double s_now = step(t);
  const double s_shift = t > rise_seconds ? step(t - rise_seconds) : 0.0;
  return v_supply / rise_seconds * (s_now - s_shift);
}

}  // namespace

double ramp_input_response(const NodeModel& node, double t, double v_supply,
                           double rise_seconds) {
  if (rise_seconds <= 0.0) return step_response(node, t, v_supply);
  return ramp_response(IntegratedStep(node), t, v_supply, rise_seconds);
}

util::Result<RampStage> ramp_stage_checked(const NodeModel& node, double rise_seconds) {
  if (rise_seconds < 0.0) {
    return util::Status(util::ErrorCode::kNegativeValue, "ramp_stage: negative input rise");
  }
  if (rise_seconds == 0.0) return RampStage{delay_50(node), rise_time(node)};

  // The 10/50/90% levels, and what one forward search per level would
  // do: start at t = 0, where every level's f = response - level is
  // -level (never a root), and grow the bracket by 1.6 from 5% of the
  // larger of the rise and the node's own delay, at most 400 times.
  constexpr std::array<double, 3> kLevels{0.1, 0.5, 0.9};
  constexpr std::array<const char*, 3> kLevelNames{"10%", "50%", "90%"};
  constexpr double kGrowth = 1.6;
  constexpr int kMaxExpand = 400;
  const IntegratedStep step(node);
  const auto response = [&](double t) { return ramp_response(step, t, 1.0, rise_seconds); };
  const double scale = std::max(rise_seconds, std::max(delay_50(node), 1e-18));

  // The bracket points depend on the node and the rise, not on the level,
  // so one scan evaluates each point once and tests it against every
  // level still open. A level's bracket is its first sign change, with
  // both end values kept for Brent.
  struct Bracket {
    double lo = 0.0;
    double hi = 0.0;
    double f_lo = 0.0;
    double f_hi = 0.0;
  };
  std::array<Bracket, 3> brackets{};
  std::array<bool, 3> bracketed{};
  std::size_t open = kLevels.size();
  // relmore-lint: begin-hot-loop(ramp-stage-scan)
  double lo = 0.0;
  double r_lo = response(lo);
  double width = 0.05 * scale;
  for (int i = 0; i < kMaxExpand && open > 0; ++i) {
    const double hi = lo + width;
    const double r_hi = response(hi);
    for (std::size_t k = 0; k < kLevels.size(); ++k) {
      if (bracketed[k]) continue;
      const double f_lo = r_lo - kLevels[k];
      const double f_hi = r_hi - kLevels[k];
      if (!util::opposite_signs(f_lo, f_hi)) continue;
      brackets[k] = Bracket{lo, hi, f_lo, f_hi};
      bracketed[k] = true;
      --open;
    }
    lo = hi;
    r_lo = r_hi;
    width *= kGrowth;
  }
  // relmore-lint: end-hot-loop
  for (std::size_t k = 0; k < kLevels.size(); ++k) {
    if (!bracketed[k]) {
      return util::Status(util::ErrorCode::kInvalidArgument,
                          std::string("ramp_stage: the response never crosses ") +
                              kLevelNames[k]);
    }
  }

  std::array<double, 3> crossings{};
  // relmore-lint: begin-hot-loop(ramp-stage-solve)
  for (std::size_t k = 0; k < kLevels.size(); ++k) {
    const Bracket& b = brackets[k];
    const double level = kLevels[k];
    // A bracket that passed the sign test always yields a root.
    crossings[k] = *util::brent_bracketed([&](double t) { return response(t) - level; }, b.lo,
                                          b.hi, b.f_lo, b.f_hi);
  }
  // relmore-lint: end-hot-loop
  return RampStage{crossings[1] - 0.5 * rise_seconds, crossings[2] - crossings[0]};
}

sim::Waveform ramp_input_waveform(const NodeModel& node, const std::vector<double>& times,
                                  double v_supply, double rise_seconds) {
  std::vector<double> v(times.size());
  for (std::size_t i = 0; i < times.size(); ++i) {
    v[i] = ramp_input_response(node, times[i], v_supply, rise_seconds);
  }
  return sim::Waveform(times, v);
}

sim::Waveform arbitrary_input_waveform(const NodeModel& node, const sim::Source& source,
                                       const std::vector<double>& times) {
  if (times.empty()) throw std::invalid_argument("arbitrary_input_waveform: no sample times");
  if (is_rc_limit(node)) {
    // First-order ODE: T v' + v = u.
    const double T = node.sum_rc;
    const util::OdeRhs rhs = [&](double t, const std::vector<double>& y,
                                 std::vector<double>& dy) {
      dy[0] = (sim::source_value(source, t) - y[0]) / T;
    };
    std::vector<double> out(times.size());
    std::vector<double> y{0.0};
    double t_prev = 0.0;
    for (std::size_t i = 0; i < times.size(); ++i) {
      y = util::integrate_ode(rhs, t_prev, std::move(y), times[i]);
      out[i] = y[0];
      t_prev = times[i];
    }
    return sim::Waveform(times, out);
  }
  const double z2w = 2.0 * node.zeta * node.omega_n;
  const double wn2 = node.omega_n * node.omega_n;
  const util::OdeRhs rhs = [&](double t, const std::vector<double>& y,
                               std::vector<double>& dy) {
    dy[0] = y[1];
    dy[1] = wn2 * (sim::source_value(source, t) - y[0]) - z2w * y[1];
  };
  std::vector<double> out(times.size());
  std::vector<double> y{0.0, 0.0};
  double t_prev = 0.0;
  for (std::size_t i = 0; i < times.size(); ++i) {
    if (times[i] < t_prev) {
      throw std::invalid_argument("arbitrary_input_waveform: times must be non-decreasing");
    }
    y = util::integrate_ode(rhs, t_prev, std::move(y), times[i]);
    out[i] = y[0];
    t_prev = times[i];
  }
  return sim::Waveform(times, out);
}

}  // namespace relmore::eed
