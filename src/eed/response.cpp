#include "relmore/eed/response.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#include "relmore/eed/second_order.hpp"
#include "relmore/util/roots.hpp"

namespace relmore::eed {

namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kEps = std::numeric_limits<double>::epsilon();

bool is_rc_limit(const NodeModel& node) { return !std::isfinite(node.omega_n); }

/// Damping from which a node is timed as its slow pole alone (tau = SR):
/// the fast pole shifts every crossing by about 1/(4 zeta^2) relative,
/// under 2^-56 here, and zeta^2 stays far from overflow below it.
constexpr double kSinglePoleZeta = 0x1p27;

/// ζ + sqrt(ζ² − 1) for ζ >= 1: the magnitude of the fast scaled pole.
/// The slow pole is its reciprocal, formed without the cancellation of
/// ζ − sqrt(ζ² − 1), which rounds to 0 from ζ ~ 1e8.
double fast_pole(double zeta) { return zeta + std::sqrt((zeta - 1.0) * (zeta + 1.0)); }

/// First divided difference of e^{s·t} over the exponents x and y,
/// (e^{x·t} − e^{y·t})/(x − y), formed from the larger exponent y as
/// e^{y·t}·expm1((x − y)·t)/(x − y): no difference of near-equal terms
/// as x → y, where the limit is t·e^{y·t}.
double exp_divided_difference(double x, double y, double t) {
  if (x > y) std::swap(x, y);
  const double gap = x - y;
  return std::exp(y * t) * (gap == 0.0 ? t : std::expm1(gap * t) / gap);
}

/// Second divided difference of e^{s·t} over three real exponents: the
/// difference of two first differences over the widest gap, so no
/// narrower gap divides a difference. Where all three meet it is
/// t²/2·e^{x·t}.
double exp_divided_difference(double x, double y, double z, double t) {
  if (x > y) std::swap(x, y);
  if (y > z) std::swap(y, z);
  if (x > y) std::swap(x, y);
  const double width = z - x;
  if (width == 0.0) return 0.5 * t * t * std::exp(x * t);
  return (exp_divided_difference(z, y, t) - exp_divided_difference(y, x, t)) / width;
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
  // The input is a step less the decay e^{−at}, a = 1/τ, so the response
  // is the step response less g = L⁻¹[H(s)/(s + a)], the decay filtered
  // by H (paper eqs. 44–48): a divided difference of e^{st} over H's
  // poles and −a, which stays exact where −a meets a pole.
  if (is_rc_limit(node)) {
    // H = 1/(1 + sT): v = 1 − e^{−at} − a·e[−1/T, −a], symmetric in T and τ.
    const double a = 1.0 / tau;
    return v_supply *
           (-std::expm1(-a * t) - a * exp_divided_difference(-1.0 / node.sum_rc, -a, t));
  }
  // In scaled time u = ω_n·t, H = 1/(s² + 2ζs + 1).
  const double u = node.omega_n * t;
  const double a = 1.0 / (node.omega_n * tau);
  const double zeta = node.zeta;
  double filtered = 0.0;
  if (zeta >= 1.0) {
    // Real poles −1/f and −f: g = e[−1/f, −f, −a].
    const double fast = fast_pole(zeta);
    filtered = exp_divided_difference(-1.0 / fast, -fast, -a, u);
  } else {
    // Poles −ζ ± iδ: g = Im(e[−ζ + iδ, −a])/δ, with sin(δu)/δ written
    // as u·sin(δu)/(δu) so that nothing divides by δ as ζ → 1.
    const double delta = std::sqrt((1.0 - zeta) * (1.0 + zeta));
    const double c = a - zeta;  // −ζ + iδ + a = c + iδ
    const double y = delta * u;
    const double decay = std::exp(-zeta * u);
    const double sinc = y == 0.0 ? 1.0 : std::sin(y) / y;
    filtered = (c * decay * u * sinc - decay * std::cos(y) + std::exp(-a * u)) /
               (c * c + delta * delta);
  }
  return v_supply * (step_response(node, t) - filtered);
}

namespace {

/// Taylor terms ScaledRamp keeps near 0: the k-th falls like 1/k!, under
/// 2^-70 by here.
constexpr std::size_t kTerms = 22;
/// Reciprocals its series recurrences multiply by, for k = 1..kTerms.
struct SeriesTables {
  std::array<double, kTerms> g{};     ///< 1/(k+1)
  std::array<double, kTerms> s{};     ///< 1/((k+1)(k+2))
  std::array<double, kTerms> next{};  ///< 1/((k+1)k)
};
constexpr SeriesTables kSeries = [] {
  SeriesTables t;
  for (std::size_t i = 0; i < kTerms; ++i) {
    const double k = static_cast<double>(i + 1);
    t.g[i] = 1.0 / (k + 1.0);
    t.s[i] = 1.0 / ((k + 1.0) * (k + 2.0));
    t.next[i] = 1.0 / ((k + 1.0) * k);
  }
  return t;
}();

/// The unit-ramp response of 1/(1 + 2ζs + s²) in scaled time u = ω_n·t,
/// for any finite ζ >= 0 and a ramp of scaled length `rise` (0 = a step).
/// Real arithmetic throughout: the free response is written with
/// φ(x) = e^{−ζx}·cosh|cos(δx) and ψ(x) = e^{−ζx}·sinh|sin(δx)/δ,
/// δ = sqrt|ζ² − 1|, so no residue grows like 1/δ as ζ → 1; and after
/// the ramp it starts from the state the ramp leaves, so no difference of
/// two step integrals cancels as the rise → 0.
class ScaledRamp {
 public:
  ScaledRamp(double zeta, double rise)
      : zeta_(zeta),
        rise_(rise),
        lambda_((zeta - 1.0) * (zeta + 1.0)),
        delta_(std::sqrt(std::abs(lambda_))),
        fast_(lambda_ > 0.0 ? zeta + delta_ : 1.0) {
    // Taylor coefficients of g/x² and s/x³ from those of the impulse
    // response, b_{k+1} = −(2ζ·k·b_k + b_{k−1})/((k+1)·k), b_1 = 1.
    double b_prev = 0.0;
    double b = 1.0;
    for (std::size_t i = 0; i < kTerms; ++i) {
      g_coef_[i] = b * kSeries.g[i];
      s_coef_[i] = b * kSeries.s[i];
      const double next = -(2.0 * zeta * static_cast<double>(i + 1) * b + b_prev) * kSeries.next[i];
      b_prev = b;
      b = next;
    }
    if (rise_ <= 0.0) return;
    double s = 0.0;
    double g = 0.0;
    integrals(rise_, s, g);
    lag_ = (rise_ - s) / rise_;  // 1 − v(rise)
    slope_ = g / rise_;          // v'(rise)
  }

  double operator()(double u) const {
    if (u <= 0.0) return 0.0;
    double s = 0.0;
    double g = 0.0;
    if (rise_ <= 0.0) {
      integrals(u, s, g);
      return g;
    }
    if (u <= rise_) {
      integrals(u, s, g);
      return s / rise_;
    }
    // From the ramp's end state: v = 1 − h(w)·(1 − v(rise)) + ψ(w)·v'(rise),
    // with w the time since the ramp ended, h = 1 − g = φ + ζψ the free
    // decay and ψ = g' the impulse response.
    double phi = 0.0;
    double psi = 0.0;
    free(u - rise_, phi, psi);
    return 1.0 - (phi + zeta_ * psi) * lag_ + psi * slope_;
  }

 private:
  /// φ(x) and ψ(x) for x >= 0.
  void free(double x, double& phi, double& psi) const {
    const double y = delta_ * x;
    if (lambda_ > 0.0 && y > 1.0) {
      // e^{−ζx}cosh and sinh combined per exponent, which cannot
      // overflow: ζ − δ = 1/(ζ + δ).
      const double slow = std::exp(-x / fast_);
      const double quick = std::exp(-fast_ * x);
      phi = 0.5 * (slow + quick);
      psi = 0.5 * (slow - quick) / delta_;
      return;
    }
    const double decay = std::exp(-zeta_ * x);
    if (lambda_ > 0.0) {
      phi = decay * std::cosh(y);
      psi = decay * x * (y == 0.0 ? 1.0 : std::sinh(y) / y);
    } else {
      phi = decay * std::cos(y);
      psi = decay * x * (y == 0.0 ? 1.0 : std::sin(y) / y);
    }
  }

  /// The step response g(x) and its integral s(x) = ∫₀ˣ g. Near 0, where
  /// both are small differences of O(1) terms, from their Taylor series,
  /// whose terms fall like 1/k! while x·|fastest pole| <= 1.
  void integrals(double x, double& s, double& g) const {
    if (x * fast_ <= 1.0) {
      double pg = 0.0;
      double ps = 0.0;
      for (std::size_t i = kTerms; i-- > 0;) {
        pg = pg * x + g_coef_[i];
        ps = ps * x + s_coef_[i];
      }
      g = pg * x * x;
      s = ps * x * x * x;
      return;
    }
    double phi = 0.0;
    double psi = 0.0;
    free(x, phi, psi);
    g = 1.0 - phi - zeta_ * psi;
    s = x - 2.0 * zeta_ + 2.0 * zeta_ * phi + (2.0 * zeta_ * zeta_ - 1.0) * psi;
  }

  double zeta_;
  double rise_;
  double lambda_;  ///< ζ² − 1
  double delta_;   ///< sqrt|ζ² − 1|
  double fast_;    ///< magnitude of the fastest pole (1 unless overdamped)
  double lag_ = 0.0;
  double slope_ = 0.0;
  std::array<double, kTerms> g_coef_{};  ///< b_k/(k+1): g = x²·Σ g_coef x^{k−1}
  std::array<double, kTerms> s_coef_{};  ///< b_k/((k+1)(k+2)): s = x³·Σ s_coef x^{k−1}
};

/// Damping below which crossings come from the bracket scan. Under 1 the
/// response rings; just above it the two pole terms of the Newton form
/// cancel (their sum of magnitudes is ζ/δ times their sum), and the
/// dominant-pole seed is far from the root.
constexpr double kNewtonZeta = 1.25;
/// Cap on the Newton and Halley steps of one crossing.
constexpr int kMaxSteps = 12;
/// A step that stopped shrinking is rounding noise when it is this small
/// relative to the crossing; a larger one is a failed iteration.
constexpr double kStallTol = 0x1p-40;

/// Whether an iteration with latest step `step` (previous `prev`) at a
/// crossing of size `at` has converged: the step is at most 8ε·at, or it
/// has stopped shrinking at the level of rounding noise (evaluations
/// near the root can 2-cycle a few ulps apart).
bool settled(double step, double prev, double at) {
  const double size = std::abs(step);
  return size <= 8.0 * kEps * at || (size >= std::abs(prev) && size <= kStallTol * at);
}

/// Root x > 0 of x + a·expm1(−x) = y, for a >= 1 and y > 0: where a single
/// pole of unit time constant and amplitude a, driven by a ramp, reaches
/// y/b of its final value during a ramp of length b. Halley's method from
/// the root's small-y form sqrt(2y) + y/3 (a = 1 only) or its large-y
/// form z − a·e^{−z}, z = y + a, which lies right of the root.
double single_pole_root(double a, double y) {
  double x = a == 1.0 && y < 0.7 ? std::sqrt(2.0 * y) + y / 3.0
                                 : (y + a) - a * std::exp(-(y + a));
  double prev = std::numeric_limits<double>::infinity();
  // relmore-lint: begin-hot-loop(ramp-stage-halley)
  for (int i = 0; i < kMaxSteps; ++i) {
    const double em1 = std::expm1(-x);
    const double f = x + a * em1 - y;
    const double f1 = (1.0 - a) - a * em1;  // 1 − a·e^{−x}, exact near 0 when a = 1
    const double f2 = a * (1.0 + em1);
    const double step = 2.0 * f * f1 / (2.0 * f1 * f1 - f * f2);
    x -= step;
    if (!std::isfinite(x) || settled(step, prev, x)) break;
    prev = step;
  }
  // relmore-lint: end-hot-loop
  return x;
}

/// Crossings x = t/τ of a single pole (time constant τ) driven by a ramp of
/// length b = T/τ (0 = a step), in closed form. During the ramp
/// v = (x + expm1(−x))/b, so x is single_pole_root(1, ℓb) (Lambert W₀:
/// x = ℓb + 1 + W₀(−e^{−(ℓb+1)})); after it v = 1 − e^{−x}·expm1(b)/b, so
/// x = ln(expm1(b)/b) − log1p(−ℓ).
template <std::size_t N>
void single_pole_crossings(double b, const std::array<double, N>& levels,
                           std::array<double, N>& x) {
  if (b == 0.0) {
    for (std::size_t k = 0; k < N; ++k) x[k] = -std::log1p(-levels[k]);
    return;
  }
  const double em1 = std::expm1(-b);
  const double at_end = 1.0 + em1 / b;  // v(b)
  // ln(expm1(b)/b), as b + ln(−expm1(−b)/b) where expm1(b) could overflow.
  const double lead = b > 1.0 ? b + std::log(-em1 / b) : std::log(std::expm1(b) / b);
  for (std::size_t k = 0; k < N; ++k) {
    x[k] = at_end >= levels[k] ? single_pole_root(1.0, levels[k] * b)
                               : lead - std::log1p(-levels[k]);
  }
}

/// Crossings u of an overdamped node (kNewtonZeta <= ζ < kSinglePoleZeta)
/// by Newton on its two-pole response in scaled time, from the closed form
/// of its dominant pole. Poles p1 = −1/f, p2 = −f (f = fast_pole(ζ)),
/// residues r_i of H(s)/s and c_i = r_i/p_i. After the ramp, with w the
/// time since its end,
///   v = 1 − Σ c_i m_i e^{p_i w},  m_i = −expm1(p_i·rise)/rise (−p_i at 0),
/// a sum of two decays that never subtracts near-equal terms; during it,
///   v = (u + Σ c_i expm1(p_i u))/rise.
/// A level whose iteration is capped or goes non-finite is left NaN.
template <std::size_t N>
void overdamped_crossings(double zeta, double rise, const std::array<double, N>& levels,
                          std::array<double, N>& u) {
  const double fast = fast_pole(zeta);
  const double two_d = 2.0 * std::sqrt((zeta - 1.0) * (zeta + 1.0));  // p1 − p2
  const double p1 = -1.0 / fast;
  const double p2 = -fast;
  const double r1 = -fast / two_d;
  const double r2 = 1.0 / (two_d * fast);
  const double c1 = fast * fast / two_d;
  const double c2 = -1.0 / (two_d * fast * fast);
  const double m1 = rise > 0.0 ? -std::expm1(p1 * rise) / rise : -p1;
  const double m2 = rise > 0.0 ? -std::expm1(p2 * rise) / rise : -p2;
  const double a1 = c1 * m1;
  const double a2 = c2 * m2;
  const double b1 = a1 * p1;
  const double b2 = a2 * p2;
  const double at_end = 1.0 - (a1 + a2);  // v(rise)
  const double log_a1 = std::log(a1);

  // relmore-lint: begin-hot-loop(ramp-stage-newton)
  for (std::size_t k = 0; k < N; ++k) {
    const double level = levels[k];
    u[k] = kNaN;
    double prev = std::numeric_limits<double>::infinity();
    if (rise > 0.0 && at_end >= level) {
      // During the ramp: S(u) = level·rise, S' = g. The seed drops the fast
      // decay: u + c1·expm1(−u/f) = level·rise + c2.
      const double lifted = level * rise + c2;
      double t = fast * single_pole_root(c1 / fast, (lifted > 0.0 ? lifted : level * rise) / fast);
      for (int i = 0; i < kMaxSteps; ++i) {
        const double e1 = std::expm1(p1 * t);
        const double e2 = std::expm1(p2 * t);
        const double step = (t + c1 * e1 + c2 * e2 - level * rise) / (r1 * e1 + r2 * e2);
        t -= step;
        if (!std::isfinite(t)) break;
        if (settled(step, prev, t)) {
          u[k] = t;
          break;
        }
        prev = step;
      }
      continue;
    }
    // After the ramp: a1·e^{p1 w} + a2·e^{p2 w} = 1 − level. The seed
    // drops the fast decay: w = f·ln(a1/(1 − level)).
    const double tail = 1.0 - level;
    double w = fast * (log_a1 - std::log1p(-level));
    if (!(w > 0.0)) w = 0.0;
    for (int i = 0; i < kMaxSteps; ++i) {
      const double e1 = std::exp(p1 * w);
      const double e2 = std::exp(p2 * w);
      const double step = (a1 * e1 + a2 * e2 - tail) / (b1 * e1 + b2 * e2);
      // Stay after the ramp: from w = 0 the iteration climbs back
      // monotonically, except for a step, whose slope is 0 there.
      const double next = w - step;
      w = next >= 0.0 ? next : rise > 0.0 ? 0.0 : 0.5 * w;
      if (!std::isfinite(w)) break;
      if (settled(step, prev, rise + w)) {
        u[k] = rise + w;
        break;
      }
      prev = step;
    }
  }
  // relmore-lint: end-hot-loop
}

/// Crossings u of the levels still NaN in `u`, for any finite ζ: one
/// forward bracket scan serves every open level (a level's bracket is its
/// first sign change), then Brent runs each bracket to the last bit
/// (RootOptions::x_tol = 0 stops relative to the root). A level the scan
/// never brackets stays NaN.
template <std::size_t N>
void bracket_crossings(double zeta, double rise, const std::array<double, N>& levels,
                       std::array<double, N>& u) {
  std::array<bool, N> open{};
  std::size_t open_count = 0;
  for (std::size_t k = 0; k < N; ++k) {
    open[k] = std::isnan(u[k]);
    if (open[k]) ++open_count;
  }
  if (open_count == 0) return;
  // Grid: from 5% of the larger of the rise and the node's fitted step
  // delay, grown by 1.6, at most 400 times.
  constexpr double kGrowth = 1.6;
  constexpr int kMaxExpand = 400;
  const ScaledRamp response(zeta, rise);
  const double scale = std::max(rise, scaled_delay_fitted(zeta));

  struct Bracket {
    double lo = 0.0;
    double hi = 0.0;
    double f_lo = 0.0;
    double f_hi = 0.0;
  };
  std::array<Bracket, N> brackets{};
  // relmore-lint: begin-hot-loop(ramp-stage-scan)
  double lo = 0.0;
  double r_lo = 0.0;  // the response at u = 0
  double width = 0.05 * scale;
  for (int i = 0; i < kMaxExpand && open_count > 0; ++i) {
    const double hi = lo + width;
    const double r_hi = response(hi);
    for (std::size_t k = 0; k < N; ++k) {
      if (!open[k]) continue;
      const double f_lo = r_lo - levels[k];
      const double f_hi = r_hi - levels[k];
      if (!util::opposite_signs(f_lo, f_hi)) continue;
      brackets[k] = Bracket{lo, hi, f_lo, f_hi};
      open[k] = false;
      --open_count;
    }
    lo = hi;
    r_lo = r_hi;
    width *= kGrowth;
  }
  // relmore-lint: end-hot-loop

  // relmore-lint: begin-hot-loop(ramp-stage-solve)
  for (std::size_t k = 0; k < N; ++k) {
    if (!std::isnan(u[k]) || open[k]) continue;
    const Bracket& b = brackets[k];
    const double level = levels[k];
    // A bracket that passed the sign test always yields a root.
    u[k] = *util::brent_bracketed([&](double t) { return response(t) - level; }, b.lo, b.hi,
                                  b.f_lo, b.f_hi, util::RootOptions{.x_tol = 0.0});
  }
  // relmore-lint: end-hot-loop
}

/// The wire-stage kernel: first crossings [s] of `levels` by the node's
/// response to a 0 -> 1 ramp of `rise_seconds`, NaN where a level is
/// never crossed. Each level is solved on its own, so a crossing has the
/// same bits whichever other levels are asked for.
template <std::size_t N>
std::array<double, N> crossings(const NodeModel& node, double rise_seconds,
                                const std::array<double, N>& levels) {
  std::array<double, N> out{};
  out.fill(kNaN);
  if (!(rise_seconds >= 0.0) || !std::isfinite(rise_seconds)) return out;
  if (!(node.zeta < kSinglePoleZeta)) {
    // RC (ω_n = ∞) or a fast pole below rounding: solve in x = t/SR.
    const double tau = node.sum_rc;
    if (tau == 0.0) {
      for (std::size_t k = 0; k < N; ++k) out[k] = levels[k] * rise_seconds;  // no lag
    } else {
      single_pole_crossings(rise_seconds / tau, levels, out);
      for (double& t : out) t *= tau;
    }
  } else {
    // Solve in u = ω_n·t from (ζ, ω_n·T), so every answer scales with time.
    const double rise = node.omega_n * rise_seconds;
    if (node.zeta >= kNewtonZeta) overdamped_crossings(node.zeta, rise, levels, out);
    bracket_crossings(node.zeta, rise, levels, out);  // the levels still NaN
    for (double& t : out) t /= node.omega_n;
  }
  for (double& t : out) {
    if (!std::isfinite(t)) t = kNaN;
  }
  return out;
}

}  // namespace

double ramp_input_response(const NodeModel& node, double t, double v_supply,
                           double rise_seconds) {
  if (rise_seconds <= 0.0) return step_response(node, t, v_supply);
  if (t <= 0.0) return 0.0;
  if (!(node.zeta < kSinglePoleZeta)) {
    const double tau = node.sum_rc;
    if (tau == 0.0) return v_supply * std::min(t / rise_seconds, 1.0);
    const double x = t / tau;
    const double b = rise_seconds / tau;
    if (x <= b) return v_supply * (x + std::expm1(-x)) / b;
    return v_supply * (1.0 + std::exp(-(x - b)) * std::expm1(-b) / b);
  }
  return v_supply * ScaledRamp(node.zeta, node.omega_n * rise_seconds)(node.omega_n * t);
}

double ramp_crossing(const NodeModel& node, double rise_seconds, double level) {
  if (!(level > 0.0 && level < 1.0)) return kNaN;
  return crossings(node, rise_seconds, std::array<double, 1>{level})[0];
}

util::Result<RampStage> ramp_stage_checked(const NodeModel& node, double rise_seconds) {
  if (rise_seconds < 0.0) {
    return util::Status(util::ErrorCode::kNegativeValue, "ramp_stage: negative input rise");
  }
  // Wyatt's ln2·SR and ln9·SR: the RC step, the limit of the closed forms.
  if (rise_seconds == 0.0 && is_rc_limit(node)) {
    return RampStage{delay_50_exact(node), rise_time_exact(node)};
  }
  constexpr std::array<double, 3> kLevels{0.1, 0.5, 0.9};
  constexpr std::array<const char*, 3> kLevelNames{"10%", "50%", "90%"};
  const std::array<double, 3> t = crossings(node, rise_seconds, kLevels);
  for (std::size_t k = 0; k < kLevels.size(); ++k) {
    if (std::isnan(t[k])) {
      return util::Status(util::ErrorCode::kInvalidArgument,
                          std::string("ramp_stage: the response never crosses ") +
                              kLevelNames[k]);
    }
  }
  return RampStage{t[1] - 0.5 * rise_seconds, t[2] - t[0]};
}

}  // namespace relmore::eed
