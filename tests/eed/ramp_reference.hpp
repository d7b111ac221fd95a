#pragma once

// A long double reference for the wire-stage crossings, independent of
// the kernel's arithmetic: the node's ramp response in closed form
// (pole-residue form for complex poles below critical damping, divided
// differences of e^{pu} for real ones above, the single pole for RC
// nodes) evaluated in long double, bracketed by a forward scan and
// bisected until the bracket is two adjacent long doubles.

#include <algorithm>
#include <cmath>
#include <complex>
#include <limits>

#include "relmore/eed/model.hpp"
#include "relmore/eed/second_order.hpp"

namespace relmore::eed::reference {

using Real = long double;
using Complex = std::complex<Real>;

/// Whether long double carries more bits than double here; the reference
/// is only a reference where it does.
inline bool long_double_is_wider() { return std::numeric_limits<Real>::digits > 53; }

/// e^z − 1 without cancellation for small |z|.
inline Complex expm1(Complex z) {
  const Real half = std::sin(z.imag() / 2);
  return {std::expm1(z.real()) * std::cos(z.imag()) - 2 * half * half,
          std::exp(z.real()) * std::sin(z.imag())};
}

/// The response to a unit ramp of length `rise` (0 = a step), in the
/// node's own time unit: SR for RC nodes, 1/omega_n otherwise.
class Response {
 public:
  Response(const NodeModel& node, double rise_seconds) : rc_(!std::isfinite(node.omega_n)) {
    if (rc_) {
      unit_ = node.sum_rc;
      rise_ = static_cast<Real>(rise_seconds) / unit_;
      return;
    }
    unit_ = 1 / static_cast<Real>(node.omega_n);
    rise_ = static_cast<Real>(rise_seconds) * node.omega_n;
    const Real zeta = node.zeta;
    critical_ = zeta == 1;
    if (critical_) return;
    if (zeta > 1) {
      const Real d = std::sqrt((zeta - 1) * (zeta + 1));
      p1_ = -1 / (zeta + d);
      p2_ = -(zeta + d);
      gap_ = 2 * d;
    } else {
      const Real w = std::sqrt((1 - zeta) * (1 + zeta));
      p1_ = Complex(-zeta, w);
      p2_ = Complex(-zeta, -w);
    }
    r1_ = Real(1) / (p1_ * (p1_ - p2_));
    r2_ = Real(1) / (p2_ * (p2_ - p1_));
    c1_ = r1_ / p1_;
    c2_ = r2_ / p2_;
  }

  [[nodiscard]] Real unit() const { return unit_; }
  [[nodiscard]] Real rise() const { return rise_; }

  [[nodiscard]] Real operator()(Real u) const {
    if (u <= 0) return 0;
    if (rc_) {
      if (rise_ == 0) return -std::expm1(-u);
      if (u <= rise_) return (u + std::expm1(-u)) / rise_;
      return 1 + std::exp(-(u - rise_)) * std::expm1(-rise_) / rise_;
    }
    if (critical_) {
      // S(x) = x − 2 + (2 + x)e^{−x}.
      if (rise_ == 0) return -std::expm1(-u) - u * std::exp(-u);
      if (u <= rise_) return (u - 2 + (2 + u) * std::exp(-u)) / rise_;
      const Real w = u - rise_;
      return 1 - ((2 + w) * std::exp(-w) - (2 + u) * std::exp(-u)) / rise_;
    }
    if (rise_ == 0 && gap_ > 0) {
      // Real poles: 1 − (e^{p1 u}·expm1(−Δu)/Δ + e^{p2 u}/p2)/p1 with
      // Δ = p1 − p2 = 2√(ζ² − 1) taken from d. Both terms are positive
      // and bounded, so the residues' near cancellation next to critical
      // damping (~1/Δ each) costs nothing.
      const Real p1 = p1_.real();
      const Real p2 = p2_.real();
      return 1 - (std::exp(p1 * u) * std::expm1(-gap_ * u) / gap_ + std::exp(p2 * u) / p2) / p1;
    }
    if (gap_ > 0) {
      // Real poles −q1 > −q2 with q1·q2 = 1 and q2 − q1 = Δ. With
      // m(t) = −expm1(−Δt)/Δ the step is s(t) = −expm1(−q2 t) − q2·e^{−q1 t}·m(t),
      // and the ramp integral S(u) = ∫₀ᵘ s is (E(u) − s(u))/q2 with
      // E(u) = (q1·u + expm1(−q1 u))/q1²: the divided differences of e^{pu}
      // at {−q2, −q1, 0, 0}, {−q2, −q1, 0} and {−q1, 0, 0}. No term carries
      // 1/Δ, so nothing cancels next to critical damping (residues do: each
      // grows like 1/Δ).
      const Real q1 = -p1_.real();
      const Real q2 = -p2_.real();
      const auto m = [&](Real t) { return -std::expm1(-gap_ * t) / gap_; };
      if (u <= rise_) {
        const Real s = -std::expm1(-q2 * u) - q2 * std::exp(-q1 * u) * m(u);
        return ((q1 * u + std::expm1(-q1 * u)) / (q1 * q1) - s) / (q2 * rise_);
      }
      // S(u) − S(w) with w = u − rise, each difference taken in closed
      // form (the product rule for divided differences) rather than by
      // subtraction, so a short rise does not cancel either.
      const Real w = u - rise_;
      const Real e1 = std::expm1(-q1 * rise_);
      const Real e2 = std::expm1(-q2 * rise_);
      const Real de = (q1 * rise_ + e1 + std::expm1(-q1 * w) * e1) / (q1 * q1);
      const Real ds = -std::exp(-q2 * w) * e2 -
                      q2 * std::exp(-q1 * w) * (std::exp(-q1 * rise_) * m(rise_) + m(w) * e2);
      return (de - ds) / (q2 * rise_);
    }
    if (rise_ == 0) return (Real(1) + r1_ * std::exp(p1_ * u) + r2_ * std::exp(p2_ * u)).real();
    if (u <= rise_) return (u + c1_ * expm1(p1_ * u) + c2_ * expm1(p2_ * u)).real() / rise_;
    // 1 − Σ c_i e^{p_i (u − rise)}·(1 − e^{p_i rise})/rise: no difference
    // of step integrals, so a short rise does not cancel.
    const Real w = u - rise_;
    const Complex v = Real(1) + c1_ * std::exp(p1_ * w) * expm1(p1_ * rise_) / rise_ +
                      c2_ * std::exp(p2_ * w) * expm1(p2_ * rise_) / rise_;
    return v.real();
  }

 private:
  bool rc_;
  bool critical_ = false;
  Real unit_ = 1;
  Real rise_ = 0;
  Real gap_ = 0;  ///< p1 − p2 when the poles are real
  Complex p1_, p2_, r1_, r2_, c1_, c2_;
};

/// First crossing [s] of `level` by the node's response to a ramp of
/// `rise_seconds`, or NaN when the scan finds none. The scan starts at 5%
/// of the larger of the rise and the node's fitted step delay and grows
/// by 1.6, as the kernel's own bracket scan does.
inline Real crossing(const NodeModel& node, double rise_seconds, double level) {
  const Response v(node, rise_seconds);
  const Real delay = std::isfinite(node.omega_n)
                         ? static_cast<Real>(scaled_delay_fitted(node.zeta))
                         : Real(0.6931471805599453L);
  Real lo = 0;
  Real v_lo = 0;
  Real hi = 0;
  Real width = Real(0.05) * std::max(v.rise(), delay);
  bool found = false;
  for (int i = 0; i < 400 && !found; ++i) {
    hi = lo + width;
    const Real v_hi = v(hi);
    found = (v_lo - level) * (v_hi - level) <= 0;
    if (!found) {
      lo = hi;
      v_lo = v_hi;
      width *= Real(1.6);
    }
  }
  if (!found) return std::numeric_limits<Real>::quiet_NaN();
  for (;;) {
    const Real mid = lo + (hi - lo) / 2;
    if (mid <= lo || mid >= hi) break;
    (v(mid) < level ? lo : hi) = mid;
  }
  return (lo + hi) / 2 * v.unit();
}

}  // namespace relmore::eed::reference
