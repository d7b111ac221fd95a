#pragma once

/// \file roots.hpp
/// Scalar root finding: Brent's method on a bracket.

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <optional>
#include <utility>

namespace relmore::util {

/// Options controlling the iteration of a scalar root search.
struct RootOptions {
  double x_tol = 1e-13;    ///< absolute tolerance on the bracket width
  double f_tol = 0.0;      ///< stop when |f(x)| <= f_tol (0 = rely on x_tol)
  int max_iter = 200;      ///< iteration cap
};

/// True when f-values `fa` and `fb` bracket a root: opposite signs, or
/// either one zero. The sign test every search here brackets with.
[[nodiscard]] inline bool opposite_signs(double fa, double fb) {
  return (fa <= 0.0 && fb >= 0.0) || (fa >= 0.0 && fb <= 0.0);
}

/// Brent's method on the bracket [a, b] whose end values the caller has
/// already evaluated: `fa` = f(a), `fb` = f(b). The one Brent loop —
/// brent() evaluates its ends and forwards here — taking any callable, so
/// a caller that scans for the bracket pays no second evaluation of its
/// ends and no std::function dispatch.
///
/// Returns std::nullopt when `fa` and `fb` share a sign; the root when
/// the iteration converges, or the last iterate when it hits the cap.
template <typename F>
[[nodiscard]] std::optional<double> brent_bracketed(F&& f, double a, double b, double fa,
                                                    double fb, const RootOptions& opts = {}) {
  if (!opposite_signs(fa, fb)) return std::nullopt;
  if (fa == 0.0) return a;
  if (fb == 0.0) return b;

  if (std::abs(fa) < std::abs(fb)) {
    std::swap(a, b);
    std::swap(fa, fb);
  }
  double c = a;
  double fc = fa;
  double d = b - a;  // step taken two iterations ago
  double e = d;      // step taken last iteration

  // relmore-lint: begin-hot-loop(brent)
  for (int iter = 0; iter < opts.max_iter; ++iter) {
    if (std::abs(fc) < std::abs(fb)) {
      a = b;
      b = c;
      c = a;
      fa = fb;
      fb = fc;
      fc = fa;
    }
    const double tol = 2.0 * std::numeric_limits<double>::epsilon() * std::abs(b) +
                       0.5 * opts.x_tol;
    const double m = 0.5 * (c - b);
    if (std::abs(m) <= tol || fb == 0.0 ||
        (opts.f_tol > 0.0 && std::abs(fb) <= opts.f_tol)) {
      return b;
    }
    if (std::abs(e) < tol || std::abs(fa) <= std::abs(fb)) {
      d = m;  // bisection
      e = m;
    } else {
      double p;
      double q;
      const double s = fb / fa;
      if (a == c) {
        // secant
        p = 2.0 * m * s;
        q = 1.0 - s;
      } else {
        // inverse quadratic interpolation
        const double qq = fa / fc;
        const double r = fb / fc;
        p = s * (2.0 * m * qq * (qq - r) - (b - a) * (r - 1.0));
        q = (qq - 1.0) * (r - 1.0) * (s - 1.0);
      }
      if (p > 0.0) {
        q = -q;
      } else {
        p = -p;
      }
      if (2.0 * p < std::min(3.0 * m * q - std::abs(tol * q), std::abs(e * q))) {
        e = d;
        d = p / q;
      } else {
        d = m;
        e = m;
      }
    }
    a = b;
    fa = fb;
    b += (std::abs(d) > tol) ? d : (m > 0.0 ? tol : -tol);
    fb = f(b);
    if ((fb > 0.0) == (fc > 0.0)) {
      c = a;
      fc = fa;
      e = b - a;
      d = e;
    }
  }
  // relmore-lint: end-hot-loop
  return b;
}

/// Finds a root of `f` in the bracket [a, b] with Brent's method.
///
/// Requires f(a) and f(b) to have opposite signs (either may be zero).
/// Evaluates both ends and runs brent_bracketed(), so it returns
/// std::nullopt on an invalid bracket and the last iterate at the
/// iteration cap.
[[nodiscard]] std::optional<double> brent(const std::function<double(double)>& f, double a, double b,
                            const RootOptions& opts = {});

}  // namespace relmore::util
