#include "relmore/util/roots.hpp"

#include <cmath>

namespace relmore::util {

std::optional<double> bisect(const std::function<double(double)>& f, double a, double b,
                             const RootOptions& opts) {
  double fa = f(a);
  double fb = f(b);
  if (!opposite_signs(fa, fb)) return std::nullopt;
  if (fa == 0.0) return a;
  if (fb == 0.0) return b;
  for (int i = 0; i < opts.max_iter; ++i) {
    const double m = 0.5 * (a + b);
    const double fm = f(m);
    if (fm == 0.0 || std::abs(b - a) < opts.x_tol ||
        (opts.f_tol > 0.0 && std::abs(fm) <= opts.f_tol)) {
      return m;
    }
    if (opposite_signs(fa, fm)) {
      b = m;
      fb = fm;
    } else {
      a = m;
      fa = fm;
    }
  }
  return 0.5 * (a + b);
}

std::optional<double> brent(const std::function<double(double)>& f, double a, double b,
                            const RootOptions& opts) {
  const double fa = f(a);
  const double fb = f(b);
  return brent_bracketed(f, a, b, fa, fb, opts);
}

std::optional<double> find_root_forward(const std::function<double(double)>& f, double a,
                                        double initial_step, double growth, int max_expand,
                                        const RootOptions& opts) {
  if (initial_step <= 0.0) return std::nullopt;
  double lo = a;
  double flo = f(lo);
  if (flo == 0.0) return lo;
  double step = initial_step;
  for (int i = 0; i < max_expand; ++i) {
    const double hi = lo + step;
    const double fhi = f(hi);
    if (opposite_signs(flo, fhi)) return brent_bracketed(f, lo, hi, flo, fhi, opts);
    lo = hi;
    flo = fhi;
    step *= growth;
  }
  return std::nullopt;
}

}  // namespace relmore::util
