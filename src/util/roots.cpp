#include "relmore/util/roots.hpp"

namespace relmore::util {

std::optional<double> brent(const std::function<double(double)>& f, double a, double b,
                            const RootOptions& opts) {
  const double fa = f(a);
  const double fb = f(b);
  return brent_bracketed(f, a, b, fa, fb, opts);
}

}  // namespace relmore::util
