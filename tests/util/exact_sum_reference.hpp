#pragma once

// A reference for util::ExactSum that shares none of its arithmetic: the
// running total is Shewchuk's non-overlapping expansion, a list of
// doubles ordered by magnitude whose exact sum is the sum of the terms so
// far, grown one error-free TwoSum at a time ("Adaptive precision
// floating-point arithmetic and fast robust geometric predicates", 1997).
// The expansion is rounded the way Python's math.fsum rounds it: summed
// from the top until a step is inexact, then moved off a half-way case
// when the parts below push it one way.
//
// Non-finite terms are summed apart, in IEEE arithmetic. The expansion
// itself must not overflow: a partial sum past the largest double is
// outside the reference's domain.

#include <cmath>
#include <cstddef>
#include <utility>
#include <vector>

namespace relmore::util::reference {

inline double exact_sum(const std::vector<double>& terms) {
  std::vector<double> partials;
  double special = 0.0;
  bool any_special = false;
  for (double x : terms) {
    if (!std::isfinite(x)) {
      special += x;
      any_special = true;
      continue;
    }
    std::size_t kept = 0;
    for (std::size_t j = 0; j < partials.size(); ++j) {
      double y = partials[j];
      if (std::abs(x) < std::abs(y)) std::swap(x, y);
      const double hi = x + y;
      const double lo = y - (hi - x);
      if (lo != 0.0) partials[kept++] = lo;
      x = hi;
    }
    partials.resize(kept);
    if (x != 0.0) partials.push_back(x);
  }
  if (any_special) return special;

  std::size_t n = partials.size();
  if (n == 0) return 0.0;
  double hi = partials[--n];
  double lo = 0.0;
  while (n > 0) {
    const double x = hi;
    const double y = partials[--n];
    hi = x + y;
    lo = y - (hi - x);
    if (lo != 0.0) break;
  }
  // hi + lo is exact; when lo is half an ulp of hi, the next part down
  // decides which way the tie goes.
  if (n > 0 && ((lo < 0.0 && partials[n - 1] < 0.0) || (lo > 0.0 && partials[n - 1] > 0.0))) {
    const double y = lo * 2.0;
    const double x = hi + y;
    if (y == x - hi) hi = x;
  }
  return hi;
}

}  // namespace relmore::util::reference
