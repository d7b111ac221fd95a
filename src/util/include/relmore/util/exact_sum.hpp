#pragma once

/// \file exact_sum.hpp
/// An exact sum of doubles, rounded once when it is read.
///
/// Neal's small superaccumulator ("Fast exact summation using small and
/// large superaccumulators", arXiv:1505.05571). Every finite double is an
/// integer multiple of 2^-1074 below 2^2098; the sum holds that integer
/// in 67 signed 64-bit chunks at 32-bit spacing. A term adds its 53-bit
/// significand into two neighbouring chunks, and the chunks' spare high
/// bits absorb 2047 such terms before one pass carries them upward. No
/// `add` or `sub` rounds, so the sum does not depend on the order of its
/// terms, `sub` undoes an `add` exactly, and `value()` is the correctly
/// rounded total (to nearest, ties to even) of whatever terms are held.
///
/// Non-finite terms are counted, not summed: a NaN term makes the value
/// NaN, +inf and -inf terms together make it NaN, and either alone makes
/// it that infinity. `sub` of a non-finite term takes one off its count.

#include <array>
#include <cstddef>
#include <cstdint>

namespace relmore::util {

class ExactSum {
 public:
  /// Adds the term `x`.
  void add(double x) { accumulate(x, false); }

  /// Removes a term `x`: exactly `add(-x)` when `x` is finite.
  void sub(double x) { accumulate(x, true); }

  /// The total rounded to nearest, ties to even: +0.0 when it is exactly
  /// zero, and +-inf when it rounds beyond the largest double.
  [[nodiscard]] double value() const;

 private:
  /// Chunk i weighs 2^(32 i - 1074). Terms reach chunk 64; the two above
  /// take the carries.
  static constexpr std::size_t kChunks = 67;
  using Chunks = std::array<std::int64_t, kChunks>;
  /// Terms a chunk absorbs between carry passes: each adds less than 2^52
  /// to a chunk that a pass leaves below 2^32, and 2047 * 2^52 + 2^32 is
  /// below 2^63.
  static constexpr int kCarryTerms = 2047;

  void accumulate(double x, bool negate);
  /// Moves each chunk's bits above the low 32 into the next chunk, leaving
  /// every chunk but the top one in [0, 2^32); the total does not change.
  static void carry(Chunks& chunks);
  /// The correctly rounded value of a carried, non-negative total.
  static double round_magnitude(const Chunks& chunks);

  Chunks chunk_{};
  int until_carry_ = kCarryTerms;
  std::int64_t nan_terms_ = 0;
  std::int64_t pos_inf_terms_ = 0;
  std::int64_t neg_inf_terms_ = 0;
};

}  // namespace relmore::util
