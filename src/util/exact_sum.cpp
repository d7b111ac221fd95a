#include "relmore/util/exact_sum.hpp"

#include <bit>
#include <cmath>
#include <limits>

namespace relmore::util {

namespace {

constexpr std::uint64_t kFractionMask = (std::uint64_t{1} << 52) - 1;
constexpr std::uint64_t kHiddenBit = std::uint64_t{1} << 52;
constexpr std::uint64_t kLow32 = 0xFFFF'FFFF;
constexpr std::int64_t kLowMask = 0xFFFF'FFFF;
constexpr int kMaxBiased = 0x7FF;  // the biased exponent of inf and NaN

}  // namespace

void ExactSum::accumulate(double x, bool negate) {
  const auto bits = std::bit_cast<std::uint64_t>(x);
  const auto biased = static_cast<int>((bits >> 52) & 0x7FF);
  std::uint64_t significand = bits & kFractionMask;
  const bool negative = ((bits >> 63) != 0) != negate;
  if (biased == kMaxBiased) {
    std::int64_t& count = significand != 0 ? nan_terms_
                          : (bits >> 63) != 0 ? neg_inf_terms_
                                            : pos_inf_terms_;
    count += negate ? -1 : 1;
    return;
  }
  // x = significand * 2^shift in units of 2^-1074; subnormals (biased 0)
  // share the scale of biased exponent 1, without the hidden bit.
  int shift = 0;
  if (biased != 0) {
    significand |= kHiddenBit;
    shift = biased - 1;
  }
  const auto at = static_cast<std::size_t>(shift >> 5);
  const auto offset = static_cast<unsigned>(shift & 31);
  auto low = static_cast<std::int64_t>((significand << offset) & kLow32);
  auto high = static_cast<std::int64_t>(significand >> (32 - offset));
  if (negative) {
    low = -low;
    high = -high;
  }
  chunk_[at] += low;
  chunk_[at + 1] += high;
  if (--until_carry_ == 0) {
    carry(chunk_);
    until_carry_ = kCarryTerms;
  }
}

void ExactSum::carry(Chunks& chunks) {
  // relmore-lint: begin-hot-loop(exact-sum-carry)
  for (std::size_t i = 0; i + 1 < kChunks; ++i) {
    chunks[i + 1] += chunks[i] >> 32;  // arithmetic: the floor of chunk / 2^32
    chunks[i] &= kLowMask;
  }
  // relmore-lint: end-hot-loop
}

double ExactSum::value() const {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  if (nan_terms_ != 0 || (pos_inf_terms_ != 0 && neg_inf_terms_ != 0)) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  if (pos_inf_terms_ != 0) return kInf;
  if (neg_inf_terms_ != 0) return -kInf;
  Chunks chunks = chunk_;
  carry(chunks);
  // Every chunk below the top one is now non-negative, so the top one
  // carries the sign; a negative total is negated and carried again.
  const bool negative = chunks[kChunks - 1] < 0;
  if (negative) {
    // relmore-lint: begin-hot-loop(exact-sum-negate)
    for (std::int64_t& chunk : chunks) chunk = -chunk;
    // relmore-lint: end-hot-loop
    carry(chunks);
  }
  const double magnitude = round_magnitude(chunks);
  return negative ? -magnitude : magnitude;
}

double ExactSum::round_magnitude(const Chunks& chunks) {
  // The top chunk weighs 2^1038: any bit there is beyond the largest double.
  if (chunks[kChunks - 1] != 0) return std::numeric_limits<double>::infinity();
  std::size_t top = kChunks - 1;
  // relmore-lint: begin-hot-loop(exact-sum-leading-chunk)
  while (top > 0 && chunks[top] == 0) --top;
  // relmore-lint: end-hot-loop
  if (chunks[top] == 0) return 0.0;
  // The 64 bits from the leading one down, out of the top three chunks
  // (k bits of the top one, all 32 of the next, 32 - k of the third).
  const auto head = static_cast<std::uint64_t>(chunks[top]);
  const auto mid = top >= 1 ? static_cast<std::uint64_t>(chunks[top - 1]) : std::uint64_t{0};
  const auto tail = top >= 2 ? static_cast<std::uint64_t>(chunks[top - 2]) : std::uint64_t{0};
  const int k = 64 - std::countl_zero(head);
  const auto uk = static_cast<unsigned>(k);
  const std::uint64_t window = (head << (64 - uk)) | (mid << (32 - uk)) | (tail >> uk);
  // Round the 64 bits to 53: the 54th is the half bit, and everything
  // below it, in the window and in the lower chunks, is sticky.
  std::uint64_t significand = window >> 11;
  const bool half = ((window >> 10) & 1) != 0;
  bool sticky = (window & 0x3FF) != 0 || (tail & ((std::uint64_t{1} << uk) - 1)) != 0;
  // relmore-lint: begin-hot-loop(exact-sum-sticky)
  for (std::size_t i = 0; i + 2 < top && !sticky; ++i) sticky = chunks[i] != 0;
  // relmore-lint: end-hot-loop
  if (half && (sticky || (significand & 1) != 0)) ++significand;
  // Window bit 0 weighs 2^(32 (top - 2) + k - 1074), and the significand
  // starts 11 bits above it. Below 2^53 units the total is exact and
  // lands on the subnormal grid; at 2^53 or more the rounding above kept
  // the 53 bits a normal double holds. ldexp scales exactly or overflows.
  const int exponent = 32 * (static_cast<int>(top) - 2) + k + 11 - 1074;
  return std::ldexp(static_cast<double>(significand), exponent);
}

}  // namespace relmore::util
