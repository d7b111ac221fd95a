#include "calibrate.hpp"

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <numeric>
#include <utility>
#include <vector>

namespace bench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr std::size_t kSlots = std::size_t{1} << 17;  // 512 KiB of links, 1 MiB of values
constexpr std::size_t kChaseSteps = std::size_t{1} << 16;
constexpr std::size_t kChainSteps = std::size_t{1} << 18;
constexpr int kPasses = 3;

/// One cycle through every slot (Sattolo's shuffle), the same on every run.
struct Ring {
  std::vector<std::uint32_t> next;
  std::vector<double> value;

  Ring() : next(kSlots), value(kSlots) {
    std::iota(next.begin(), next.end(), 0U);
    std::uint64_t state = 0x9e3779b97f4a7c15ULL;
    for (std::size_t i = kSlots - 1; i > 0; --i) {
      state = state * 6364136223846793005ULL + 1442695040888963407ULL;
      std::swap(next[i], next[(state >> 33) % i]);
    }
    for (std::size_t i = 0; i < kSlots; ++i) value[i] = 1.0 + static_cast<double>(i % 97) * 1e-3;
  }
};

volatile double g_sink = 0.0;

double one_pass(const Ring& ring) {
  std::uint32_t at = 0;
  double acc = 0.0;
  for (std::size_t s = 0; s < kChaseSteps; ++s) {
    at = ring.next[at];
    acc = acc * 0.999 + ring.value[at];
  }
  std::uint64_t hash = 1469598103934665603ULL;
  for (std::size_t s = 0; s < kChainSteps; ++s) {
    acc = acc * 1.0000001 + 1e-9;
    hash = (hash ^ s) * 1099511628211ULL;
  }
  return acc + static_cast<double>(hash & 0xffU);
}

}  // namespace

double calibration_pass_s() {
  static const Ring ring;
  double best = std::numeric_limits<double>::infinity();
  for (int p = 0; p < kPasses; ++p) {
    const auto start = Clock::now();
    g_sink = g_sink + one_pass(ring);
    best = std::min(best, std::chrono::duration<double>(Clock::now() - start).count());
  }
  return best;
}

}  // namespace bench
