#pragma once

/// \file generate.hpp
/// The benchmark's own design generators. They live here rather than in
/// the library so a change under src/ can never silently change a
/// workload: the program under test only ever receives the text.

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace bench {

/// SplitMix64: the same stream on every platform and compiler.
struct Rng {
  std::uint64_t state;
  std::uint64_t next() {
    state += 0x9E3779B97F4A7C15ULL;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  std::size_t below(std::size_t n) { return static_cast<std::size_t>(next() % n); }
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
};

/// One generated net: its name, section count, whether its wire carries
/// inductance, and where its section lines (between `net` and `end`) sit
/// in the design text.
struct NetInfo {
  std::string name;
  std::size_t sections = 0;
  bool rlc = false;
  std::size_t block_begin = 0;
  std::size_t block_size = 0;
};

/// Per-section value ranges of a design's wires.
struct WireRange {
  double r_lo, r_hi;  ///< [ohm]
  double l_hi;        ///< RLC nets draw L in [l_hi/2, 3*l_hi/2) [H]
  double c_lo, c_hi;  ///< [F]
};

/// A design as text plus the names the workloads address it by.
struct GeneratedDesign {
  std::string text;
  std::vector<NetInfo> nets;
  std::vector<std::string> endpoints;  ///< output port names
  std::vector<std::string> buffers;    ///< buf_x1/buf_x4 instance names
  std::vector<bool> buffer_is_x4;      ///< each buffer's cell in `text`
  WireRange wire{};
  double clock_period = 0.0;

  [[nodiscard]] std::string_view block(std::size_t net) const {
    return std::string_view(text).substr(nets[net].block_begin, nets[net].block_size);
  }
};

/// `nets` nets in chains of depth 4 joined by buf_x1/buf_x4 instances,
/// with nand2 side inputs from the neighbouring chain. Even nets share 8
/// topology classes of 5-12 sections (batched corpus path); odd nets each
/// get a topology of their own (scalar path). `nets` must be a positive
/// multiple of 4.
[[nodiscard]] GeneratedDesign make_small(std::size_t nets, std::uint64_t seed);

/// 256 nets of 1023 sections in 64 chains of depth 4; chain stage s uses
/// topology s, so the corpus sees 4 topology groups of 64 nets.
[[nodiscard]] GeneratedDesign make_large(std::uint64_t seed);

}  // namespace bench
