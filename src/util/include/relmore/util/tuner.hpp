#pragma once

/// \file tuner.hpp
/// One-time per-process kernel calibration: lane width + tile size.
///
/// The batched kernels have two working-set knobs:
///
///   * **lane width W** — how many samples/runs share one AoSoA group.
///     Wider groups amortize the parent-index gather but multiply the
///     per-section working set by W, so the best W shrinks as trees grow.
///   * **tile rows T** — how many contiguous sections a sweep touches
///     before handing completed rows to the output sink. Tiling keeps the
///     per-tile working set inside L2 once `n` outgrows it; `T == 0`
///     means untiled (whole-tree sweeps).
///
/// `KernelTuner` probes cache geometry once per process (cached behind
/// `std::call_once`) and hands out a `KernelPlan` per (sections, lanes)
/// bucket. `engine::BatchedAnalyzer` and `sim::BatchSimulator` consult it
/// whenever the caller passes width 0 ("auto").
///
/// The `RELMORE_TUNE=WxT` environment variable overrides calibration for
/// the whole process (e.g. `RELMORE_TUNE=4x2048`; `T=0` forces untiled).
/// It follows the `RELMORE_THREADS` convention: read once, malformed
/// values rejected loudly on stderr and ignored.
///
/// Plans never change results — every (W, T) combination is bitwise-equal
/// to the scalar oracle; the tuner only picks which equivalent schedule
/// runs fastest.

#include <cstddef>
#include <optional>

namespace relmore::util {

/// A kernel schedule: lane width and sweep tile size.
struct KernelPlan {
  /// Samples per AoSoA group; one of {1, 2, 4, 8}.
  unsigned lane_width = 4;
  /// Contiguous sections per sweep tile; 0 = untiled (whole-tree sweeps).
  std::size_t tile_rows = 0;
};

class KernelTuner {
 public:
  /// The process-wide tuner. First call probes cache geometry and reads
  /// `RELMORE_TUNE` (both under `std::call_once`); later calls are free.
  static const KernelTuner& instance();

  /// Plan for the analysis kernels (BatchedAnalyzer / sta corpus groups).
  /// `samples == 0` means "not yet known" and yields the generic plan for
  /// that tree size.
  [[nodiscard]] KernelPlan analysis_plan(std::size_t sections,
                                         std::size_t samples) const;

  /// Plan for the transient kernels (BatchSimulator). `runs == 0` means
  /// "not yet known".
  [[nodiscard]] KernelPlan sim_plan(std::size_t sections,
                                    std::size_t runs) const;

  /// True when a valid `RELMORE_TUNE` override is pinning every plan.
  [[nodiscard]] bool forced() const { return forced_.has_value(); }

  /// Cache sizes the calibration is working from (probed or fallback).
  [[nodiscard]] std::size_t l1_bytes() const { return l1_bytes_; }
  [[nodiscard]] std::size_t l2_bytes() const { return l2_bytes_; }

  /// Parses a `RELMORE_TUNE` value ("WxT", W in {1,2,4,8}, T in
  /// [0, 4194304]). Returns nullopt on any malformed input. Exposed
  /// separately so tests can cover the grammar without env games.
  static std::optional<KernelPlan> parse_tune(const char* text);

 private:
  KernelTuner();

  [[nodiscard]] std::size_t tile_for(std::size_t sections,
                                     std::size_t bytes_per_section) const;

  std::optional<KernelPlan> forced_;
  std::size_t l1_bytes_ = 0;
  std::size_t l2_bytes_ = 0;
};

}  // namespace relmore::util
