#pragma once

/// \file batched.hpp
/// Batched same-topology analysis kernels: one tree, S value samples,
/// AoSoA layout, lane-per-sample.
///
/// The hot statistical and synthesis workloads (Monte-Carlo variation,
/// buffer-stage tables, wire-sizing candidate sweeps) re-run the *same
/// topology* with different R/L/C values thousands of times. Running S
/// independent `eed::analyze` calls repeats the topology walk, the
/// per-call result allocations, and the AoS cache misses S times over.
/// `BatchedAnalyzer` instead fixes the topology once (a
/// `circuit::FlatTree` snapshot) and groups samples into lane-groups of
/// width W (1, 2, 4, or 8 doubles). Values are *stored* sample-major —
/// sample s owns one contiguous row of n doubles per array, so fills are
/// straight memcpys — and the kernel reads the W rows of a group
/// directly, transposing into its W-wide lane blocks on the fly:
///
///   values[sample s][section i],  lane t of group g  =  sample g·W + t
///
/// The upward/downward passes then run once per lane-group with a
/// fixed-width inner loop over the lanes, which `-O3` autovectorizes (no
/// intrinsics; the hot kernels are additionally multi-versioned via GCC
/// target_clones so an AVX2 clone is dispatched at runtime, and the
/// RELMORE_ENABLE_NATIVE_ARCH CMake option widens codegen further). Each
/// lane executes exactly the scalar pass's operations in exactly its
/// association order, so every sample's results are *bitwise* identical
/// to a scalar `eed::analyze` of that sample's tree — and hence
/// independent of the lane width and of how lane-groups are scheduled
/// across threads.
///
/// Working-set control (see docs/kernels.md): the downward sweep runs in
/// contiguous tiles of `tile_rows()` sections, draining completed output
/// rows while cache-hot; sparse shallow `analyze_nodes` queries take a
/// root-path walk instead of the full downward sweep. Lane width (when
/// constructed with 0) and tile size (when left at 0 = auto) come from
/// `util::KernelTuner`, overridable process-wide via `RELMORE_TUNE=WxT`.
/// Tiling and tuning reorder only the *touch* order, never the reduction
/// order — results stay bitwise-equal across every (W, tile) choice.
///
/// Lane-groups are independent, so a `WorkerPool` can fan them
/// across cores (`analyze_nodes(ids, &pool)`); outputs are written to
/// disjoint ranges, keeping results thread-count-independent. See
/// docs/kernels.md for the layout diagrams and measured throughput.
///
/// Robustness contract (docs/robustness.md): the constructor validates the
/// topology (`circuit::validate`) and throws util::FaultError on structural
/// or value errors. Sample values are validated on entry (NaN/Inf as well
/// as negatives — a plain min-scan misses NaN): `set_sample` and
/// `set_section` throw at once, and `analyze_stream` throws after its
/// sweep, naming the first faulted sample. Reported results are scanned
/// for non-finite moments after each kernel sweep, and a faulted sample
/// makes the analysis throw util::FaultError naming the first one. The
/// guards never touch the kernel's arithmetic, only its inputs (at fill
/// time) and the copied-out results, so a returned batch holds no fault.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "relmore/circuit/flat_tree.hpp"
#include "relmore/circuit/rlc_tree.hpp"
#include "relmore/eed/model.hpp"

namespace relmore::util {
class WorkerPool;
}

namespace relmore::engine {

/// Result of one batched analysis: (SR, SL) for every requested
/// (sample, node) pair, plus the derived second-order model on demand.
class BatchedModels {
 public:
  /// SR_i of section `id` in sample `s`. Throws std::out_of_range on an
  /// uncovered id or sample.
  [[nodiscard]] double sum_rc(std::size_t sample, circuit::SectionId id) const;

  /// Full second-order model of (sample, id) — same formulas (and bits)
  /// as `eed::analyze(...).at(id)` on that sample's tree.
  [[nodiscard]] eed::NodeModel node(std::size_t sample, circuit::SectionId id) const;

  /// 50% delay at (sample, id), paper eq. 35.
  [[nodiscard]] double delay_50(std::size_t sample, circuit::SectionId id) const;

 private:
  friend class BatchedAnalyzer;
  [[nodiscard]] std::size_t slot(std::size_t sample, circuit::SectionId id) const;

  std::size_t samples_ = 0;
  std::size_t padded_samples_ = 0;        ///< lane_groups * lane_width
  std::vector<int> row_of_;               ///< id -> row, -1 when uncovered
  /// Row-major [row * padded_samples_ + sample].
  std::vector<double> sr_, sl_;
};

/// Same-topology batched analyzer: topology fixed at construction, value
/// samples filled in (concurrently, for distinct samples), then analyzed
/// in one or more kernel sweeps.
class BatchedAnalyzer {
 public:
  /// `lane_width` must be 1, 2, 4, or 8; 0 lets `util::KernelTuner`
  /// pick for this tree size (respecting RELMORE_TUNE).
  /// Throws std::invalid_argument on other widths or an empty topology, and
  /// util::FaultError when `circuit::validate` rejects the topology.
  explicit BatchedAnalyzer(circuit::FlatTree topology, std::size_t lane_width = 0);

  [[nodiscard]] std::size_t sections() const { return topo_.size(); }
  [[nodiscard]] std::size_t lane_width() const { return lane_width_; }

  /// Tile size (sections) for the downward sweep. 0 (the default) lets
  /// `util::KernelTuner` pick per analysis call; any explicit value —
  /// including degenerate ones (1, or >= sections() for an untiled
  /// sweep) — is used as-is. Tiling never changes results, only the
  /// order in which the sweep touches memory.
  void set_tile_rows(std::size_t tile_rows);
  [[nodiscard]] std::size_t tile_rows() const { return tile_rows_; }

  /// Sets the sample count and (re)initializes every sample — including
  /// the padding lanes of the last group — to the snapshot's nominal
  /// values.
  void resize(std::size_t samples);

  /// Overwrites sample `s` from arrays of length sections(). Safe to call
  /// concurrently for distinct `s`. Throws util::FaultError (a
  /// std::invalid_argument) on negative or non-finite values and
  /// std::out_of_range on a bad `s`.
  void set_sample(std::size_t s, const double* resistance, const double* inductance,
                  const double* capacitance);

  /// Overwrites one section of one sample, with set_sample's checks.
  void set_section(std::size_t s, circuit::SectionId id, const circuit::SectionValues& v);

  /// Runs the kernel but stores only the requested nodes (S x ids.size()
  /// outputs; the sweep itself is still O(n) per lane-group). `pool`
  /// (optional) distributes lane-groups across its workers.
  [[nodiscard]] BatchedModels analyze_nodes(const std::vector<circuit::SectionId>& ids,
                                            util::WorkerPool* pool = nullptr) const;

  /// Writes sample `s`'s values into three caller-provided arrays of
  /// length sections(). Must be safe to call concurrently for distinct
  /// `s` when a pool is passed to `analyze_stream`.
  using SampleFill =
      std::function<void(std::size_t s, double* resistance, double* inductance,
                         double* capacitance)>;

  /// Fused fill + analyze: generates and consumes one lane-group at a
  /// time, so a group's values go straight from the fill callback through
  /// the kernel while still cache-resident — they are never streamed to
  /// memory and read back, which is what limits the set_sample/analyze
  /// pair once S·n values outgrow the cache. Ignores (and does not
  /// disturb) any values stored via resize/set_sample; `samples` is
  /// independent of the stored sample count. Results are bitwise
  /// identical to resize + set_sample(s, ...) + analyze_nodes(ids): the
  /// same sample-major rows are built per group and the same kernel
  /// consumes them. Padding lanes replicate the group's first sample.
  /// Throws std::invalid_argument on samples == 0, and util::FaultError
  /// after the sweep when a filled value is bad, naming the first
  /// faulted sample.
  [[nodiscard]] BatchedModels analyze_stream(std::size_t samples, const SampleFill& fill,
                                             const std::vector<circuit::SectionId>& ids,
                                             util::WorkerPool* pool = nullptr) const;

 private:
  /// Per-call sweep schedule (tile size, path-walk choice, drain order);
  /// built once by make_plan, shared read-only by every group task.
  struct SweepPlan;

  [[nodiscard]] BatchedModels make_output(const std::vector<circuit::SectionId>& ids,
                                          std::size_t samples, std::size_t groups) const;
  [[nodiscard]] std::size_t value_slot(std::size_t s, std::size_t section) const;
  [[nodiscard]] SweepPlan make_plan(const std::vector<circuit::SectionId>& ids,
                                    std::size_t samples) const;
  /// Runs the full kernel for lane-group `g` over the three sample-major
  /// value rows, draining results into `out` and recording each lane's
  /// eed::AnalysisFault bits in `faults` — `lane_input[t]` (null: none)
  /// merged with a non-finite reported moment. `scratch` holds n*W
  /// doubles (path-walk mode) or 3·n·W (two-pass mode); `path` non-null
  /// selects the path walk.
  void sweep_group(const SweepPlan& plan, BatchedModels& out, std::uint8_t* faults,
                   std::size_t g, const double* rows_r, const double* rows_l,
                   const double* rows_c, double* scratch, std::size_t* path,
                   const std::uint8_t* lane_input) const;

  circuit::FlatTree topo_;
  std::size_t lane_width_ = 0;
  std::size_t samples_ = 0;
  std::size_t groups_ = 0;
  std::size_t tile_rows_ = 0;  ///< explicit downward tile; 0 = auto
  /// Sample-major values, indexed [sample * sections + section]; rows
  /// samples_..(lane_groups * lane_width) are nominal-valued padding.
  std::vector<double> r_, l_, c_;
};

}  // namespace relmore::engine
