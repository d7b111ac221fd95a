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
/// across cores (`analyze(&pool)`); outputs are written to disjoint
/// ranges, keeping results thread-count-independent. See docs/kernels.md
/// for the layout diagrams and measured throughput.
///
/// Robustness contract (docs/robustness.md): the constructor validates the
/// topology (`circuit::validate`) and throws util::FaultError on structural
/// or value errors. Sample values are validated on entry (NaN/Inf as well
/// as negatives — a plain min-scan misses NaN) and *reported* results are
/// scanned for non-finite moments after each kernel sweep; what happens on
/// a fault is selected by `set_fault_policy`:
///   kThrow (default)  — analyze/analyze_stream throw util::FaultError
///                       naming the first faulted sample,
///   kClampAndFlag     — bad inputs are clamped to 0, non-finite reported
///                       moments are clamped to 0, the sample is flagged,
///   kSkipAndFlag      — poisoned values are kept, the sample is flagged.
/// Faults are per-*sample* (per lane): one poisoned sample is flagged while
/// every healthy lane of the batch stays bitwise-identical to a scalar
/// `eed::analyze` of that sample's tree — the guards never touch the
/// kernel's arithmetic, only its inputs (at fill time) and the copied-out
/// results.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "relmore/circuit/flat_tree.hpp"
#include "relmore/circuit/rlc_tree.hpp"
#include "relmore/eed/model.hpp"
#include "relmore/util/deadline.hpp"
#include "relmore/util/diagnostics.hpp"

namespace relmore::util {
class WorkerPool;
}

namespace relmore::engine {

/// Widest supported lane width: 8 doubles (one AVX-512 vector, two AVX2
/// vectors). Callers passing lane_width 0 get the KernelTuner's pick for
/// the tree size rather than this maximum — wide groups multiply the
/// per-section working set and lose past L2.
inline constexpr std::size_t kDefaultLaneWidth = 8;

/// Result of one batched analysis: (SR, SL, Ctot) for every requested
/// (sample, node) pair, plus the derived second-order model on demand.
class BatchedModels {
 public:
  [[nodiscard]] std::size_t samples() const { return samples_; }
  /// Section ids covered: every id for `analyze()`, the requested subset
  /// for `analyze_nodes()`.
  [[nodiscard]] const std::vector<circuit::SectionId>& node_ids() const { return ids_; }

  /// SR_i / SL_i / Ctot_i of section `id` in sample `s`. Throws
  /// std::out_of_range on an uncovered id or sample.
  [[nodiscard]] double sum_rc(std::size_t sample, circuit::SectionId id) const;
  [[nodiscard]] double sum_lc(std::size_t sample, circuit::SectionId id) const;
  [[nodiscard]] double load_capacitance(std::size_t sample, circuit::SectionId id) const;

  /// Full second-order model of (sample, id) — same formulas (and bits)
  /// as `eed::analyze(...).at(id)` on that sample's tree.
  [[nodiscard]] eed::NodeModel node(std::size_t sample, circuit::SectionId id) const;

  /// 50% delay at (sample, id), paper eq. 35.
  [[nodiscard]] double delay_50(std::size_t sample, circuit::SectionId id) const;

  // --- fault surface (see the robustness contract in the file header) ----

  /// True when no sample faulted — the common case; the flag storage is
  /// released so a fault-free batch costs nothing to carry around.
  [[nodiscard]] bool fault_free() const { return fault_count_ == 0; }
  /// Number of faulted samples (not nodes).
  [[nodiscard]] std::size_t fault_count() const { return fault_count_; }
  /// eed::AnalysisFault bits of one sample (kFaultNone when healthy).
  [[nodiscard]] std::uint8_t fault_flags(std::size_t sample) const;
  [[nodiscard]] bool faulted(std::size_t sample) const { return fault_flags(sample) != 0; }
  /// Indices of every faulted sample, ascending.
  [[nodiscard]] std::vector<std::size_t> faulted_samples() const;

  // --- run control (see set_run_control) ---------------------------------

  /// Non-ok when the analysis stopped early at a deadline/cancellation
  /// (kDeadlineExceeded / kCancelled). Samples that were not swept carry
  /// eed::kFaultNotRun in their flags (and count as faulted); every swept
  /// sample is bitwise-identical to an uninterrupted run.
  [[nodiscard]] const util::Status& stop_status() const { return stop_status_; }
  [[nodiscard]] bool stopped() const { return !stop_status_.is_ok(); }

 private:
  friend class BatchedAnalyzer;
  [[nodiscard]] std::size_t slot(std::size_t sample, circuit::SectionId id) const;

  std::size_t samples_ = 0;
  std::size_t padded_samples_ = 0;        ///< lane_groups * lane_width
  std::vector<circuit::SectionId> ids_;   ///< covered ids, row order
  std::vector<int> row_of_;               ///< id -> row, -1 when uncovered
  /// Row-major [row * padded_samples_ + sample].
  std::vector<double> sr_, sl_, ctot_;
  /// Per-sample eed::AnalysisFault bits; empty when every sample is healthy.
  std::vector<std::uint8_t> fault_flags_;
  std::size_t fault_count_ = 0;
  util::Status stop_status_;  ///< deadline/cancel verdict; ok when ran to completion
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

  /// Result-returning construction: an invalid lane width, empty topology,
  /// or validate-rejected topology comes back as a structured Status
  /// instead of an exception. Part of the repo-wide `_checked` convention;
  /// the throwing constructor remains the shim.
  [[nodiscard]] static util::Result<BatchedAnalyzer> create_checked(circuit::FlatTree topology,
                                                                    std::size_t lane_width = 0);

  /// Selects what happens when a sample's values or computed moments are
  /// degenerate (see the file header). Applies to subsequent calls only;
  /// input faults recorded under a flag policy still surface (or throw)
  /// at the next analyze.
  void set_fault_policy(util::FaultPolicy policy) { policy_ = policy; }
  [[nodiscard]] util::FaultPolicy fault_policy() const { return policy_; }

  /// Cooperative deadline/cancellation for subsequent analyze calls. The
  /// sweep polls the control at lane-group boundaries (never inside the
  /// hot loops): groups swept before the stop was observed are kept and
  /// stay bitwise-identical to an uninterrupted run; the rest are flagged
  /// eed::kFaultNotRun. Under kThrow a stop raises util::FaultError with
  /// kDeadlineExceeded / kCancelled; under the flag policies the result
  /// comes back with `BatchedModels::stop_status()` set. The caller must
  /// keep `rc.cancel` (when non-null) alive across the analyze calls.
  void set_run_control(util::RunControl rc) { run_ = rc; }
  [[nodiscard]] const util::RunControl& run_control() const { return run_; }

  [[nodiscard]] const circuit::FlatTree& topology() const { return topo_; }
  [[nodiscard]] std::size_t sections() const { return topo_.size(); }
  [[nodiscard]] std::size_t lane_width() const { return lane_width_; }
  [[nodiscard]] std::size_t samples() const { return samples_; }
  [[nodiscard]] std::size_t lane_groups() const { return groups_; }

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
  /// concurrently for distinct `s`. Under kThrow, throws util::FaultError
  /// (a std::invalid_argument) on negative or non-finite values and
  /// std::out_of_range on a bad `s`; under the flag policies bad values
  /// mark the sample instead (clamped to 0 under kClampAndFlag).
  void set_sample(std::size_t s, const double* resistance, const double* inductance,
                  const double* capacitance);

  /// Overwrites one section of one sample.
  void set_section(std::size_t s, circuit::SectionId id, const circuit::SectionValues& v);

  /// Runs the kernel and returns models for every (sample, section).
  /// Output storage is S x n; prefer `analyze_nodes` for large trees when
  /// only a few nodes are queried. `pool` (optional) distributes
  /// lane-groups across its workers.
  [[nodiscard]] BatchedModels analyze(util::WorkerPool* pool = nullptr) const;

  /// Runs the kernel but stores only the requested nodes (S x ids.size()
  /// outputs; the sweep itself is still O(n) per lane-group).
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
  /// independent of samples(). Results are bitwise identical to
  /// resize + set_sample(s, ...) + analyze_nodes(ids): the same
  /// sample-major rows are built per group and the same kernel consumes
  /// them. An empty
  /// `ids` stores every node (analyze() semantics). Padding lanes
  /// replicate the group's first sample. Throws std::invalid_argument on
  /// samples == 0; bad filled values follow the fault policy (kThrow
  /// raises util::FaultError after the sweep, naming the first faulted
  /// sample).
  [[nodiscard]] BatchedModels analyze_stream(std::size_t samples, const SampleFill& fill,
                                             const std::vector<circuit::SectionId>& ids,
                                             util::WorkerPool* pool = nullptr) const;

 private:
  /// Per-call sweep schedule (tile size, path-walk choice, drain order);
  /// built once by make_plan, shared read-only by every group task.
  struct SweepPlan;

  [[nodiscard]] BatchedModels analyze_impl(const std::vector<circuit::SectionId>& ids,
                                           bool all_nodes, util::WorkerPool* pool) const;
  [[nodiscard]] BatchedModels make_output(const std::vector<circuit::SectionId>& ids,
                                          bool all_nodes, std::size_t samples,
                                          std::size_t groups) const;
  [[nodiscard]] std::size_t value_slot(std::size_t s, std::size_t section) const;
  [[nodiscard]] SweepPlan make_plan(const BatchedModels& out, bool all_nodes,
                                    std::size_t samples) const;
  /// Runs the full kernel for lane-group `g` over the three sample-major
  /// value rows, draining results into `out` and recording the group's
  /// fault verdicts. `scratch` holds n*W doubles (path-walk mode) or
  /// 3·n·W (two-pass mode); `path` non-null selects the path walk.
  void sweep_group(const SweepPlan& plan, BatchedModels& out, std::size_t g,
                   const double* rows_r, const double* rows_l, const double* rows_c,
                   double* scratch, std::size_t* path,
                   const std::uint8_t* lane_input) const;
  /// Merges group `g`'s input flags (`lane_input[t]`, or input_fault_ when
  /// null) with the output `poison` verdicts into `out`'s per-sample flags.
  void flag_group(BatchedModels& out, std::size_t g, const double* poison,
                  const std::uint8_t* lane_input) const;
  /// Post-join fault resolution: counts flagged samples, applies the
  /// policy (throw / clamp reported rows), and drops the flag storage
  /// when every sample is healthy.
  void finalize_faults(BatchedModels& out, const char* entry) const;
  /// Group-boundary run-control poll. Returns true when group `g` must be
  /// skipped (stop already latched, or this poll trips it — the first
  /// observer CASes the code into `stop`); skipped groups' samples are
  /// flagged eed::kFaultNotRun in `out`.
  [[nodiscard]] bool group_stopped(std::atomic<std::uint8_t>& stop, BatchedModels& out,
                                   std::size_t g) const;
  /// Post-join stop resolution: records BatchedModels::stop_status (and
  /// throws under kThrow) when a deadline/cancel tripped mid-run.
  void finalize_stop(std::atomic<std::uint8_t>& stop, BatchedModels& out,
                     const char* entry) const;

  circuit::FlatTree topo_;
  std::size_t lane_width_ = kDefaultLaneWidth;
  std::size_t samples_ = 0;
  std::size_t groups_ = 0;
  std::size_t tile_rows_ = 0;  ///< explicit downward tile; 0 = auto
  util::FaultPolicy policy_ = util::FaultPolicy::kThrow;
  util::RunControl run_;       ///< disarmed by default (never stops)
  /// Sample-major values, indexed [sample * sections + section]; rows
  /// samples_..(lane_groups * lane_width) are nominal-valued padding.
  std::vector<double> r_, l_, c_;
  /// Per-sample eed::kFaultBadInput marks recorded by the flag policies.
  std::vector<std::uint8_t> input_fault_;
};

}  // namespace relmore::engine
