#pragma once

/// \file batch_sim.hpp
/// Batched same-topology transient simulation: one tree, S (source, value)
/// runs, AoSoA layout, lane-per-run — the simulator-side sibling of
/// engine::BatchedAnalyzer.
///
/// The simulation-anchored workloads (ablation sweeps, simulation-guided
/// buffer insertion, Monte-Carlo waveform studies) re-run the *same
/// topology* with different element values and sources hundreds of times.
/// `BatchSimulator` fixes the topology once (a `circuit::FlatTree`
/// snapshot) and lays the S value sets out AoSoA: runs are grouped into
/// lane-groups of width W (1, 2, 4, or 8 doubles), and within a group the
/// values — and the whole integration state — of section i are stored as W
/// adjacent doubles, one lane per run:
///
///   values[group][section i][lane t]  =  run (group·W + t)'s value of i
///
/// Each timestep then runs the FlatStepper sweeps once per lane-group with
/// fixed-width inner lane loops (`#pragma omp simd`, no intrinsics). Every
/// lane executes exactly the scalar FlatStepper's operations in exactly its
/// association order — divisions by a possibly-zero g_node go through a
/// select of a safe divisor, which is bitwise-free for live lanes and only
/// suppresses spurious Inf/NaN in lanes whose g_node is zero — so each
/// run's waveforms are *bitwise identical* to a scalar `FlatStepper` run of
/// that lane's tree (and hence, by FlatStepper's own contract, to the
/// `TreeStepper` oracle). Results are therefore independent of the lane
/// width and of how lane-groups are scheduled across threads.
///
/// Lane-groups are independent; a `WorkerPool` (RELMORE_THREADS)
/// fans them across cores with outputs written to disjoint ranges.
/// Recording is probe-selective, as in simulate_tree, and the streaming
/// first_crossings path keeps only a one-sample ring per lane.
///
/// Working-set control: each timestep's downward sweep is tiled into
/// blocks of sections sized by `util::KernelTuner` (overridable with
/// `RELMORE_TUNE=WxT` or `set_tile_rows`) so the per-step state stays
/// inside L2 at large n, and probe recording drains through the tile
/// sink while rows are still cache-hot. Tiling changes only the *touch*
/// order of independent per-section updates, never any reduction order,
/// so every configuration remains bitwise-equal to the scalar
/// FlatStepper. See docs/sim.md.

#include <cstddef>
#include <vector>

#include "relmore/circuit/flat_tree.hpp"
#include "relmore/sim/source.hpp"
#include "relmore/sim/tree_transient.hpp"
#include "relmore/sim/waveform.hpp"

namespace relmore::util {
class WorkerPool;
}

namespace relmore::sim {

/// Voltages of every recorded (run, probe, step) triple from one batched
/// simulation. All runs share the fixed-step time grid.
class BatchTransientResult {
 public:
  [[nodiscard]] std::size_t runs() const { return runs_; }
  [[nodiscard]] const std::vector<double>& time() const { return time_; }
  /// Sections recorded, in row order (every id when the simulate call's
  /// probe list was empty).
  [[nodiscard]] const std::vector<circuit::SectionId>& probe_ids() const { return ids_; }

  /// v(run, node) at time()[step]. Throws std::out_of_range on an
  /// unrecorded node or bad run/step.
  [[nodiscard]] double voltage(std::size_t run, circuit::SectionId node,
                               std::size_t step) const;
  /// Full waveform of (run, node); bitwise-equal to the corresponding
  /// scalar simulate_tree row.
  [[nodiscard]] Waveform waveform(std::size_t run, circuit::SectionId node) const;

 private:
  friend class BatchSimulator;
  [[nodiscard]] std::size_t row(circuit::SectionId node) const;

  std::size_t runs_ = 0;
  std::size_t padded_runs_ = 0;  ///< lane_groups * lane_width
  std::vector<double> time_;
  std::vector<circuit::SectionId> ids_;  ///< recorded section per row
  std::vector<int> row_of_;              ///< id -> row, -1 when unrecorded
  /// [(row * samples + step) * padded_runs + run]; lane writes of one
  /// group land in W contiguous doubles.
  std::vector<double> v_;
};

/// Same-topology batched transient simulator: topology fixed at
/// construction, per-run values and sources filled in, then S lock-step
/// integrations per kernel sweep. Like FlatStepper (and unlike the
/// analysis-side BatchedAnalyzer) it does not validate element values —
/// the simulator contract is caller-prepared trees.
class BatchSimulator {
 public:
  /// `lane_width` must be 1, 2, 4, or 8; 0 lets util::KernelTuner pick
  /// (auto-calibrated, overridable via RELMORE_TUNE). Throws
  /// std::invalid_argument on other widths or an empty topology.
  explicit BatchSimulator(circuit::FlatTree topology, std::size_t lane_width = 0);

  [[nodiscard]] const circuit::FlatTree& topology() const { return topo_; }
  [[nodiscard]] std::size_t sections() const { return topo_.size(); }
  [[nodiscard]] std::size_t lane_width() const { return lane_width_; }
  [[nodiscard]] std::size_t runs() const { return runs_; }
  [[nodiscard]] std::size_t lane_groups() const { return groups_; }

  /// Sets the run count and (re)initializes every run — padding lanes of
  /// the last group included — to the snapshot's nominal values driven by
  /// a unit StepSource.
  void resize(std::size_t runs);

  /// Input source of run `s` (every run starts as StepSource{1.0}).
  void set_source(std::size_t s, Source source);
  /// Overwrites run `s`'s element values from arrays of length
  /// sections(). Safe to call concurrently for distinct `s`.
  void set_run(std::size_t s, const double* resistance, const double* inductance,
               const double* capacitance);
  /// Overwrites one section of one run.
  void set_run_section(std::size_t s, circuit::SectionId id, const circuit::SectionValues& v);

  /// Overrides the downward-sweep tile size (rows per tile) for
  /// subsequent simulate/first_crossings calls. 0 restores auto
  /// calibration via util::KernelTuner. Explicit values — including
  /// degenerate ones (1, or >= sections(), which behaves untiled) — are
  /// used as-is; every setting is bitwise-equivalent.
  void set_tile_rows(std::size_t tile_rows);
  /// The explicit tile override (0 = auto).
  [[nodiscard]] std::size_t tile_rows() const { return tile_rows_; }

  /// Simulates every run from zero initial conditions over the fixed-step
  /// grid of `opts` (probe-selective via opts.probes; empty records every
  /// section). `pool` (optional) distributes lane-groups across workers;
  /// results are bitwise independent of the pool and lane width. Throws
  /// std::invalid_argument on bad options or zero runs.
  [[nodiscard]] BatchTransientResult simulate(const TransientOptions& opts,
                                              util::WorkerPool* pool = nullptr) const;

  /// Streaming batched measurement: the first upward crossing of
  /// `threshold` at `probe` for every run — one double per run, no
  /// waveform storage, early exit per lane-group once every live lane has
  /// crossed. Bitwise-equal to simulate + Waveform::first_rise_crossing
  /// (negative = no crossing within t_stop). `opts.probes` is ignored.
  [[nodiscard]] std::vector<double> first_crossings(const TransientOptions& opts,
                                                    circuit::SectionId probe, double threshold,
                                                    util::WorkerPool* pool = nullptr) const;

 private:
  [[nodiscard]] std::size_t value_slot(std::size_t s, std::size_t section) const;
  /// Effective tile for a sweep: the explicit override, else the tuner's
  /// sim plan for (sections, runs). 0 means untiled.
  [[nodiscard]] std::size_t resolved_tile_rows() const;

  circuit::FlatTree topo_;
  std::size_t lane_width_ = 0;
  std::size_t runs_ = 0;
  std::size_t groups_ = 0;
  std::size_t tile_rows_ = 0;  ///< explicit downward tile; 0 = auto
  /// AoSoA values, indexed [(group * sections + section) * lane_width + lane].
  std::vector<double> r_, l_, c_;
  /// One source per padded run (padding replicates StepSource{1.0}).
  std::vector<Source> sources_;
};

}  // namespace relmore::sim
