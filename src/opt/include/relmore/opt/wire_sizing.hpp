#pragma once

/// \file wire_sizing.hpp
/// Continuous wire sizing under the closed-form delay models — the
/// optimization workload the paper positions its continuous expressions
/// for (§IV; prior RC art: Cong/Leung [18], Cong/He [23], Sapatnekar [22]).
///
/// Width model per segment at width w (w = 1 is the reference wire):
///   R(w) = r / w                (sheet resistance)
///   L(w) = l * (1 - ll * ln w)  (weak logarithmic width dependence)
///   C(w) = c_area * w + c_fringe
/// Delay is evaluated with either the Wyatt RC model or the Equivalent
/// Elmore Delay, and minimized by coordinate descent over the per-segment
/// widths. Comparing the two optima against the simulator quantifies the
/// cost of ignoring inductance during sizing.

#include <vector>

#include "relmore/circuit/rlc_tree.hpp"

namespace relmore::util {
class WorkerPool;
}

namespace relmore::opt {

/// Which closed-form delay drives the optimizer.
enum class DelayModel {
  kWyattRc,           ///< ln2 * (sum RC) — inductance-blind baseline
  kEquivalentElmore,  ///< paper eq. 35
};

/// A uniform line to be sized, segment by segment.
struct WireSizingProblem {
  int segments = 8;
  double unit_resistance = 40.0;       ///< ohm per segment at w = 1
  double unit_inductance = 0.8e-9;     ///< H per segment at w = 1
  double inductance_width_slope = 0.1; ///< ll in L(w) = l (1 - ll ln w)
  double unit_area_cap = 40e-15;       ///< F per segment per unit width
  double unit_fringe_cap = 25e-15;     ///< F per segment, width-independent
  double driver_resistance = 25.0;     ///< ohm at the source
  double load_capacitance = 80e-15;    ///< F at the sink
  double width_min = 0.5;
  double width_max = 6.0;
};

/// Builds the RLC tree for a given width assignment (driver modeled as a
/// zero-length series resistance, load as a final capacitive stub).
/// The sink is the last section.
[[nodiscard]] circuit::RlcTree build_sized_line(const WireSizingProblem& problem,
                                  const std::vector<double>& widths);

/// Closed-form sink delay of a width assignment under the chosen model.
[[nodiscard]] double sized_line_delay(const WireSizingProblem& problem, const std::vector<double>& widths,
                        DelayModel model);

/// Sink delays of many width assignments at once. Every candidate shares
/// the driver/segments/load line topology and differs only in the segment
/// values, so the whole sweep is one batched same-topology kernel call
/// (engine::BatchedAnalyzer, lane-per-candidate) instead of
/// candidates.size() tree builds + scalar analyses. `pool` (optional)
/// fans lane-groups across its workers. Each result is bitwise equal to
/// `sized_line_delay` of that candidate.
[[nodiscard]] std::vector<double> sized_line_delays(const WireSizingProblem& problem,
                                      const std::vector<std::vector<double>>& candidates,
                                      DelayModel model,
                                      util::WorkerPool* pool = nullptr);

/// Result of a sizing run.
struct WireSizingResult {
  std::vector<double> widths;
  double delay = 0.0;  ///< model delay at the optimum
  int sweeps = 0;
  bool converged = false;
};

/// Minimizes the sink delay over per-segment widths with coordinate
/// descent from the all-ones start.
[[nodiscard]] WireSizingResult optimize_wire_sizing(const WireSizingProblem& problem, DelayModel model);

/// Options for the batched-sweep optimizer.
struct BatchedSizingOptions {
  int max_sweeps = 40;
  int grid = 8;         ///< candidate widths evaluated per refinement round
  int refinements = 4;  ///< bracket-shrink rounds per coordinate
  double x_tol = 1e-4;  ///< stop refining a coordinate below this bracket size
  double f_tol = 1e-12; ///< stop sweeping when a full sweep improves less
};

/// Coordinate descent whose per-coordinate line search is a shrinking
/// *grid* evaluated through `sized_line_delays`: each refinement round
/// scores `grid` candidate widths in one batched kernel call instead of a
/// chain of sequential golden-section probes. Same minima as
/// `optimize_wire_sizing` on the smooth sizing objectives, but the probe
/// evaluations vectorize lane-per-candidate.
[[nodiscard]] WireSizingResult optimize_wire_sizing_batched(const WireSizingProblem& problem, DelayModel model,
                                              const BatchedSizingOptions& opts = {});

}  // namespace relmore::opt
