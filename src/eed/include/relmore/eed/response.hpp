#pragma once

/// \file response.hpp
/// Time-domain responses of the second-order node model to the inputs the
/// paper analyses: ideal step (eq. 31), saturating exponential (eqs. 43–48),
/// linear ramp, and arbitrary sources (via the model's ODE, paper Section
/// IV's "multiply by the Laplace transform of the input" procedure done
/// numerically) — and the STA's exact wire-stage kernel, the first
/// crossings of the ramp response (ramp_crossing, ramp_stage_checked).

#include <vector>

#include "relmore/eed/model.hpp"
#include "relmore/sim/source.hpp"
#include "relmore/sim/waveform.hpp"
#include "relmore/util/diagnostics.hpp"

namespace relmore::eed {

/// Step response v_i(t) with supply `v_supply` (paper eq. 31).
[[nodiscard]] double step_response(const NodeModel& node, double t, double v_supply = 1.0);

/// Closed-form response to the exponential input V(1 − e^{−t/tau})
/// (paper eqs. 43–48), valid for all damping conditions.
[[nodiscard]] double exp_input_response(const NodeModel& node, double t, double v_supply, double tau);

/// Closed-form response to a finite linear ramp (0 → v_supply over
/// `rise_seconds`, then flat) — the other canonical driver waveform the
/// paper's Section IV procedure covers: v(t) = V/T·[S(t) − S(t−T)] with
/// S = ∫ step. Evaluated in scaled time u = omega_n·t in real arithmetic
/// (exact near zeta = 1 and for a short rise); RC nodes, and nodes whose
/// fast pole is below rounding (zeta >= 2^27), use the single pole
/// tau = SR.
[[nodiscard]] double ramp_input_response(const NodeModel& node, double t, double v_supply,
                           double rise_seconds);

/// Wire-stage timing of one node driven by a linear ramp: what a static
/// timer reads off ramp_input_response() for a stage.
struct RampStage {
  double delay = 0.0;        ///< 50% of the input -> 50% of the output [s]
  double output_rise = 0.0;  ///< 10-90% rise of the output [s]
};

/// First time [s] the node's response to a 0 -> 1 ramp of `rise_seconds`
/// (0 = ideal step) reaches `level` (in (0, 1)), converged to the last
/// bits; NaN when it never does (a negative or non-finite rise, a
/// non-finite model) or the level is outside (0, 1). The one exact
/// wire-stage kernel, chosen by the node's damping:
///  - RC (omega_n = inf, or zeta >= 2^27): closed forms in x = t/SR from
///    T/SR — ln(expm1(b)/b) − log1p(−level) after the ramp, a Halley
///    solve of x + expm1(−x) = level·b (Lambert W0) during it;
///  - overdamped (1.25 <= zeta < 2^27): Newton on the two-pole response
///    in u = omega_n·t from (zeta, omega_n·T), seeded by the dominant
///    pole's closed form, stopped at |du| <= 8 eps·u or when the step
///    stops shrinking at rounding level;
///  - underdamped and near-critical (zeta < 1.25), and any level whose
///    Newton is capped or goes non-finite: a forward bracket scan and
///    Brent stopped relative to the root (util::RootOptions::x_tol = 0).
/// Scaling SR by 2^k and SL by 4^k (C and L by 2^k) and the rise by 2^k
/// scales the crossing by exactly 2^k. Never throws, never allocates.
[[nodiscard]] double ramp_crossing(const NodeModel& node, double rise_seconds, double level);

/// Times a wire stage: the delay runs from the input's 50% point (rise/2)
/// to the output's first 50% crossing, the output rise from its first 10%
/// to its first 90% crossing, each crossing as ramp_crossing() finds it
/// (one kernel call serves the three levels). At zero rise these are the
/// exact step crossings, delay_50_exact() and rise_time_exact() — on RC
/// nodes Wyatt's ln2·SR and ln9·SR — the limit of a vanishing rise.
/// Never throws; allocates only a failure's message.
///
/// Fails with kNegativeValue on a negative rise, and with
/// kInvalidArgument when the response never crosses a level (a
/// non-finite rise or model).
[[nodiscard]] util::Result<RampStage> ramp_stage_checked(const NodeModel& node,
                                                         double rise_seconds);

/// Samples step_response over `times`.
[[nodiscard]] sim::Waveform step_waveform(const NodeModel& node, const std::vector<double>& times,
                            double v_supply = 1.0);

/// Samples exp_input_response over `times`.
[[nodiscard]] sim::Waveform exp_input_waveform(const NodeModel& node, const std::vector<double>& times,
                                 double v_supply, double tau);

/// Samples ramp_input_response over `times`.
[[nodiscard]] sim::Waveform ramp_input_waveform(const NodeModel& node, const std::vector<double>& times,
                                  double v_supply, double rise_seconds);

/// Response of the second-order model to an arbitrary source, integrated
/// with adaptive RK45 on  v'' + 2 zeta omega_n v' + omega_n^2 v =
/// omega_n^2 u(t). Sampled at `times` (must be increasing from >= 0).
[[nodiscard]] sim::Waveform arbitrary_input_waveform(const NodeModel& node, const sim::Source& source,
                                       const std::vector<double>& times);

}  // namespace relmore::eed
