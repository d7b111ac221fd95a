#pragma once

/// \file response.hpp
/// Time-domain responses of the second-order node model to the inputs the
/// paper analyses: ideal step (eq. 31), saturating exponential (eqs. 43–48),
/// and arbitrary sources (via the model's ODE, paper Section IV's "multiply
/// by the Laplace transform of the input" procedure done numerically).

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
/// paper's Section IV procedure covers. Derived by integrating the step
/// response: v(t) = V/T·[S(t) − S(t−T)] with S = ∫ step.
[[nodiscard]] double ramp_input_response(const NodeModel& node, double t, double v_supply,
                           double rise_seconds);

/// Wire-stage timing of one node driven by a linear ramp: what a static
/// timer reads off ramp_input_response() for a stage.
struct RampStage {
  double delay = 0.0;        ///< 50% of the input -> 50% of the output [s]
  double output_rise = 0.0;  ///< 10-90% rise of the output [s]
};

/// Times a wire stage: the node driven by a 0 -> 1 ramp of `rise_seconds`
/// (0 = ideal step, timed with the closed forms delay_50() and
/// rise_time(), paper eqs. 35-36). The delay runs from the input's 50%
/// point (rise/2) to the output's first 50% crossing; the output rise
/// from its first 10% crossing to its first 90% crossing.
///
/// The crossings are those of ramp_input_response() found bit for bit as
/// three util::find_root_forward() searches would find them (first step
/// 0.05 x max(rise, delay_50), growth 1.6, 400 expansions, Brent with
/// util::RootOptions defaults), with about half the response evaluations:
/// the node's poles and residues are computed once, one bracket scan
/// serves all three levels, and each level's Brent solve starts from its
/// bracket's end values. Never throws; allocates only a failure's message.
///
/// Fails with kNegativeValue on a negative rise, and with
/// kInvalidArgument when the response never crosses a level within the
/// scan (a non-finite rise or response).
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
