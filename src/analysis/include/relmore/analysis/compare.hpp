#pragma once

/// \file compare.hpp
/// The experiment harness: produces reference waveforms (the AS/X stand-in)
/// and scores the closed-form models against them, per node. Every figure
/// bench is a thin sweep around compare_step_response().

#include "relmore/circuit/rlc_tree.hpp"
#include "relmore/eed/model.hpp"
#include "relmore/sim/source.hpp"
#include "relmore/sim/waveform.hpp"
#include "relmore/util/diagnostics.hpp"

namespace relmore::analysis {

/// Reference zero-state response at `node`. Uses the exact modal solver
/// when the tree is strictly RLC (every L, C > 0); falls back to the
/// trapezoidal tree engine otherwise.
sim::Waveform reference_waveform(const circuit::RlcTree& tree, circuit::SectionId node,
                                 const sim::Source& source, double t_stop,
                                 std::size_t samples = 2001);

/// A simulation horizon long enough for the node to settle: driven by the
/// EED model's own settling estimate with a safety factor.
double suggest_horizon(const eed::NodeModel& node, double safety = 1.6);

/// One row of a paper-style accuracy comparison at a node (step input).
struct StepComparison {
  double zeta = 0.0;
  double omega_n = 0.0;

  double ref_delay_50 = 0.0;   ///< simulator (reference) 50% delay
  double eed_delay_50 = 0.0;   ///< paper eq. 35 (fitted form)
  double eed_delay_exact = 0.0;  ///< exact crossing of the 2nd-order model
  double wyatt_delay_50 = 0.0; ///< RC baseline ln2·(sum RC)
  double elmore_delay_50 = 0.0;  ///< RC baseline sum RC

  double ref_rise = 0.0;
  double eed_rise = 0.0;

  double ref_overshoot_pct = 0.0;
  double eed_overshoot_pct = 0.0;  ///< paper eq. 39 (0 when not underdamped)

  double delay_err_pct = 0.0;      ///< 100·|eed − ref|/ref (fitted)
  double rise_err_pct = 0.0;
  double wyatt_err_pct = 0.0;
  double waveform_max_err = 0.0;   ///< max |eed(t) − ref(t)| / v_supply
};

/// Knobs for compare_step_response — an options struct reads at the call
/// site and leaves room for later knobs without a signature change.
struct CompareOptions {
  double v_supply = 1.0;       ///< step amplitude [V]
  std::size_t samples = 2001;  ///< reference-waveform sample count
};

/// Runs reference simulation + closed forms at one node for a step input.
/// Returns a structured Status (empty tree, bad node id, degenerate
/// moments) instead of throwing; never unwinds.
[[nodiscard]] util::Result<StepComparison> compare_step_response_checked(
    const circuit::RlcTree& tree, circuit::SectionId node, const CompareOptions& options = {});

/// Exception-compatible shim over compare_step_response_checked: throws
/// util::FaultError on any rejected input.
StepComparison compare_step_response(const circuit::RlcTree& tree, circuit::SectionId node,
                                     const CompareOptions& options = {});

/// Rescales every inductance by a single factor so that `node` hits
/// `target_zeta` exactly (zeta scales as 1/sqrt(L)); returns the factor.
double scale_inductance_for_zeta(circuit::RlcTree& tree, circuit::SectionId node,
                                 double target_zeta);

}  // namespace relmore::analysis
