#pragma once

/// \file path_timing.hpp
/// Static-timing-style path walking on top of the closed forms: stages are
/// chained driver+tree hops, and each stage's *output edge rate* becomes
/// the next stage's *input ramp* — the non-step-input capability the
/// paper's Section IV procedure exists for ("the Laplace transform of the
/// input is multiplied by the second-order transfer function"). Stage
/// delay is measured 50%-of-input to 50%-of-output, the STA convention.

#include <vector>

#include "relmore/circuit/rlc_tree.hpp"
#include "relmore/eed/model.hpp"

namespace relmore::opt {

/// One hop of a path: a tree driven at its input, observed at `sink`.
struct PathStage {
  circuit::RlcTree tree;
  circuit::SectionId sink = circuit::kInput;
  double intrinsic_delay = 0.0;  ///< gate delay added before the wire
};

/// Timing of one stage after slew propagation.
struct StageTiming {
  double zeta = 0.0;
  double input_rise = 0.0;   ///< ramp rise time applied at the stage input
  double delay = 0.0;        ///< 50%(input) -> 50%(output), + intrinsic
  double output_rise = 0.0;  ///< 10-90% of the stage output
};

/// Whole-path result.
struct PathTiming {
  double total_delay = 0.0;
  std::vector<StageTiming> stages;
};

/// Stage delay and output rise for a linear-ramp input with the given rise
/// time (0 = ideal step): eed::ramp_stage_checked, with its failures as
/// exceptions — std::invalid_argument on a negative rise,
/// std::runtime_error when the response never crosses a level.
[[nodiscard]] StageTiming time_stage(const eed::NodeModel& node, double input_rise_seconds);

/// Walks the path: stage k is driven by a ramp whose rise time equals
/// stage k-1's output rise (stage 0 sees `first_input_rise`, default step).
[[nodiscard]] PathTiming time_path(const std::vector<PathStage>& stages, double first_input_rise = 0.0);

}  // namespace relmore::opt
