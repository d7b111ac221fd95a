#include "relmore/opt/path_timing.hpp"

#include <stdexcept>

#include "relmore/eed/eed.hpp"
#include "relmore/engine/timing_engine.hpp"

namespace relmore::opt {

StageTiming time_stage(const eed::NodeModel& node, double input_rise_seconds) {
  const util::Result<eed::RampStage> stage = eed::ramp_stage_checked(node, input_rise_seconds);
  if (!stage.is_ok()) {
    if (stage.status().code() == util::ErrorCode::kNegativeValue) {
      throw std::invalid_argument("time_stage: negative input rise");
    }
    throw std::runtime_error("time_stage: response never crossed level");
  }
  StageTiming out;
  out.zeta = node.zeta;
  out.input_rise = input_rise_seconds;
  out.delay = stage.value().delay;
  out.output_rise = stage.value().output_rise;
  return out;
}

PathTiming time_path(const std::vector<PathStage>& stages, double first_input_rise) {
  if (stages.empty()) throw std::invalid_argument("time_path: empty path");
  PathTiming out;
  double rise = first_input_rise;
  for (const PathStage& st : stages) {
    if (st.tree.empty()) throw std::invalid_argument("time_path: stage with empty tree");
    // Engine session per stage: only the stage's sink node is needed, so
    // the downward pass is a single O(depth) prefix walk.
    const engine::TimingEngine eng(st.tree);
    StageTiming timing = time_stage(eng.node(st.sink), rise);
    timing.delay += st.intrinsic_delay;
    out.total_delay += timing.delay;
    rise = timing.output_rise;
    out.stages.push_back(timing);
  }
  return out;
}

}  // namespace relmore::opt
