#include "relmore/opt/path_timing.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "relmore/circuit/builders.hpp"
#include "relmore/eed/eed.hpp"
#include "relmore/sim/measure.hpp"
#include "relmore/sim/tree_transient.hpp"

namespace relmore::opt {
namespace {

using circuit::RlcTree;
using circuit::SectionId;

PathStage make_stage(double scale) {
  PathStage st;
  st.tree = circuit::make_line(4, {20.0 * scale, 1.5e-9 * scale, 0.15e-12 * scale});
  st.sink = 3;
  st.intrinsic_delay = 5e-12;
  return st;
}

TEST(PathTiming, StepStageMatchesClosedForms) {
  const PathStage st = make_stage(1.0);
  const auto model = eed::analyze(st.tree);
  const StageTiming t = time_stage(model.at(st.sink), 0.0);
  EXPECT_EQ(t.delay, eed::delay_50_exact(model.at(st.sink)));
  EXPECT_EQ(t.output_rise, eed::rise_time_exact(model.at(st.sink)));
}

TEST(PathTiming, SlowInputAddsNearZeroStageDelayLag) {
  // With a very slow ramp, 50%-to-50% delay approaches the Elmore lag
  // (the output tracks the input shifted by sum RC).
  const PathStage st = make_stage(1.0);
  const auto model = eed::analyze(st.tree);
  const auto& nm = model.at(st.sink);
  const double slow = 500.0 * nm.sum_rc;
  const StageTiming t = time_stage(nm, slow);
  EXPECT_NEAR(t.delay, nm.sum_rc, 0.05 * nm.sum_rc);
  // Output rise approaches the input rise (0.8 of it measured 10-90).
  EXPECT_NEAR(t.output_rise, 0.8 * slow, 0.05 * slow);
}

TEST(PathTiming, RampInputMovesDelayTowardElmoreLag) {
  // Under the 50-50 convention, slowing the input edge moves an
  // underdamped stage's delay from the step value toward the Elmore lag
  // (sum RC) — finite edges excite less of the inductive slow-down — and
  // always stretches the output edge.
  const PathStage st = make_stage(1.0);
  const auto model = eed::analyze(st.tree);
  const auto& nm = model.at(st.sink);
  const StageTiming step = time_stage(nm, 0.0);
  const StageTiming ramp = time_stage(nm, 4.0 * eed::rise_time(nm));
  EXPECT_LT(ramp.delay, step.delay);
  EXPECT_GT(ramp.delay, 0.9 * nm.sum_rc);
  EXPECT_GT(ramp.output_rise, step.output_rise);
}

TEST(PathTiming, PathAccumulatesStages) {
  const std::vector<PathStage> path{make_stage(1.0), make_stage(0.7), make_stage(1.3)};
  const PathTiming t = time_path(path);
  ASSERT_EQ(t.stages.size(), 3u);
  double sum = 0.0;
  for (const auto& s : t.stages) sum += s.delay;
  EXPECT_DOUBLE_EQ(t.total_delay, sum);
  // Slew propagates: stage 1 input rise equals stage 0 output rise.
  EXPECT_DOUBLE_EQ(t.stages[1].input_rise, t.stages[0].output_rise);
  EXPECT_DOUBLE_EQ(t.stages[2].input_rise, t.stages[1].output_rise);
  EXPECT_DOUBLE_EQ(t.stages[0].input_rise, 0.0);
}

TEST(PathTiming, SlewPropagationChangesDownstreamTiming) {
  // Ignoring the input slew (step-driving every stage) underestimates the
  // per-stage rise; the propagated path must differ from the naive sum.
  const std::vector<PathStage> path{make_stage(1.0), make_stage(1.0)};
  const PathTiming propagated = time_path(path);
  const auto model = eed::analyze(path[1].tree);
  const StageTiming naive = time_stage(model.at(path[1].sink), 0.0);
  EXPECT_NE(propagated.stages[1].delay, naive.delay + path[1].intrinsic_delay);
  EXPECT_GT(propagated.stages[1].output_rise, naive.output_rise);
}

TEST(PathTiming, MatchesSimulatedTwoStagePath) {
  // Simulate the two-stage path as stage-by-stage linear circuits driving
  // ramps and compare the propagated closed-form total delay.
  const std::vector<PathStage> path{make_stage(1.0), make_stage(1.0)};
  const PathTiming t = time_path(path);

  // Stage 1 simulated with a ramp input of the closed-form output rise.
  const auto model1 = eed::analyze(path[1].tree);
  const double rise_in = t.stages[0].output_rise;
  sim::TransientOptions opts;
  opts.t_stop = 40.0 * model1.at(path[1].sink).sum_rc + 6.0 * rise_in;
  opts.dt = opts.t_stop / 40000.0;
  const auto res =
      sim::simulate_tree(path[1].tree, sim::RampSource{1.0, rise_in}, opts);
  const double sim_t50 = res.waveform(path[1].sink).first_rise_crossing(0.5);
  const double sim_stage_delay = sim_t50 - 0.5 * rise_in + path[1].intrinsic_delay;
  EXPECT_NEAR(t.stages[1].delay, sim_stage_delay,
              0.15 * sim_stage_delay + 2e-12);
}

TEST(PathTiming, ValidatesInputs) {
  EXPECT_THROW(time_path({}), std::invalid_argument);
  std::vector<PathStage> bad(1);
  EXPECT_THROW(time_path(bad), std::invalid_argument);
  const PathStage st = make_stage(1.0);
  const auto model = eed::analyze(st.tree);
  EXPECT_THROW((void)time_stage(model.at(st.sink), -1.0), std::invalid_argument);
}

}  // namespace
}  // namespace relmore::opt
