/// \file tune_env_test.cpp
/// The RELMORE_TUNE override end-to-end. The tuner reads the variable
/// exactly once per process (std::call_once), so this test lives in its
/// own binary: a file-scope initializer plants RELMORE_TUNE=2x4 before
/// main() — and therefore before any KernelTuner::instance() call — and
/// every test here asserts against that forced plan. The deliberately
/// tiny tile (4 rows) hammers tile boundaries; results must still be
/// bitwise-equal to the scalar oracle.

#include <cstdlib>
#include <vector>

#include <gtest/gtest.h>

#include "relmore/circuit/builders.hpp"
#include "relmore/circuit/flat_tree.hpp"
#include "relmore/eed/model.hpp"
#include "relmore/engine/batched.hpp"
#include "relmore/sim/batch_sim.hpp"
#include "relmore/sim/flat_stepper.hpp"
#include "relmore/sim/tree_transient.hpp"
#include "relmore/util/tuner.hpp"

namespace {

using namespace relmore;
using circuit::SectionId;

const bool kEnvPlanted = [] {
  setenv("RELMORE_TUNE", "2x4", 1);
  return true;
}();

TEST(TuneEnv, ForcedPlanPinsEveryBucket) {
  ASSERT_TRUE(kEnvPlanted);
  const util::KernelTuner& tuner = util::KernelTuner::instance();
  ASSERT_TRUE(tuner.forced());
  for (const std::size_t sections : {std::size_t{8}, std::size_t{100000}}) {
    for (const std::size_t lanes : {std::size_t{0}, std::size_t{1}, std::size_t{512}}) {
      const util::KernelPlan ap = tuner.analysis_plan(sections, lanes);
      EXPECT_EQ(ap.lane_width, 2u);
      EXPECT_EQ(ap.tile_rows, 4u);
      const util::KernelPlan sp = tuner.sim_plan(sections, lanes);
      EXPECT_EQ(sp.lane_width, 2u);
      EXPECT_EQ(sp.tile_rows, 4u);
    }
  }
}

TEST(TuneEnv, AutoWidthCallersInheritTheForcedPlanBitwiseEqual) {
  const circuit::RlcTree tree = circuit::make_balanced_tree(6, 2, {25.0, 1e-9, 0.12e-12});
  const circuit::FlatTree flat(tree);
  const std::size_t n = flat.size();

  // Analysis: width 0 resolves to the forced W=2, tile 4; output must
  // match the scalar oracle exactly.
  engine::BatchedAnalyzer batch(flat, 0);
  EXPECT_EQ(batch.lane_width(), 2u);
  batch.resize(5);
  const eed::TreeModel want = eed::analyze(flat);
  std::vector<SectionId> every(n);
  for (std::size_t k = 0; k < n; ++k) every[k] = static_cast<SectionId>(k);
  const engine::BatchedModels got = batch.analyze_nodes(every);
  for (std::size_t s = 0; s < 5; ++s) {
    for (std::size_t k = 0; k < n; ++k) {
      const auto id = static_cast<SectionId>(k);
      ASSERT_EQ(got.sum_rc(s, id), want.at(id).sum_rc) << "s " << s << " k " << k;
      ASSERT_EQ(got.node(s, id).sum_lc, want.at(id).sum_lc) << "s " << s << " k " << k;
    }
  }

  // An explicit width still beats the override.
  engine::BatchedAnalyzer wide(flat, 8);
  EXPECT_EQ(wide.lane_width(), 8u);

  // Simulation: same resolution rule, same bitwise contract.
  sim::BatchSimulator bs(flat, 0);
  EXPECT_EQ(bs.lane_width(), 2u);
  bs.resize(3);
  sim::TransientOptions opts;
  opts.dt = sim::suggest_timestep(tree, 0.05);
  opts.t_stop = 200.0 * opts.dt;
  opts.probes = {static_cast<SectionId>(n - 1)};
  const sim::TransientResult ref = sim::simulate_tree(flat, sim::StepSource{1.0}, opts);
  const sim::BatchTransientResult res = bs.simulate(opts);
  for (std::size_t s = 0; s < 3; ++s) {
    for (std::size_t k = 0; k < res.time().size(); ++k) {
      ASSERT_EQ(res.voltage(s, opts.probes[0], k), ref.node_voltage[0][k])
          << "run " << s << " step " << k;
    }
  }
}

}  // namespace
