/// \file tune_reject_test.cpp
/// Malformed RELMORE_TUNE values must be rejected loudly and fall back
/// to auto-calibration — never crash, never half-apply. Own binary for
/// the same reason as tune_env_test: the variable is read exactly once
/// per process, so the bad value is planted by a file-scope initializer
/// before main().

#include <cstdlib>

#include <gtest/gtest.h>

#include "relmore/circuit/builders.hpp"
#include "relmore/circuit/flat_tree.hpp"
#include "relmore/engine/batched.hpp"
#include "relmore/util/tuner.hpp"

namespace {

using namespace relmore;

const bool kEnvPlanted = [] {
  setenv("RELMORE_TUNE", "8x64banana", 1);
  return true;
}();

TEST(TuneReject, MalformedOverrideFallsBackToAutoCalibration) {
  ASSERT_TRUE(kEnvPlanted);
  const util::KernelTuner& tuner = util::KernelTuner::instance();
  EXPECT_FALSE(tuner.forced());
  // Auto plans, not the half-parseable "8x64" prefix.
  EXPECT_EQ(tuner.analysis_plan(1000, 256).lane_width, 4u);
  EXPECT_EQ(tuner.analysis_plan(1000, 256).tile_rows, 0u);

  // Kernels construct and run normally on the fallback plan.
  const circuit::RlcTree tree = circuit::make_balanced_tree(4, 2, {20.0, 1e-9, 0.1e-12});
  engine::BatchedAnalyzer batch(circuit::FlatTree(tree), 0);
  EXPECT_EQ(batch.lane_width(), 4u);
  batch.resize(3);
  const engine::BatchedModels models = batch.analyze_nodes({0});
  EXPECT_GT(models.sum_rc(0, 0), 0.0);
}

}  // namespace
