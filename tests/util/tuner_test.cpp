/// \file tuner_test.cpp
/// KernelTuner unit tests: the RELMORE_TUNE grammar (exposed via
/// parse_tune so malformed forms are coverable without env games) and
/// the shape of auto-calibrated plans. The env-read paths themselves
/// live in dedicated single-process binaries (tune_env_test,
/// tune_reject_test) because the variable is read once per process.

#include "relmore/util/tuner.hpp"

#include <gtest/gtest.h>

#include <cstddef>

namespace relmore::util {
namespace {

TEST(KernelTunerParse, AcceptsWellFormedPlans) {
  const auto p1 = KernelTuner::parse_tune("4x2048");
  ASSERT_TRUE(p1.has_value());
  EXPECT_EQ(p1->lane_width, 4u);
  EXPECT_EQ(p1->tile_rows, 2048u);

  const auto p2 = KernelTuner::parse_tune("1x0");  // T=0: forced untiled
  ASSERT_TRUE(p2.has_value());
  EXPECT_EQ(p2->lane_width, 1u);
  EXPECT_EQ(p2->tile_rows, 0u);

  const auto p3 = KernelTuner::parse_tune("8x4194304");  // max tile
  ASSERT_TRUE(p3.has_value());
  EXPECT_EQ(p3->lane_width, 8u);
  EXPECT_EQ(p3->tile_rows, std::size_t{4194304});
}

TEST(KernelTunerParse, RejectsEveryMalformedShape) {
  for (const char* bad :
       {"", "x", "4", "4x", "x64", "3x64", "5x64", "0x64", "-4x64", "4x-1",
        "4x4194305", "4y64", "4x64x4", "4x64 ", "banana", "4xbanana",
        "99999999999999999999x64", "4x99999999999999999999", "2.5x64"}) {
    EXPECT_FALSE(KernelTuner::parse_tune(bad).has_value()) << "accepted \"" << bad << "\"";
  }
  EXPECT_FALSE(KernelTuner::parse_tune(nullptr).has_value());
}

TEST(KernelTuner, PlansMatchLaneCountAndTreeSize) {
  const KernelTuner& tuner = KernelTuner::instance();
  if (tuner.forced()) GTEST_SKIP() << "RELMORE_TUNE set in this environment";

  // Width never exceeds the known lane count; unknown (0) gets the
  // preferred width.
  EXPECT_EQ(tuner.analysis_plan(1000, 1).lane_width, 1u);
  EXPECT_EQ(tuner.analysis_plan(1000, 2).lane_width, 2u);
  EXPECT_EQ(tuner.analysis_plan(1000, 3).lane_width, 2u);
  EXPECT_EQ(tuner.analysis_plan(1000, 7).lane_width, 4u);
  EXPECT_EQ(tuner.analysis_plan(1000, 256).lane_width, 4u);
  EXPECT_EQ(tuner.analysis_plan(1000, 0).lane_width, 4u);
  EXPECT_EQ(tuner.sim_plan(1000, 2).lane_width, 2u);
  EXPECT_EQ(tuner.sim_plan(1000, 0).lane_width, 4u);

  // Cache geometry is probed (or falls back) to something sane.
  EXPECT_GE(tuner.l1_bytes(), std::size_t{16} * 1024);
  EXPECT_GE(tuner.l2_bytes(), std::size_t{256} * 1024);

  // Small trees fit: untiled. Far-beyond-L2 trees: a bounded tile, never
  // below the restart-overhead floor, never the whole tree.
  EXPECT_EQ(tuner.analysis_plan(64, 256).tile_rows, 0u);
  const std::size_t huge = std::size_t{1} << 22;
  const std::size_t tile = tuner.analysis_plan(huge, 256).tile_rows;
  EXPECT_GE(tile, 256u);
  EXPECT_LT(tile, huge);
  const std::size_t sim_tile = tuner.sim_plan(huge, 256).tile_rows;
  EXPECT_GE(sim_tile, 256u);
  EXPECT_LT(sim_tile, huge);
  // The sim step touches more state per section, so its tile is no
  // larger than the analysis tile at the same shape.
  EXPECT_LE(sim_tile, tile);
}

}  // namespace
}  // namespace relmore::util
