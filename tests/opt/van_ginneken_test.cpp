#include "relmore/opt/van_ginneken.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "relmore/circuit/builders.hpp"
#include "relmore/circuit/segmentation.hpp"
#include "relmore/eed/eed.hpp"

namespace relmore::opt {
namespace {

using circuit::RlcTree;
using circuit::SectionId;

/// A long RC line where buffering is clearly profitable.
RlcTree long_line(int sections) {
  return circuit::make_line(sections, {150.0, 0.2e-9, 0.3e-12});
}

Driver repeater() { return unit_inverter().sized(32.0); }

TEST(VanGinneken, UnbufferedMatchesElmoreDelay) {
  // With a buffer too expensive to ever use, the DP must return the plain
  // Elmore source RAT: -(source R * total C + sum of section terms).
  const RlcTree t = long_line(4);
  Driver expensive = repeater();
  expensive.intrinsic_delay = 1.0;  // one second: never worth it
  const double rs = 50.0;
  const VanGinnekenResult r = van_ginneken(t, expensive, rs);
  EXPECT_EQ(r.buffer_count, 0);
  const auto model = eed::analyze(t);
  const double elmore_path = model.at(3).sum_rc + rs * t.total_capacitance();
  EXPECT_NEAR(-r.source_rat, elmore_path, 1e-15 + 1e-9 * elmore_path);
}

TEST(VanGinneken, BuffersImproveLongLine) {
  const RlcTree t = long_line(12);
  const double rs = 50.0;
  Driver expensive = repeater();
  expensive.intrinsic_delay = 1.0;
  const VanGinnekenResult without = van_ginneken(t, expensive, rs);
  const VanGinnekenResult with = van_ginneken(t, repeater(), rs);
  EXPECT_GT(with.buffer_count, 0);
  EXPECT_GT(with.source_rat, without.source_rat);
}

TEST(VanGinneken, CandidateCountStaysPolynomial) {
  // Pruning keeps the list linear-ish; without it the count explodes.
  const RlcTree t = circuit::make_balanced_tree(5, 2, {100.0, 0.1e-9, 0.1e-12});
  const VanGinnekenResult r = van_ginneken(t, repeater(), 50.0);
  EXPECT_LT(r.candidates_explored, 100u * t.size());
}

TEST(VanGinneken, RespectsSinkRequiredTimes) {
  // Giving one sink a large negative RAT (tight deadline) forces the DP to
  // a solution whose source RAT reflects it.
  const RlcTree t = circuit::make_balanced_tree(3, 2, {100.0, 0.1e-9, 0.1e-12});
  std::vector<double> rat(t.size(), 0.0);
  const VanGinnekenResult relaxed = van_ginneken(t, repeater(), 50.0, rat);
  rat[static_cast<std::size_t>(t.leaves().front())] = -1e-9;
  const VanGinnekenResult tight = van_ginneken(t, repeater(), 50.0, rat);
  EXPECT_LT(tight.source_rat, relaxed.source_rat);
  EXPECT_NEAR(tight.source_rat, relaxed.source_rat - 1e-9, 0.3e-9);
}

TEST(VanGinneken, ValidatesInputs) {
  EXPECT_THROW(van_ginneken(RlcTree{}, repeater(), 50.0), std::invalid_argument);
  const RlcTree t = long_line(3);
  EXPECT_THROW(van_ginneken(t, repeater(), 50.0, {0.0}), std::invalid_argument);
}

TEST(EvaluateBufferedTree, UnbufferedWorstSinkMatchesModel) {
  const RlcTree t = circuit::make_fig5_tree({25.0, 2e-9, 0.2e-12}, nullptr);
  const std::vector<bool> none(t.size(), false);
  const double rs = 30.0;
  const double d = evaluate_buffered_tree(t, none, repeater(), rs, DelayModel::kWyattRc);
  // Stage = whole tree with the source resistance as driver.
  RlcTree staged;
  const SectionId drv = staged.add_section(circuit::kInput, {rs, 0.0, 0.0});
  // Rebuild manually: same sections shifted by one.
  for (std::size_t i = 0; i < t.size(); ++i) {
    const auto& s = t.section(static_cast<SectionId>(i));
    staged.add_section(s.parent == circuit::kInput ? drv
                                                   : static_cast<SectionId>(s.parent + 1),
                       s.v);
  }
  const auto model = eed::analyze(staged);
  double worst = 0.0;
  for (SectionId leaf : staged.leaves()) {
    worst = std::max(worst, eed::wyatt_delay_50(model.at(leaf).sum_rc));
  }
  EXPECT_NEAR(d, worst, 1e-15 + 1e-9 * worst);
}

TEST(EvaluateBufferedTree, DpChoiceBeatsUnbufferedUnderRc) {
  const RlcTree t = long_line(12);
  const double rs = 50.0;
  const VanGinnekenResult r = van_ginneken(t, repeater(), rs);
  ASSERT_GT(r.buffer_count, 0);
  const std::vector<bool> none(t.size(), false);
  const double unbuf = evaluate_buffered_tree(t, none, repeater(), rs, DelayModel::kWyattRc);
  const double buf =
      evaluate_buffered_tree(t, r.buffered, repeater(), rs, DelayModel::kWyattRc);
  EXPECT_LT(buf, unbuf);
}

TEST(EvaluateBufferedTree, EedRescoringDiffersFromRc) {
  // On an inductive line the RLC-aware stage delays differ from the RC
  // ones — the gap this library quantifies.
  RlcTree t = circuit::make_line(8, {30.0, 2e-9, 0.2e-12});
  const double rs = 30.0;
  const VanGinnekenResult r = van_ginneken(t, repeater(), rs);
  const double rc = evaluate_buffered_tree(t, r.buffered, repeater(), rs,
                                           DelayModel::kWyattRc);
  const double eed = evaluate_buffered_tree(t, r.buffered, repeater(), rs,
                                            DelayModel::kEquivalentElmore);
  EXPECT_GT(std::abs(eed - rc), 0.02 * rc);
}

TEST(EvaluateBufferedTree, RejectsBufferAtLeaf) {
  const RlcTree t = long_line(3);
  std::vector<bool> bad(t.size(), false);
  bad[2] = true;  // leaf
  EXPECT_THROW((void)evaluate_buffered_tree(t, bad, repeater(), 50.0, DelayModel::kWyattRc),
               std::invalid_argument);
  EXPECT_THROW((void)evaluate_buffered_tree(t, {true}, repeater(), 50.0, DelayModel::kWyattRc),
               std::invalid_argument);
}

}  // namespace
}  // namespace relmore::opt
