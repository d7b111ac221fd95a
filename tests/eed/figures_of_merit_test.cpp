#include "relmore/eed/figures_of_merit.hpp"

#include "relmore/eed/model.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "relmore/circuit/builders.hpp"
#include "relmore/circuit/segmentation.hpp"

namespace relmore::eed {
namespace {

/// The screen of a wire `wire.length_m` long, from its totals.
InductanceFiguresOfMerit assess_wire(const circuit::WireSpec& wire, double rise_seconds) {
  return assess_line(wire.r_per_m * wire.length_m, wire.l_per_m * wire.length_m,
                     wire.c_per_m * wire.length_m, rise_seconds);
}

TEST(FiguresOfMerit, FastEdgeLowResistanceMatters) {
  // 1 mm global wire, 10 ps edge: squarely in the inductance window
  // (time of flight 2*sqrt(LC) ~ 17 ps exceeds the edge).
  const auto fom = assess_wire(circuit::global_wire_spec(), 10e-12);
  EXPECT_LT(fom.edge_ratio, 1.0);
  EXPECT_LT(fom.damping_ratio, 1.0);
  EXPECT_TRUE(fom.inductance_matters);
}

TEST(FiguresOfMerit, SlowEdgeDoesNotMatter) {
  const auto fom = assess_wire(circuit::global_wire_spec(), 5e-9);
  EXPECT_GT(fom.edge_ratio, 1.0);
  EXPECT_FALSE(fom.inductance_matters);
}

TEST(FiguresOfMerit, ResistiveLocalWireDoesNotMatter) {
  // Thin local wire: damped regardless of edge rate.
  const auto fom = assess_wire(circuit::local_wire_spec(), 20e-12);
  EXPECT_GT(fom.damping_ratio, 1.0);
  EXPECT_FALSE(fom.inductance_matters);
}

TEST(FiguresOfMerit, DampingRatioIsSinglePiZeta) {
  // (R/2) sqrt(C/L) equals the single-section zeta of the lumped line.
  const double r = 30.0;
  const double l = 2e-9;
  const double c = 0.4e-12;
  const auto fom = assess_line(r, l, c, 10e-12);
  EXPECT_NEAR(fom.damping_ratio, r / 2.0 * std::sqrt(c / l), 1e-15);
}

TEST(FiguresOfMerit, RejectsBadInputs) {
  EXPECT_THROW((void)assess_line(1.0, 0.0, 1e-12, 1e-12), std::invalid_argument);
  EXPECT_THROW((void)assess_line(1.0, 1e-9, 0.0, 1e-12), std::invalid_argument);
  EXPECT_THROW((void)assess_line(-1.0, 1e-9, 1e-12, 1e-12), std::invalid_argument);
  EXPECT_THROW((void)assess_line(1.0, 1e-9, 1e-12, -1.0), std::invalid_argument);
  circuit::WireSpec zero = circuit::global_wire_spec();
  zero.length_m = 0.0;
  EXPECT_THROW((void)assess_wire(zero, 1e-12), std::invalid_argument);  // no L, no C
  EXPECT_THROW((void)assess_tree(circuit::RlcTree{}, 1e-12), std::invalid_argument);
}

TEST(FiguresOfMerit, TreeScreenUsesWorstSink) {
  const circuit::RlcTree t = circuit::make_fig5_tree({5.0, 2e-9, 0.2e-12}, nullptr);
  const auto fast = assess_tree(t, 5e-12);
  EXPECT_TRUE(fast.inductance_matters);
  const auto slow = assess_tree(t, 10e-9);
  EXPECT_FALSE(slow.inductance_matters);
}

TEST(FiguresOfMerit, RcTreeNeverMatters) {
  const circuit::RlcTree rc = circuit::make_balanced_tree(3, 2, {100.0, 0.0, 0.1e-12});
  const auto fom = assess_tree(rc, 1e-15);
  EXPECT_FALSE(fom.inductance_matters);
  EXPECT_TRUE(std::isinf(fom.damping_ratio));
}

TEST(FiguresOfMerit, ScreenAgreesWithDampingOfEedModel) {
  // When the screen says "matters", the EED model should indeed be
  // underdamped at the worst sink, and vice versa for heavy damping.
  circuit::RlcTree lively = circuit::make_fig5_tree({5.0, 4e-9, 0.2e-12}, nullptr);
  EXPECT_TRUE(assess_tree(lively, 1e-12).inductance_matters);
  const auto model = analyze(lively);
  EXPECT_TRUE(model.at(6).underdamped());

  circuit::RlcTree damped = circuit::make_fig5_tree({200.0, 0.1e-9, 0.2e-12}, nullptr);
  EXPECT_FALSE(assess_tree(damped, 1e-12).inductance_matters);
  EXPECT_FALSE(analyze(damped).at(6).underdamped());
}

}  // namespace
}  // namespace relmore::eed
