#include "relmore/moments/pole_residue.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "relmore/circuit/builders.hpp"
#include "relmore/moments/tree_moments.hpp"
#include "relmore/sim/state_space.hpp"
#include "relmore/sim/tree_transient.hpp"
#include "relmore/sim/waveform.hpp"

namespace relmore::moments {
namespace {

using circuit::RlcTree;
using circuit::SectionId;

TEST(TwoPole, SingleSectionPolesExact) {
  // For one RLC section the two-pole model is exact: poles match the
  // circuit's true poles.
  RlcTree t;
  const double r = 40.0;
  const double l = 2e-9;
  const double c = 0.5e-12;
  t.add_section(circuit::kInput, r, l, c);
  const auto m = first_two_moments(t, 0);
  const PoleResidueModel model = two_pole_model(m.m1, m.m2);
  const sim::ModalSolver exact(t);
  ASSERT_EQ(model.poles.size(), 2u);
  for (const auto& p : model.poles) {
    double best = 1e300;
    for (const auto& q : exact.poles()) best = std::min(best, std::abs(p - q));
    EXPECT_LT(best, 1e-3 * std::abs(p));
  }
}

TEST(TwoPole, DcGainIsUnity) {
  RlcTree t;
  t.add_section(circuit::kInput, 40.0, 2e-9, 0.5e-12);
  const auto m = first_two_moments(t, 0);
  const PoleResidueModel model = two_pole_model(m.m1, m.m2);
  EXPECT_NEAR(model.dc_gain(), 1.0, 1e-9);
}

TEST(TwoPole, StepResponseStartsAtZeroEndsAtSupply) {
  RlcTree t;
  t.add_section(circuit::kInput, 40.0, 2e-9, 0.5e-12);
  const auto m = first_two_moments(t, 0);
  const PoleResidueModel model = two_pole_model(m.m1, m.m2);
  EXPECT_NEAR(model.step_response(0.0, 1.8), 0.0, 1e-9);
  EXPECT_NEAR(model.step_response(1e-6, 1.8), 1.8, 1e-6);
  EXPECT_DOUBLE_EQ(model.step_response(-1.0, 1.8), 0.0);
}

TEST(TwoPole, DegeneratesToSinglePoleForRc) {
  // Pure RC single section: m2 = (RC)^2 exactly, so b2 = 0.
  RlcTree t;
  t.add_section(circuit::kInput, 100.0, 0.0, 1e-12);
  const auto m = first_two_moments(t, 0);
  const PoleResidueModel model = two_pole_model(m.m1, m.m2);
  ASSERT_EQ(model.poles.size(), 1u);
  EXPECT_NEAR(model.poles[0].real(), -1.0 / (100.0 * 1e-12), 1.0);
}

TEST(Awe, ReconstructsSingleSectionExactly) {
  RlcTree t;
  t.add_section(circuit::kInput, 40.0, 2e-9, 0.5e-12);
  const auto m = tree_moments(t, 3);
  std::vector<double> node_m;
  for (const auto& order : m) node_m.push_back(order[0]);
  const PoleResidueModel model = awe_model(node_m, 2);
  const sim::ModalSolver exact(t);
  ASSERT_EQ(model.poles.size(), 2u);
  for (const auto& p : model.poles) {
    double best = 1e300;
    for (const auto& q : exact.poles()) best = std::min(best, std::abs(p - q));
    EXPECT_LT(best, 1e-6 * std::abs(p));
  }
  EXPECT_NEAR(model.dc_gain(), 1.0, 1e-9);
}

TEST(Awe, HigherOrderTracksSimulatorOnFig5) {
  const RlcTree t = circuit::make_fig5_tree({25.0, 2e-9, 0.2e-12}, nullptr);
  const auto node7 = static_cast<SectionId>(6);
  const auto m = tree_moments(t, 7);
  std::vector<double> node_m;
  for (const auto& order : m) node_m.push_back(order[static_cast<std::size_t>(node7)]);
  const PoleResidueModel model = awe_model(node_m, 4);
  if (!model.stable()) GTEST_SKIP() << "AWE q=4 unstable on this tree (known AWE artifact)";
  sim::TransientOptions opts;
  opts.t_stop = 5e-9;
  opts.dt = 2.5e-13;
  const auto res = sim::simulate_tree(t, sim::StepSource{1.0}, opts);
  const auto grid = sim::uniform_grid(opts.t_stop, 301);
  const sim::Waveform awe_w = sim::sample(grid, [&](double t) { return model.step_response(t); });
  EXPECT_LT(awe_w.max_abs_difference(res.waveform(node7)), 0.08);
}

TEST(Awe, RejectsInsufficientMoments) {
  EXPECT_THROW(awe_model({1.0, -1.0}, 2), std::invalid_argument);
  EXPECT_THROW(awe_model({1.0}, 0), std::invalid_argument);
}

TEST(PoleResidue, StabilityPredicate) {
  PoleResidueModel stable;
  stable.poles = {{-1.0, 2.0}, {-1.0, -2.0}};
  stable.residues = {{1.0, 0.0}, {1.0, 0.0}};
  EXPECT_TRUE(stable.stable());
  PoleResidueModel unstable;
  unstable.poles = {{0.5, 0.0}};
  unstable.residues = {{1.0, 0.0}};
  EXPECT_FALSE(unstable.stable());
  EXPECT_FALSE(PoleResidueModel{}.stable());
}

}  // namespace
}  // namespace relmore::moments
