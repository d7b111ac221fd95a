#include "relmore/eed/elmore.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "relmore/circuit/builders.hpp"
#include "relmore/eed/model.hpp"

namespace relmore::eed {
namespace {

/// The Elmore time constants the RC baselines read: NodeModel::sum_rc.
std::vector<double> time_constants(const circuit::RlcTree& t) {
  const TreeModel m = analyze(t);
  std::vector<double> tau;
  for (const NodeModel& n : m.nodes) tau.push_back(n.sum_rc);
  return tau;
}

TEST(Elmore, TimeConstantsMatchModelSums) {
  // The Rubinstein–Penfield form: tau_i is the sum, over the sections j on
  // the path to i, of R_j times all the capacitance at or below j.
  const circuit::RlcTree t = circuit::make_fig8_tree(nullptr);
  const auto tau = time_constants(t);
  ASSERT_EQ(tau.size(), t.size());
  std::vector<double> below(t.size(), 0.0);
  for (std::size_t k = 0; k < t.size(); ++k) {
    for (const circuit::SectionId j : t.path_from_input(static_cast<circuit::SectionId>(k))) {
      below[static_cast<std::size_t>(j)] += t.section(static_cast<circuit::SectionId>(k)).v.capacitance;
    }
  }
  for (std::size_t i = 0; i < tau.size(); ++i) {
    double expected = 0.0;
    for (const circuit::SectionId j : t.path_from_input(static_cast<circuit::SectionId>(i))) {
      expected += t.section(j).v.resistance * below[static_cast<std::size_t>(j)];
    }
    EXPECT_NEAR(tau[i], expected, 1e-12 * expected) << "node " << i;
  }
}

TEST(Elmore, RubinsteinPenfieldTwoSectionLine) {
  // Classic hand calculation: R1=R2=R, C1=C2=C.
  // tau(node1) = R(C1+C2) = 2RC; tau(node2) = R*2C + R*C = 3RC.
  circuit::RlcTree t = circuit::make_line(2, {100.0, 0.0, 1e-12});
  const auto tau = time_constants(t);
  EXPECT_NEAR(tau[0], 2.0 * 100.0 * 1e-12, 1e-24);
  EXPECT_NEAR(tau[1], 3.0 * 100.0 * 1e-12, 1e-24);
}

TEST(Elmore, IgnoresInductance) {
  // The RC baselines must be invariant under inductance scaling — that is
  // exactly the blind spot the paper fixes.
  circuit::RlcTree t = circuit::make_fig5_tree({25.0, 1e-9, 0.2e-12}, nullptr);
  const auto tau1 = time_constants(t);
  circuit::scale_inductances(t, 100.0);
  const auto tau2 = time_constants(t);
  for (std::size_t i = 0; i < tau1.size(); ++i) EXPECT_DOUBLE_EQ(tau1[i], tau2[i]);
}

TEST(Elmore, DelayFormulas) {
  const double tau = 2e-10;
  EXPECT_DOUBLE_EQ(elmore_delay_50(tau), tau);
  EXPECT_NEAR(wyatt_delay_50(tau), 0.693 * tau, 1e-3 * tau);
  EXPECT_NEAR(wyatt_rise_time(tau), 2.197 * tau, 1e-3 * tau);
}

TEST(Elmore, WyattStepResponse) {
  const double tau = 1e-9;
  EXPECT_DOUBLE_EQ(wyatt_step_response(tau, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(wyatt_step_response(tau, -1.0), 0.0);
  EXPECT_NEAR(wyatt_step_response(tau, tau, 2.0), 2.0 * (1.0 - std::exp(-1.0)), 1e-12);
  // 50% crossing at ln2 tau by construction.
  EXPECT_NEAR(wyatt_step_response(tau, wyatt_delay_50(tau)), 0.5, 1e-12);
}

}  // namespace
}  // namespace relmore::eed
