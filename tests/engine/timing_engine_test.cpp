#include <cmath>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "relmore/circuit/builders.hpp"
#include "relmore/eed/model.hpp"
#include "relmore/eed/second_order.hpp"
#include "relmore/engine/timing_engine.hpp"

namespace {

using namespace relmore;
using circuit::SectionId;
using circuit::SectionValues;

void expect_node_eq(const eed::NodeModel& a, const eed::NodeModel& b) {
  EXPECT_EQ(a.sum_rc, b.sum_rc);
  EXPECT_EQ(a.sum_lc, b.sum_lc);
  EXPECT_EQ(a.zeta, b.zeta);
  EXPECT_EQ(a.omega_n, b.omega_n);
}

void expect_matches_fresh_analysis(const engine::TimingEngine& eng) {
  const eed::TreeModel fresh = eed::analyze(eng.tree());
  ASSERT_EQ(fresh.nodes.size(), eng.size());
  for (std::size_t i = 0; i < fresh.nodes.size(); ++i) {
    expect_node_eq(eng.node(static_cast<SectionId>(i)), fresh.nodes[i]);
  }
}

TEST(TimingEngine, FreshEngineMatchesAnalyzeBitwise) {
  const engine::TimingEngine eng(circuit::make_fig8_tree());
  expect_matches_fresh_analysis(eng);
}

TEST(TimingEngine, EmptyTreeThrows) {
  EXPECT_THROW(engine::TimingEngine{circuit::RlcTree{}}, std::invalid_argument);
}

TEST(TimingEngine, SingleEditMatchesFreshAnalyze) {
  SectionId out = circuit::kInput;
  engine::TimingEngine eng(circuit::make_fig8_tree(&out));
  SectionValues v = eng.tree().section(out).v;
  v.capacitance *= 3.0;
  v.resistance *= 0.5;
  eng.set_section_values(out, v);
  expect_matches_fresh_analysis(eng);
  const eed::TreeModel fresh = eed::analyze(eng.tree());
  EXPECT_EQ(eng.delay_50(out), eed::delay_50(fresh.at(out)));
}

TEST(TimingEngine, PointQueryMatchesWholeTreeModel) {
  engine::TimingEngine eng(circuit::make_balanced_tree(5, 2, {25.0, 2e-9, 0.2e-12}));
  const SectionId sink = eng.tree().leaves().back();
  SectionValues v = eng.tree().section(0).v;
  v.inductance *= 2.0;
  eng.set_section_values(0, v);
  const eed::NodeModel via_query = eng.node(sink);
  const eed::NodeModel via_analyze = eed::analyze(eng.tree()).at(sink);
  expect_node_eq(via_query, via_analyze);
}

TEST(TimingEngine, EditCostIsPathNotTree) {
  const int n = 64;
  engine::TimingEngine eng(circuit::make_line(n, {10.0, 1e-9, 0.1e-12}));
  eng.reset_counters();

  // A capacitance edit at depth d touches exactly the d-section root path.
  const SectionId mid = 9;  // depth 10 in a line
  SectionValues v = eng.tree().section(mid).v;
  v.capacitance *= 1.5;
  eng.set_section_values(mid, v);
  EXPECT_EQ(eng.counters().incremental_edits, 1u);
  EXPECT_EQ(eng.counters().edit_nodes_touched, 10u);
  EXPECT_EQ(eng.counters().full_recomputes, 0u);

  // An R/L-only edit leaves every subtree capacitance alone: O(1).
  v.capacitance = eng.tree().section(mid).v.capacitance;
  v.resistance *= 2.0;
  eng.set_section_values(mid, v);
  EXPECT_EQ(eng.counters().incremental_edits, 2u);
  EXPECT_EQ(eng.counters().edit_nodes_touched, 11u);
  expect_matches_fresh_analysis(eng);
}

TEST(TimingEngine, QueryWalksOnlyStalePrefixes) {
  const int n = 32;
  engine::TimingEngine eng(circuit::make_line(n, {10.0, 1e-9, 0.1e-12}));
  const SectionId sink = static_cast<SectionId>(n - 1);
  SectionValues v = eng.tree().section(sink).v;
  v.capacitance *= 2.0;
  eng.set_section_values(sink, v);
  eng.reset_counters();

  (void)eng.node(sink);  // refreshes the whole root path
  EXPECT_EQ(eng.counters().query_nodes_walked, static_cast<std::uint64_t>(n));
  (void)eng.node(sink);  // now fresh: no walking
  EXPECT_EQ(eng.counters().query_nodes_walked, static_cast<std::uint64_t>(n));
  EXPECT_EQ(eng.counters().queries, 2u);
}

TEST(TimingEngine, OutOfRangeIdsThrow) {
  engine::TimingEngine eng(circuit::make_line(3, {10.0, 1e-9, 0.1e-12}));
  EXPECT_THROW((void)eng.node(-1), std::out_of_range);
  EXPECT_THROW((void)eng.node(3), std::out_of_range);
  EXPECT_THROW(eng.set_section_values(7, SectionValues{}), std::out_of_range);
}

TEST(TimingEngine, NegativeValuesThrow) {
  engine::TimingEngine eng(circuit::make_line(3, {10.0, 1e-9, 0.1e-12}));
  EXPECT_THROW(eng.set_section_values(0, SectionValues{-1.0, 0.0, 0.0}),
               std::invalid_argument);
  EXPECT_THROW(eng.set_section_values(0, SectionValues{1.0, 0.0, -1e-15}),
               std::invalid_argument);
}

TEST(TimingEngine, RcTreeQueriesStayPureRc) {
  engine::TimingEngine eng(circuit::make_line(5, {10.0, 0.0, 0.1e-12}));
  const eed::NodeModel nm = eng.node(4);
  EXPECT_TRUE(std::isinf(nm.zeta));
  EXPECT_TRUE(std::isinf(nm.omega_n));
  EXPECT_GT(nm.sum_rc, 0.0);
  EXPECT_EQ(nm.sum_lc, 0.0);
}

}  // namespace
