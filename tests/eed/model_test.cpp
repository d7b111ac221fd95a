#include "relmore/eed/model.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "relmore/circuit/builders.hpp"
#include "relmore/circuit/flat_tree.hpp"
#include "relmore/circuit/random_tree.hpp"

namespace relmore::eed {
namespace {

using circuit::RlcTree;
using circuit::SectionId;
using util::ErrorCode;
using util::FaultPolicy;

TEST(Model, SingleSectionMatchesPaperEq14And15) {
  // Paper eqs. 14-15: for a single RLC section, zeta = (R/2) sqrt(C/L),
  // omega_n = 1/sqrt(LC).
  RlcTree t;
  const double r = 30.0;
  const double l = 4e-9;
  const double c = 0.25e-12;
  t.add_section(circuit::kInput, r, l, c);
  const TreeModel m = analyze(t);
  EXPECT_NEAR(m.at(0).zeta, r / 2.0 * std::sqrt(c / l), 1e-12);
  EXPECT_NEAR(m.at(0).omega_n, 1.0 / std::sqrt(l * c), 1.0);
  EXPECT_NEAR(m.at(0).sum_rc, r * c, 1e-24);
  EXPECT_NEAR(m.at(0).sum_lc, l * c, 1e-33);
}

TEST(Model, SumRcMatchesBruteForceElmore) {
  // Brute force: SR_i = sum over caps k of C_k * (common path resistance).
  SectionId out = circuit::kInput;
  const RlcTree t = circuit::make_fig8_tree(&out);
  const TreeModel m = analyze(t);
  for (std::size_t i = 0; i < t.size(); ++i) {
    const auto id = static_cast<SectionId>(i);
    const auto path_i = t.path_from_input(id);
    double sr = 0.0;
    double sl = 0.0;
    for (std::size_t k = 0; k < t.size(); ++k) {
      const auto path_k = t.path_from_input(static_cast<SectionId>(k));
      double r_common = 0.0;
      double l_common = 0.0;
      for (std::size_t d = 0; d < std::min(path_i.size(), path_k.size()); ++d) {
        if (path_i[d] != path_k[d]) break;
        r_common += t.section(path_i[d]).v.resistance;
        l_common += t.section(path_i[d]).v.inductance;
      }
      sr += t.section(static_cast<SectionId>(k)).v.capacitance * r_common;
      sl += t.section(static_cast<SectionId>(k)).v.capacitance * l_common;
    }
    EXPECT_NEAR(m.at(id).sum_rc, sr, 1e-12 * sr) << "node " << i;
    EXPECT_NEAR(m.at(id).sum_lc, sl, 1e-12 * sl) << "node " << i;
  }
}

TEST(Model, LoadCapacitanceIsSubtreeSum) {
  const RlcTree t = circuit::make_fig5_tree({25.0, 2e-9, 0.2e-12}, nullptr);
  const TreeModel m = analyze(t);
  // Root sees all 7 capacitors.
  EXPECT_NEAR(m.load_capacitance[0], 7.0 * 0.2e-12, 1e-25);
  // A leaf sees only its own.
  EXPECT_NEAR(m.load_capacitance[6], 0.2e-12, 1e-25);
  // Level-2 section sees itself + 2 leaves.
  EXPECT_NEAR(m.load_capacitance[1], 3.0 * 0.2e-12, 1e-25);
}

TEST(Model, PureRcNodeDegeneratesToElmore) {
  RlcTree t;
  t.add_section(circuit::kInput, 100.0, 0.0, 1e-12);
  const TreeModel m = analyze(t);
  EXPECT_FALSE(std::isfinite(m.at(0).zeta));
  EXPECT_FALSE(std::isfinite(m.at(0).omega_n));
  EXPECT_NEAR(m.at(0).sum_rc, 100.0 * 1e-12, 1e-24);
  EXPECT_FALSE(m.at(0).underdamped());
}

TEST(Model, ZetaDecreasesWithInductance) {
  // Paper: "as the inductance increases, zeta decreases".
  RlcTree t1 = circuit::make_fig5_tree({25.0, 1e-9, 0.2e-12}, nullptr);
  RlcTree t2 = circuit::make_fig5_tree({25.0, 4e-9, 0.2e-12}, nullptr);
  EXPECT_GT(analyze(t1).at(6).zeta, analyze(t2).at(6).zeta);
}

TEST(Model, ZetaScalesAsInverseSqrtL) {
  RlcTree t = circuit::make_fig5_tree({25.0, 1e-9, 0.2e-12}, nullptr);
  const double z1 = analyze(t).at(6).zeta;
  circuit::scale_inductances(t, 4.0);
  const double z2 = analyze(t).at(6).zeta;
  EXPECT_NEAR(z2, z1 / 2.0, 1e-12);
}

TEST(Model, MultiplicationCountIsTwoPerSection) {
  // The Appendix claims 2N multiplications for the summations.
  for (int levels : {2, 3, 4, 5}) {
    const RlcTree t = circuit::make_balanced_tree(levels, 2, {10.0, 1e-9, 0.1e-12});
    const AnalyzeStats stats = analyze_counting(t).stats;
    EXPECT_EQ(stats.multiplications, 2u * t.size()) << "levels=" << levels;
    EXPECT_EQ(stats.nodes, t.size()) << "levels=" << levels;
  }
}

TEST(Model, RejectsEmptyTree) {
  EXPECT_THROW(analyze(RlcTree{}), std::invalid_argument);
}

TEST(Model, DownstreamNodesHaveLargerSums) {
  // SR and SL accumulate along any root-to-leaf path.
  const RlcTree t = circuit::make_line(5, {10.0, 1e-9, 0.1e-12});
  const TreeModel m = analyze(t);
  for (std::size_t i = 1; i < 5; ++i) {
    EXPECT_GT(m.nodes[i].sum_rc, m.nodes[i - 1].sum_rc);
    EXPECT_GT(m.nodes[i].sum_lc, m.nodes[i - 1].sum_lc);
  }
}

// Property sweep: on balanced trees every sink has the same (zeta, omega_n).
class BalancedSinkSweep : public ::testing::TestWithParam<int> {};

TEST_P(BalancedSinkSweep, SinksIdentical) {
  const RlcTree t = circuit::make_balanced_tree(4, GetParam(), {20.0, 1.5e-9, 0.15e-12});
  const TreeModel m = analyze(t);
  const auto sinks = t.leaves();
  const NodeModel& ref = m.at(sinks.front());
  for (const SectionId s : sinks) {
    EXPECT_NEAR(m.at(s).zeta, ref.zeta, 1e-12);
    EXPECT_NEAR(m.at(s).omega_n, ref.omega_n, ref.omega_n * 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Model, BalancedSinkSweep, ::testing::Values(2, 3, 4));

// --- analyze_nodes_checked: the tap-node entry, with eed::analyze as the
// reference ------------------------------------------------------------

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void expect_same_bits(const NodeModel& got, const NodeModel& want, const std::string& where) {
  EXPECT_EQ(bits(got.sum_rc), bits(want.sum_rc)) << where;
  EXPECT_EQ(bits(got.sum_lc), bits(want.sum_lc)) << where;
  EXPECT_EQ(bits(got.zeta), bits(want.zeta)) << where;
  EXPECT_EQ(bits(got.omega_n), bits(want.omega_n)) << where;
}

/// Every root and every leaf, plus a seeded scatter, in no sorted order
/// and with repeats.
std::vector<SectionId> requested_nodes(const circuit::FlatTree& flat, std::uint64_t seed) {
  std::vector<SectionId> nodes = flat.leaves();
  for (std::size_t i = 0; i < flat.size(); ++i) {
    if (flat.parent()[i] == circuit::kInput) nodes.push_back(static_cast<SectionId>(i));
  }
  circuit::Rng rng(seed);
  const int last = static_cast<int>(flat.size()) - 1;
  for (int k = 0; k < 8; ++k) nodes.push_back(rng.uniform_int(0, last));
  nodes.push_back(nodes.front());
  nodes.push_back(nodes.back());
  std::reverse(nodes.begin(), nodes.end());
  std::swap(nodes.front(), nodes[nodes.size() / 2]);
  return nodes;
}

/// The node entry's answer at `nodes`, over scratch that starts as
/// garbage: the entry must write every scratch value before it reads it.
struct NodeAnswer {
  util::Status status;
  std::size_t faulted = 0;
  std::vector<NodeModel> models;
};

NodeAnswer analyze_at(const circuit::FlatTree& flat, const std::vector<SectionId>& nodes,
                      FaultPolicy policy) {
  NodeAnswer answer;
  answer.models.resize(nodes.size());
  std::vector<double> scratch(node_scratch_size(flat.size()),
                              std::numeric_limits<double>::quiet_NaN());
  const util::Result<std::size_t> r =
      analyze_nodes_checked(flat, nodes, answer.models.data(), scratch, AnalyzeOptions{policy});
  if (r.is_ok()) {
    answer.faulted = r.value();
  } else {
    answer.status = r.status();
  }
  return answer;
}

/// Compares the node entry with analyze_checked on `tree` under `policy`:
/// the same error (code and node), or the same faulted-node count and the
/// same bits at every requested node.
void expect_same_answer(const RlcTree& tree, FaultPolicy policy, std::uint64_t seed,
                        const std::string& where) {
  const circuit::FlatTree flat(tree);
  const std::vector<SectionId> nodes = requested_nodes(flat, seed);
  const util::Result<TreeModel> full = analyze_checked(flat, AnalyzeOptions{policy});
  const NodeAnswer got = analyze_at(flat, nodes, policy);
  if (!full.is_ok()) {
    EXPECT_EQ(got.status.code(), full.status().code()) << where;
    EXPECT_EQ(got.status.node(), full.status().node()) << where;
    return;
  }
  ASSERT_TRUE(got.status.is_ok()) << where << ": " << got.status.to_string();
  EXPECT_EQ(got.faulted, full.value().fault_count) << where;
  for (std::size_t k = 0; k < nodes.size(); ++k) {
    expect_same_bits(got.models[k], full.value().at(nodes[k]),
                     where + " node " + std::to_string(nodes[k]));
  }
}

TEST(AnalyzeNodes, MatchesTheFullAnalysisBitForBit) {
  // RC, RLC and mixed trees of 1 to 4095 sections, with the RLC
  // inductances scaled across six decades so the damping at the requested
  // nodes sweeps through zeta = 1.
  std::size_t underdamped = 0;
  std::size_t overdamped = 0;
  std::uint64_t seed = 0;
  for (const int sections : {1, 2, 3, 17, 200, 1023, 4095}) {
    for (const char* kind : {"RC", "RLC", "mixed"}) {
      for (const double l_scale : {1e-3, 1.0, 1e3}) {
        if (std::string(kind) == "RC" && l_scale != 1.0) continue;
        ++seed;
        circuit::RandomTreeSpec spec;
        spec.min_sections = sections;
        spec.max_sections = sections;
        if (std::string(kind) == "RC") {
          spec.inductance_lo = 0.0;
          spec.inductance_hi = 0.0;
        } else {
          spec.inductance_lo *= l_scale;
          spec.inductance_hi *= l_scale;
        }
        RlcTree tree = circuit::make_random_tree(spec, seed);
        ASSERT_EQ(tree.size(), static_cast<std::size_t>(sections));
        if (std::string(kind) == "mixed") {
          for (std::size_t i = 0; i < tree.size(); i += 2) {
            tree.values(static_cast<SectionId>(i)).inductance = 0.0;
          }
        }
        const std::string where = std::to_string(sections) + "-section " + kind + " x" +
                                  std::to_string(l_scale) + " seed " + std::to_string(seed);
        expect_same_answer(tree, FaultPolicy::kThrow, seed, where);

        const circuit::FlatTree flat(tree);
        const TreeModel full = analyze(flat);
        for (const SectionId node : requested_nodes(flat, seed)) {
          const double zeta = full.at(node).zeta;
          if (zeta < 1.0) ++underdamped;
          if (zeta > 1.0 && std::isfinite(zeta)) ++overdamped;
        }
      }
    }
  }
  EXPECT_GT(underdamped, 0u);
  EXPECT_GT(overdamped, 0u);
}

TEST(AnalyzeNodes, DegenerateTreesGetTheFullAnalysisVerdict) {
  // The three degenerate sections of AnalyzeGuards.*: a NaN C, a negative
  // L and an overflowing R*C, planted mid-tree. kThrow must name the same
  // node with the same code; the flag policies must count the same
  // faulted nodes and return the same poisoned or clamped bits.
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  std::uint64_t seed = 100;
  for (const int sections : {1, 7, 255}) {
    ++seed;
    circuit::RandomTreeSpec spec;
    spec.min_sections = sections;
    spec.max_sections = sections;
    const RlcTree healthy = circuit::make_random_tree(spec, seed);
    const auto mid = static_cast<SectionId>(healthy.size() / 2);
    std::vector<std::pair<const char*, RlcTree>> cases(3, {"NaN C", healthy});
    cases[0].second.values(mid).capacitance = kNaN;
    cases[1].first = "negative L";
    cases[1].second.values(mid).inductance = -1e-6;
    cases[2].first = "overflow";
    cases[2].second.values(mid) = {1e308, 0.0, 1e308};
    for (const auto& [label, tree] : cases) {
      const util::Result<TreeModel> thrown = analyze_checked(tree);
      ASSERT_FALSE(thrown.is_ok()) << label;  // the fault must register
      for (const FaultPolicy policy :
           {FaultPolicy::kThrow, FaultPolicy::kClampAndFlag, FaultPolicy::kSkipAndFlag}) {
        expect_same_answer(tree, policy, seed,
                           std::string(label) + " in " + std::to_string(sections) +
                               " sections, policy " +
                               std::to_string(static_cast<int>(policy)));
      }
    }
  }
}

TEST(AnalyzeNodes, RejectsEmptyTreesNodesOutsideTheTreeAndShortScratch) {
  const circuit::FlatTree empty;
  NodeModel out;
  std::vector<double> scratch(16);
  EXPECT_EQ(analyze_nodes_checked(empty, {}, &out, scratch).status().code(),
            ErrorCode::kEmptyTree);

  const circuit::FlatTree flat(circuit::make_line(4, {10.0, 1e-9, 0.1e-12}));
  for (const SectionId outside : {SectionId{4}, SectionId{999}, circuit::kInput}) {
    const std::vector<SectionId> nodes = {0, outside};
    std::vector<NodeModel> models(nodes.size());
    const util::Result<std::size_t> r =
        analyze_nodes_checked(flat, nodes, models.data(), scratch);
    ASSERT_FALSE(r.is_ok()) << outside;
    EXPECT_EQ(r.status().code(), ErrorCode::kInvalidArgument) << outside;
    EXPECT_EQ(r.status().node(), outside);
    EXPECT_NE(r.status().message().find(std::to_string(outside)), std::string::npos)
        << r.status().message();
  }

  const std::vector<SectionId> last = {3};
  std::vector<double> short_scratch(node_scratch_size(flat.size()) - 1);
  EXPECT_EQ(analyze_nodes_checked(flat, last, &out, short_scratch).status().code(),
            ErrorCode::kInvalidArgument);
  const util::Result<std::size_t> ok = analyze_nodes_checked(flat, last, &out, scratch);
  ASSERT_TRUE(ok.is_ok()) << ok.status().to_string();
  EXPECT_EQ(ok.value(), 0u);
  expect_same_bits(out, analyze(flat).at(3), "line tail");
}

}  // namespace
}  // namespace relmore::eed
