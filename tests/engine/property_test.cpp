/// \file property_test.cpp
/// Property test for the incremental engine: over 300 seeded random trees,
/// apply a random sequence of value edits with interleaved point queries
/// (answered while the rest of the engine is stale) and periodic sweeps of
/// every section, and check that each answer's (SR, SL, zeta, omega_n) has
/// the same bits as a fresh `eed::analyze` of the edited tree — the
/// bitwise equality `timing_engine.hpp` promises.

#include <bit>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "relmore/circuit/random_tree.hpp"
#include "relmore/eed/model.hpp"
#include "relmore/engine/timing_engine.hpp"

namespace {

using namespace relmore;
using circuit::SectionId;
using circuit::SectionValues;

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void expect_bitwise(const eed::NodeModel& got, const eed::NodeModel& want, std::uint64_t seed,
                    int op, SectionId id) {
  EXPECT_EQ(bits(got.sum_rc), bits(want.sum_rc))
      << "SR node " << id << " seed " << seed << " op " << op << ": " << got.sum_rc << " vs "
      << want.sum_rc;
  EXPECT_EQ(bits(got.sum_lc), bits(want.sum_lc))
      << "SL node " << id << " seed " << seed << " op " << op;
  EXPECT_EQ(bits(got.zeta), bits(want.zeta))
      << "zeta node " << id << " seed " << seed << " op " << op;
  EXPECT_EQ(bits(got.omega_n), bits(want.omega_n))
      << "omega_n node " << id << " seed " << seed << " op " << op;
}

/// Queries every section, in id order, against one fresh analysis.
void sweep_against_fresh(const engine::TimingEngine& eng, std::uint64_t seed, int op) {
  const eed::TreeModel fresh = eed::analyze(eng.tree());
  ASSERT_EQ(fresh.nodes.size(), eng.size());
  for (std::size_t i = 0; i < eng.size(); ++i) {
    const auto id = static_cast<SectionId>(i);
    expect_bitwise(eng.node(id), fresh.nodes[i], seed, op, id);
  }
}

SectionValues perturbed(const SectionValues& v, circuit::Rng& rng) {
  SectionValues out;
  out.resistance = v.resistance * rng.log_uniform(0.25, 4.0);
  out.inductance = v.inductance * rng.log_uniform(0.25, 4.0);
  out.capacitance = v.capacitance * rng.log_uniform(0.25, 4.0);
  return out;
}

TEST(EngineProperty, RandomEditSequencesMatchFreshAnalyzeBitwise) {
  const circuit::RandomTreeSpec tree_spec{};
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    engine::TimingEngine eng(circuit::make_random_tree(tree_spec, seed));
    circuit::Rng rng(seed * 0x9E3779B97F4A7C15ULL + 1);
    const int last = static_cast<int>(eng.size()) - 1;

    const int ops = 40;
    for (int op = 0; op < ops; ++op) {
      const auto id = static_cast<SectionId>(rng.uniform_int(0, last));
      if (rng.uniform_int(0, 9) <= 6) {
        // Value edit: an R/L-only edit keeps every Ctot, a C edit re-sums
        // the root path; both move some prefixes stale.
        SectionValues v = perturbed(eng.tree().section(id).v, rng);
        if (rng.uniform_int(0, 2) == 0) v.capacitance = eng.tree().section(id).v.capacitance;
        eng.set_section_values(id, v);
      } else {
        // Point query: must agree with a fresh analysis even when the rest
        // of the tree is stale.
        expect_bitwise(eng.node(id), eed::analyze(eng.tree()).at(id), seed, op, id);
      }
      if (op % 10 == 9) sweep_against_fresh(eng, seed, op);
    }
  }
}

}  // namespace
