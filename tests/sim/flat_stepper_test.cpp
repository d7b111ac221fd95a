// FlatStepper equivalence and API tests. The headline property: the SoA
// stepper with hoisted per-(h, method) factorizations is *bitwise*
// identical to the AoS TreeStepper oracle on random trees — which makes
// the ISSUE's ≤1-ulp-per-step contract hold with zero ulps.

#include "relmore/sim/flat_stepper.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "relmore/circuit/builders.hpp"
#include "relmore/circuit/flat_tree.hpp"
#include "relmore/circuit/random_tree.hpp"
#include "relmore/sim/adaptive.hpp"
#include "relmore/sim/tree_stepper.hpp"
#include "relmore/sim/tree_transient.hpp"

namespace relmore::sim {
namespace {

using circuit::FlatTree;
using circuit::RlcTree;
using circuit::SectionId;

Source pick_source(circuit::Rng& rng) {
  switch (rng.uniform_int(0, 3)) {
    case 0: return StepSource{0.5 + rng.uniform()};
    case 1: return RampSource{1.0, 0.2e-9 + 0.8e-9 * rng.uniform()};
    case 2: return ExpSource{1.0, 0.1e-9 + 0.5e-9 * rng.uniform()};
    default:
      return PwlSource{{{0.0, 0.0}, {0.3e-9, 0.7}, {0.9e-9, 0.4}, {2.0e-9, 1.0}}};
  }
}

TreeStepper::Method oracle_method(FlatStepper::Method m) {
  return m == FlatStepper::Method::kTrapezoidal ? TreeStepper::Method::kTrapezoidal
                                                : TreeStepper::Method::kBackwardEuler;
}

// ≥100 random trees (RLC and RC mix) x random (h, method schedule,
// source), with a mid-run step-size change to exercise the factor cache.
// Every component of the advanced state must match the oracle exactly.
TEST(FlatStepper, BitwiseMatchesTreeStepperOnRandomTrees) {
  circuit::RandomTreeSpec rlc;
  circuit::RandomTreeSpec rc = rlc;
  rc.inductance_lo = rc.inductance_hi = 0.0;

  int cases = 0;
  for (std::uint64_t seed = 0; seed < 110; ++seed) {
    const RlcTree tree = make_random_tree(seed % 3 == 0 ? rc : rlc, seed);
    const FlatTree flat(tree);
    circuit::Rng rng(seed * 7919 + 17);
    const double h1 = suggest_timestep(tree, 0.01 + 0.2 * rng.uniform());
    const double h2 = 0.5 * h1;
    const Source src = pick_source(rng);
    const int be_steps = rng.uniform_int(0, 3);

    TreeStepper oracle(tree);
    FlatStepper fast(flat);
    for (int k = 1; k <= 32; ++k) {
      const double h = k <= 16 ? h1 : h2;
      const double t = fast.time() + h;
      const double vin = source_value(src, t);
      const auto method = k > be_steps ? FlatStepper::Method::kTrapezoidal
                                       : FlatStepper::Method::kBackwardEuler;
      oracle.step(h, vin, oracle_method(method));
      fast.step(h, vin, method);
      ASSERT_EQ(oracle.time(), fast.time());
      for (std::size_t i = 0; i < tree.size(); ++i) {
        ASSERT_EQ(oracle.voltages()[i], fast.voltages()[i])
            << "v_node seed=" << seed << " step=" << k << " node=" << i;
        ASSERT_EQ(oracle.state().i_l[i], fast.state().i_l[i])
            << "i_l seed=" << seed << " step=" << k << " node=" << i;
        ASSERT_EQ(oracle.state().v_l[i], fast.state().v_l[i])
            << "v_l seed=" << seed << " step=" << k << " node=" << i;
        ASSERT_EQ(oracle.state().i_c[i], fast.state().i_c[i])
            << "i_c seed=" << seed << " step=" << k << " node=" << i;
      }
    }
    ++cases;
  }
  EXPECT_GE(cases, 100);
}

TEST(FlatStepper, StepFromMatchesStepAndLeavesSourceUntouched) {
  const RlcTree tree = circuit::make_line(9, {25.0, 1e-9, 0.2e-12});
  const FlatTree flat(tree);
  const double h = suggest_timestep(tree, 0.05);

  FlatStepper walker(flat);
  for (int k = 1; k <= 5; ++k) {
    walker.step(h, 1.0, FlatStepper::Method::kTrapezoidal);
  }
  const FlatStepper::State checkpoint = walker.state();

  // step_from(checkpoint) must equal set_state(checkpoint) + step().
  FlatStepper by_copy(flat);
  by_copy.set_state(checkpoint);
  by_copy.step(h, 1.0, FlatStepper::Method::kTrapezoidal);

  FlatStepper by_ref(flat);
  by_ref.step_from(checkpoint, h, 1.0, FlatStepper::Method::kTrapezoidal);

  EXPECT_EQ(by_copy.time(), by_ref.time());
  for (std::size_t i = 0; i < tree.size(); ++i) {
    EXPECT_EQ(by_copy.voltages()[i], by_ref.voltages()[i]);
    EXPECT_EQ(by_copy.state().i_c[i], by_ref.state().i_c[i]);
  }
  // The checkpoint is read-only to step_from.
  for (std::size_t i = 0; i < tree.size(); ++i) {
    EXPECT_EQ(checkpoint.v_node[i], walker.state().v_node[i]);
  }

  // Degenerate aliasing case: stepping from one's own state is step().
  FlatStepper self(flat);
  self.set_state(checkpoint);
  self.step_from(self.state(), h, 1.0, FlatStepper::Method::kTrapezoidal);
  for (std::size_t i = 0; i < tree.size(); ++i) {
    EXPECT_EQ(by_copy.voltages()[i], self.voltages()[i]);
  }
}

TEST(FlatStepper, SwapStateExchangesStates) {
  const RlcTree tree = circuit::make_line(4, {50.0, 0.0, 0.1e-12});
  const FlatTree flat(tree);
  FlatStepper a(flat);
  FlatStepper b(flat);
  a.step(1e-12, 1.0, FlatStepper::Method::kBackwardEuler);
  const FlatStepper::State was_a = a.state();
  const FlatStepper::State was_b = b.state();
  a.swap_state(b);
  EXPECT_EQ(a.time(), was_b.time);
  EXPECT_EQ(b.time(), was_a.time);
  for (std::size_t i = 0; i < tree.size(); ++i) {
    EXPECT_EQ(a.voltages()[i], was_b.v_node[i]);
    EXPECT_EQ(b.voltages()[i], was_a.v_node[i]);
  }
}

TEST(FlatStepper, RejectsBadInputs) {
  const RlcTree tree = circuit::make_line(3, {10.0, 1e-9, 0.1e-12});
  const FlatTree flat(tree);
  FlatStepper s(flat);
  EXPECT_THROW(s.step(0.0, 1.0, FlatStepper::Method::kTrapezoidal), std::invalid_argument);
  EXPECT_THROW(s.step(-1e-12, 1.0, FlatStepper::Method::kBackwardEuler),
               std::invalid_argument);
  FlatStepper::State bad;
  bad.i_l.assign(2, 0.0);
  bad.v_l.assign(3, 0.0);
  bad.i_c.assign(3, 0.0);
  bad.v_node.assign(3, 0.0);
  EXPECT_THROW(s.set_state(bad), std::invalid_argument);
  EXPECT_THROW(s.step_from(bad, 1e-12, 1.0, FlatStepper::Method::kTrapezoidal),
               std::invalid_argument);
  const RlcTree empty;
  EXPECT_THROW(FlatStepper{FlatTree(empty)}, std::invalid_argument);
}

// The per-(h, method) factorization is built exactly once per distinct
// pair while it stays cached — the point of optimization (1).
TEST(FlatStepper, FactorizationCacheIsReused) {
  const RlcTree tree = circuit::make_line(6, {20.0, 0.5e-9, 0.2e-12});
  const FlatTree flat(tree);
  const double h = suggest_timestep(tree, 0.02);
  FlatStepper s(flat);
  EXPECT_EQ(s.factorizations_built(), 0u);
  for (int k = 0; k < 10; ++k) s.step(h, 1.0, FlatStepper::Method::kBackwardEuler);
  EXPECT_EQ(s.factorizations_built(), 1u);
  for (int k = 0; k < 10; ++k) s.step(h, 1.0, FlatStepper::Method::kTrapezoidal);
  EXPECT_EQ(s.factorizations_built(), 2u);
  // Same pair again: still cached (capacity is two — exactly the fixed-step
  // engine's working set).
  s.step(h, 1.0, FlatStepper::Method::kBackwardEuler);
  EXPECT_EQ(s.factorizations_built(), 2u);
  // A third pair evicts one entry.
  s.step(0.5 * h, 1.0, FlatStepper::Method::kTrapezoidal);
  EXPECT_EQ(s.factorizations_built(), 3u);
}

// Probe-selective recording returns exactly the corresponding rows of the
// full recording, bit for bit, and maps waveform() lookups by id.
TEST(SimulateTree, ProbeRowsMatchFullRecordingBitwise) {
  const RlcTree tree = circuit::make_balanced_tree(3, 2, {40.0, 0.8e-9, 0.15e-12});
  const FlatTree flat(tree);
  TransientOptions opts;
  opts.t_stop = 2e-9;
  opts.dt = suggest_timestep(tree, 0.05);

  const TransientResult full = simulate_tree(flat, StepSource{1.0}, opts);
  ASSERT_TRUE(full.probe_ids.empty());
  ASSERT_EQ(full.node_voltage.size(), tree.size());

  const SectionId last = static_cast<SectionId>(tree.size() - 1);
  opts.probes = {last, SectionId{0}};
  const TransientResult probed = simulate_tree(flat, StepSource{1.0}, opts);
  ASSERT_EQ(probed.node_voltage.size(), 2u);
  ASSERT_EQ(probed.probe_ids, opts.probes);
  ASSERT_EQ(probed.time, full.time);
  for (std::size_t k = 0; k < full.time.size(); ++k) {
    EXPECT_EQ(probed.node_voltage[0][k], full.node_voltage[static_cast<std::size_t>(last)][k]);
    EXPECT_EQ(probed.node_voltage[1][k], full.node_voltage[0][k]);
  }
  EXPECT_TRUE(probed.records(last));
  EXPECT_FALSE(probed.records(SectionId{1}));
  EXPECT_NO_THROW(probed.waveform(last));
  EXPECT_THROW(probed.waveform(SectionId{1}), std::out_of_range);
  EXPECT_THROW([&] {
    TransientOptions bad = opts;
    bad.probes = {static_cast<SectionId>(tree.size())};
    (void)simulate_tree(flat, StepSource{1.0}, bad);
  }(), std::out_of_range);

  // The RlcTree overload is the same engine.
  const TransientResult via_rlc = simulate_tree(tree, StepSource{1.0}, opts);
  for (std::size_t k = 0; k < full.time.size(); ++k) {
    EXPECT_EQ(via_rlc.node_voltage[0][k], probed.node_voltage[0][k]);
  }
}

// The streaming crossing path replicates Waveform::first_rise_crossing
// bitwise: interior crossings, the no-crossing −1, and the t=0 fallback
// for thresholds at or below the initial value.
TEST(SimulateFirstCrossings, MatchesRecordedWaveformCrossings) {
  circuit::RandomTreeSpec spec;
  for (std::uint64_t seed = 0; seed < 25; ++seed) {
    const RlcTree tree = make_random_tree(spec, seed + 1000);
    const FlatTree flat(tree);
    TransientOptions opts;
    opts.t_stop = 3e-9;
    opts.dt = suggest_timestep(tree, 0.05);
    const SectionId leaf = flat.leaves().back();
    const SectionId root = SectionId{0};
    // Record only the two compared rows (ProbeRowsMatchFullRecordingBitwise
    // pins probe rows to full rows); simulate_first_crossings ignores
    // opts.probes.
    opts.probes = {leaf, root};

    const TransientResult rec = simulate_tree(flat, StepSource{1.0}, opts);
    for (const double threshold : {0.5, 0.9, 2.0, 0.0}) {
      const std::vector<double> cross =
          simulate_first_crossings(flat, StepSource{1.0}, opts, {leaf, root}, threshold);
      ASSERT_EQ(cross.size(), 2u);
      EXPECT_EQ(cross[0], rec.waveform(leaf).first_rise_crossing(threshold))
          << "seed=" << seed << " threshold=" << threshold;
      EXPECT_EQ(cross[1], rec.waveform(root).first_rise_crossing(threshold))
          << "seed=" << seed << " threshold=" << threshold;
    }
  }
}

// The restructured zero-copy adaptive driver: probe-selective rows equal
// the full run's rows on the identical accepted-step grid.
TEST(SimulateTreeAdaptive, ProbeSelectiveMatchesFullRun) {
  const RlcTree tree = circuit::make_line(12, {30.0, 1.2e-9, 0.25e-12});
  AdaptiveOptions opts;
  opts.t_stop = 4e-9;
  opts.tol = 1e-4;

  const TransientResult full = simulate_tree_adaptive(tree, StepSource{1.0}, opts);
  const SectionId sink = static_cast<SectionId>(tree.size() - 1);
  opts.probes = {sink};
  const TransientResult probed = simulate_tree_adaptive(tree, StepSource{1.0}, opts);

  ASSERT_EQ(probed.time, full.time);
  ASSERT_EQ(probed.node_voltage.size(), 1u);
  for (std::size_t k = 0; k < full.time.size(); ++k) {
    EXPECT_EQ(probed.node_voltage[0][k],
              full.node_voltage[static_cast<std::size_t>(sink)][k]);
  }
}

}  // namespace
}  // namespace relmore::sim
