/// \file sim_tiling_property_test.cpp
/// Property tests for the tile-blocked transient kernels: over (lane
/// width, tile size, thread count) draws — degenerate tiles included —
/// every BatchSimulator configuration must stay *bitwise* equal to the
/// scalar FlatStepper oracle. The tiled downward sweep and the
/// tile-sink probe drain may only change the order sections are
/// touched within a step, never any accumulation order, so ASSERT_EQ
/// on raw voltages is the contract.

#include "relmore/sim/batch_sim.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "relmore/circuit/builders.hpp"
#include "relmore/circuit/flat_tree.hpp"
#include "relmore/circuit/rlc_tree.hpp"
#include "relmore/sim/flat_stepper.hpp"
#include "relmore/sim/tree_transient.hpp"
#include "relmore/util/worker_pool.hpp"

namespace relmore::sim {
namespace {

using circuit::FlatTree;
using circuit::RlcTree;
using circuit::SectionId;

struct RunSpec {
  std::vector<double> r, l, c;
  Source src;
};

/// Heterogeneous runs: per-run scaling, one pure-RC run, one
/// zero-capacitance leaf, rotating source kinds.
std::vector<RunSpec> make_runs(const RlcTree& base, std::size_t count) {
  const std::size_t n = base.size();
  std::vector<RunSpec> runs(count);
  for (std::size_t s = 0; s < count; ++s) {
    RunSpec& run = runs[s];
    run.r.resize(n);
    run.l.resize(n);
    run.c.resize(n);
    const double f = 0.85 + 0.02 * static_cast<double>(s);
    for (std::size_t i = 0; i < n; ++i) {
      const auto& v = base.section(static_cast<SectionId>(i)).v;
      run.r[i] = v.resistance * f;
      run.l[i] = s == 3 ? 0.0 : v.inductance * (2.0 - f);
      run.c[i] = v.capacitance * f;
    }
    if (s == 5) run.c[n - 1] = 0.0;
    switch (s % 3) {
      case 0: run.src = StepSource{1.0}; break;
      case 1: run.src = RampSource{1.0, 0.4e-9}; break;
      default: run.src = ExpSource{1.0, 0.3e-9}; break;
    }
  }
  return runs;
}

TEST(SimTilingProperty, SimulateBitwiseEqualScalarAcrossTilesWidthsThreads) {
  const RlcTree base = circuit::make_balanced_tree(6, 2, {35.0, 0.9e-9, 0.15e-12});
  const std::size_t n = base.size();
  const std::size_t kRuns = 11;  // ragged tail at every width
  const std::vector<RunSpec> runs = make_runs(base, kRuns);

  TransientOptions opts;
  opts.t_stop = 1.2e-9;
  opts.dt = suggest_timestep(base, 0.05);
  opts.probes = {SectionId{0}, static_cast<SectionId>(n / 2), static_cast<SectionId>(n - 1)};

  // Scalar oracle per run.
  std::vector<TransientResult> ref;
  ref.reserve(kRuns);
  for (const RunSpec& run : runs) {
    RlcTree tree = base;
    for (std::size_t i = 0; i < n; ++i) {
      tree.values(static_cast<SectionId>(i)) = {run.r[i], run.l[i], run.c[i]};
    }
    ref.push_back(simulate_tree(FlatTree(tree), run.src, opts));
  }

  util::WorkerPool pool(3);
  // Tiles: single-row (maximal sink traffic), a ragged interior size,
  // >= n (one whole-tree tile), and 0 (auto via util::KernelTuner).
  const std::size_t tiles[] = {1, 9, n + 7, 0};
  for (const std::size_t w : {std::size_t{1}, std::size_t{4}, std::size_t{8}}) {
    BatchSimulator bs(FlatTree(base), w);
    bs.resize(kRuns);
    for (std::size_t s = 0; s < kRuns; ++s) {
      bs.set_run(s, runs[s].r.data(), runs[s].l.data(), runs[s].c.data());
      bs.set_source(s, runs[s].src);
    }
    for (const std::size_t tile : tiles) {
      bs.set_tile_rows(tile);
      EXPECT_EQ(bs.tile_rows(), tile);
      for (util::WorkerPool* p :
           {static_cast<util::WorkerPool*>(nullptr), &pool}) {
        const BatchTransientResult res = bs.simulate(opts, p);
        for (std::size_t s = 0; s < kRuns; ++s) {
          for (std::size_t row = 0; row < opts.probes.size(); ++row) {
            const SectionId node = opts.probes[row];
            for (std::size_t k = 0; k < res.time().size(); ++k) {
              ASSERT_EQ(res.voltage(s, node, k), ref[s].node_voltage[row][k])
                  << "w=" << w << " tile=" << tile << " run=" << s << " node=" << node
                  << " step=" << k;
            }
          }
        }
      }
    }
  }
}

TEST(SimTilingProperty, FullRecordingDrainsEverySectionUnderTinyTiles) {
  // Empty probe list records all n sections: the drain cursor must walk
  // the full id range through every tile boundary.
  const RlcTree base = circuit::make_balanced_tree(5, 2, {30.0, 1e-9, 0.2e-12});
  const std::size_t kRuns = 6;
  const std::vector<RunSpec> runs = make_runs(base, kRuns);
  TransientOptions opts;
  opts.t_stop = 0.8e-9;
  opts.dt = suggest_timestep(base, 0.05);

  std::vector<TransientResult> ref;
  ref.reserve(kRuns);
  for (const RunSpec& run : runs) {
    RlcTree tree = base;
    for (std::size_t i = 0; i < base.size(); ++i) {
      tree.values(static_cast<SectionId>(i)) = {run.r[i], run.l[i], run.c[i]};
    }
    ref.push_back(simulate_tree(FlatTree(tree), run.src, opts));
  }

  BatchSimulator bs(FlatTree(base), 4);
  bs.resize(kRuns);
  for (std::size_t s = 0; s < kRuns; ++s) {
    bs.set_run(s, runs[s].r.data(), runs[s].l.data(), runs[s].c.data());
    bs.set_source(s, runs[s].src);
  }
  for (const std::size_t tile : {std::size_t{1}, std::size_t{5}, std::size_t{0}}) {
    bs.set_tile_rows(tile);
    const BatchTransientResult res = bs.simulate(opts);
    for (std::size_t s = 0; s < kRuns; ++s) {
      for (std::size_t i = 0; i < base.size(); ++i) {
        const auto node = static_cast<SectionId>(i);
        for (std::size_t k = 0; k < res.time().size(); ++k) {
          ASSERT_EQ(res.voltage(s, node, k), ref[s].node_voltage[i][k])
              << "tile=" << tile << " run=" << s << " node=" << i << " step=" << k;
        }
      }
    }
  }
}

TEST(SimTilingProperty, FirstCrossingsBitwiseEqualAcrossTiles) {
  const RlcTree base = circuit::make_balanced_tree(5, 2, {45.0, 1.1e-9, 0.18e-12});
  const std::size_t kRuns = 9;
  const std::vector<RunSpec> runs = make_runs(base, kRuns);
  TransientOptions opts;
  opts.t_stop = 2e-9;
  opts.dt = suggest_timestep(base, 0.05);
  const auto probe = static_cast<SectionId>(base.size() - 1);

  std::vector<double> want(kRuns);
  for (std::size_t s = 0; s < kRuns; ++s) {
    RlcTree tree = base;
    for (std::size_t i = 0; i < base.size(); ++i) {
      tree.values(static_cast<SectionId>(i)) = {runs[s].r[i], runs[s].l[i], runs[s].c[i]};
    }
    want[s] =
        simulate_first_crossings(FlatTree(tree), runs[s].src, opts, {probe}, 0.5).front();
  }

  util::WorkerPool pool(2);
  BatchSimulator bs(FlatTree(base), 8);
  bs.resize(kRuns);
  for (std::size_t s = 0; s < kRuns; ++s) {
    bs.set_run(s, runs[s].r.data(), runs[s].l.data(), runs[s].c.data());
    bs.set_source(s, runs[s].src);
  }
  for (const std::size_t tile : {std::size_t{1}, std::size_t{7}, std::size_t{1000}, std::size_t{0}}) {
    bs.set_tile_rows(tile);
    const std::vector<double> serial = bs.first_crossings(opts, probe, 0.5);
    const std::vector<double> pooled = bs.first_crossings(opts, probe, 0.5, &pool);
    for (std::size_t s = 0; s < kRuns; ++s) {
      EXPECT_EQ(serial[s], want[s]) << "tile=" << tile << " run=" << s;
      EXPECT_EQ(pooled[s], want[s]) << "tile=" << tile << " run=" << s;
    }
  }
}

}  // namespace
}  // namespace relmore::sim
