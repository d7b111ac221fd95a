// BatchSimulator contract tests, in the engine::BatchedAnalyzer style:
// every lane of every lane-group must be bitwise-equal to a scalar
// FlatStepper run of that lane's (values, source), for every supported
// lane width and independent of the thread pool.

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

/// Heterogeneous runs over one topology: per-run value scaling, one RC run
/// (all inductances zero), one run with a zero-capacitance leaf (exercises
/// the g_node = 0 select lanes), and a rotating source mix.
std::vector<RunSpec> make_runs(const RlcTree& base, std::size_t count) {
  const std::size_t n = base.size();
  std::vector<RunSpec> runs(count);
  for (std::size_t s = 0; s < count; ++s) {
    RunSpec& run = runs[s];
    run.r.resize(n);
    run.l.resize(n);
    run.c.resize(n);
    const double f = 0.85 + 0.03 * static_cast<double>(s);
    for (std::size_t i = 0; i < n; ++i) {
      const auto& v = base.section(static_cast<SectionId>(i)).v;
      run.r[i] = v.resistance * f;
      run.l[i] = s == 3 ? 0.0 : v.inductance * (2.0 - f);
      run.c[i] = v.capacitance * f;
    }
    if (s == 5) run.c[n - 1] = 0.0;
    switch (s % 4) {
      case 0: run.src = StepSource{1.0}; break;
      case 1: run.src = RampSource{1.0, 0.4e-9}; break;
      case 2: run.src = ExpSource{1.0, 0.3e-9}; break;
      default: run.src = PwlSource{{{0.0, 0.0}, {0.5e-9, 0.8}, {1.5e-9, 1.0}}}; break;
    }
  }
  return runs;
}

/// Scalar reference: a FlatTree per run, simulated through simulate_tree.
std::vector<TransientResult> scalar_reference(const RlcTree& base,
                                              const std::vector<RunSpec>& runs,
                                              const TransientOptions& opts) {
  std::vector<TransientResult> out;
  out.reserve(runs.size());
  for (const RunSpec& run : runs) {
    RlcTree tree = base;
    for (std::size_t i = 0; i < tree.size(); ++i) {
      tree.values(static_cast<SectionId>(i)) = {run.r[i], run.l[i], run.c[i]};
    }
    out.push_back(simulate_tree(FlatTree(tree), run.src, opts));
  }
  return out;
}

TEST(BatchSimulator, LanesBitwiseEqualScalarAcrossWidthsAndThreads) {
  const RlcTree base = circuit::make_balanced_tree(3, 2, {40.0, 0.8e-9, 0.15e-12});
  const std::size_t n = base.size();
  const std::size_t kRuns = 13;  // not a multiple of any lane width: padding in play
  const std::vector<RunSpec> runs = make_runs(base, kRuns);

  TransientOptions opts;
  opts.t_stop = 1.5e-9;
  opts.dt = suggest_timestep(base, 0.05);
  const SectionId mid = static_cast<SectionId>(n / 2);
  const SectionId last = static_cast<SectionId>(n - 1);
  opts.probes = {SectionId{0}, mid, last};

  const std::vector<TransientResult> ref = scalar_reference(base, runs, opts);

  util::WorkerPool pool_one(1);
  util::WorkerPool pool_four(4);
  for (const std::size_t w : {std::size_t{1}, std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
    BatchSimulator bs(FlatTree(base), w);
    EXPECT_EQ(bs.lane_width(), w);
    bs.resize(kRuns);
    EXPECT_EQ(bs.lane_groups(), (kRuns + w - 1) / w);
    for (std::size_t s = 0; s < kRuns; ++s) {
      bs.set_run(s, runs[s].r.data(), runs[s].l.data(), runs[s].c.data());
      bs.set_source(s, runs[s].src);
    }
    for (util::WorkerPool* pool : {static_cast<util::WorkerPool*>(nullptr),
                                        &pool_one, &pool_four}) {
      const BatchTransientResult res = bs.simulate(opts, pool);
      ASSERT_EQ(res.runs(), kRuns);
      ASSERT_EQ(res.probe_ids(), opts.probes);
      ASSERT_EQ(res.time(), ref[0].time);
      for (std::size_t s = 0; s < kRuns; ++s) {
        for (std::size_t row = 0; row < opts.probes.size(); ++row) {
          const SectionId node = opts.probes[row];
          for (std::size_t k = 0; k < res.time().size(); ++k) {
            ASSERT_EQ(res.voltage(s, node, k), ref[s].node_voltage[row][k])
                << "w=" << w << " run=" << s << " node=" << node << " step=" << k
                << " pool=" << (pool != nullptr ? pool->thread_count() : 0u);
          }
        }
      }
    }
  }
}

TEST(BatchSimulator, FullRecordingAndWaveformMatchScalar) {
  const RlcTree base = circuit::make_line(7, {30.0, 1e-9, 0.2e-12});
  const std::size_t kRuns = 5;
  const std::vector<RunSpec> runs = make_runs(base, kRuns);
  TransientOptions opts;
  opts.t_stop = 1e-9;
  opts.dt = suggest_timestep(base, 0.05);  // empty probes: record everything
  const std::vector<TransientResult> ref = scalar_reference(base, runs, opts);

  BatchSimulator bs{FlatTree(base)};  // default lane width
  bs.resize(kRuns);
  for (std::size_t s = 0; s < kRuns; ++s) {
    bs.set_run(s, runs[s].r.data(), runs[s].l.data(), runs[s].c.data());
    bs.set_source(s, runs[s].src);
  }
  const BatchTransientResult res = bs.simulate(opts);
  ASSERT_EQ(res.probe_ids().size(), base.size());
  for (std::size_t s = 0; s < kRuns; ++s) {
    for (std::size_t i = 0; i < base.size(); ++i) {
      const Waveform wave = res.waveform(s, static_cast<SectionId>(i));
      const std::vector<double>& want = ref[s].node_voltage[i];
      ASSERT_EQ(wave.values().size(), want.size());
      for (std::size_t k = 0; k < want.size(); ++k) {
        ASSERT_EQ(wave.values()[k], want[k]) << "run=" << s << " node=" << i << " step=" << k;
      }
    }
  }
}

TEST(BatchSimulator, FirstCrossingsBitwiseMatchScalarStreaming) {
  const RlcTree base = circuit::make_balanced_tree(3, 2, {45.0, 1.2e-9, 0.2e-12});
  const std::size_t kRuns = 11;
  const std::vector<RunSpec> runs = make_runs(base, kRuns);
  TransientOptions opts;
  opts.t_stop = 2e-9;
  opts.dt = suggest_timestep(base, 0.05);
  const SectionId probe = static_cast<SectionId>(base.size() - 1);

  util::WorkerPool pool(3);
  for (const double threshold : {0.5, 0.95, 3.0, 0.0}) {
    std::vector<double> want(kRuns);
    for (std::size_t s = 0; s < kRuns; ++s) {
      RlcTree tree = base;
      for (std::size_t i = 0; i < tree.size(); ++i) {
        tree.values(static_cast<SectionId>(i)) = {runs[s].r[i], runs[s].l[i], runs[s].c[i]};
      }
      want[s] =
          simulate_first_crossings(FlatTree(tree), runs[s].src, opts, {probe}, threshold)
              .front();
    }
    for (const std::size_t w : {std::size_t{2}, std::size_t{8}}) {
      BatchSimulator bs(FlatTree(base), w);
      bs.resize(kRuns);
      for (std::size_t s = 0; s < kRuns; ++s) {
        bs.set_run(s, runs[s].r.data(), runs[s].l.data(), runs[s].c.data());
        bs.set_source(s, runs[s].src);
      }
      const std::vector<double> serial = bs.first_crossings(opts, probe, threshold);
      const std::vector<double> pooled = bs.first_crossings(opts, probe, threshold, &pool);
      ASSERT_EQ(serial.size(), kRuns);
      for (std::size_t s = 0; s < kRuns; ++s) {
        EXPECT_EQ(serial[s], want[s]) << "w=" << w << " run=" << s << " th=" << threshold;
        EXPECT_EQ(pooled[s], want[s]) << "w=" << w << " run=" << s << " th=" << threshold;
      }
    }
  }
}

TEST(BatchSimulator, RejectsBadArguments) {
  const RlcTree base = circuit::make_line(4, {20.0, 0.5e-9, 0.1e-12});
  EXPECT_THROW(BatchSimulator(FlatTree(base), 3), std::invalid_argument);
  EXPECT_THROW(BatchSimulator(FlatTree(RlcTree{})), std::invalid_argument);

  BatchSimulator bs(FlatTree(base), 4);
  TransientOptions opts;
  opts.t_stop = 1e-9;
  opts.dt = 1e-12;
  EXPECT_THROW((void)bs.simulate(opts), std::invalid_argument);  // no runs yet

  bs.resize(3);
  EXPECT_THROW(bs.set_source(3, StepSource{1.0}), std::out_of_range);
  std::vector<double> vals(base.size(), 1.0);
  EXPECT_THROW(bs.set_run(3, vals.data(), vals.data(), vals.data()), std::out_of_range);
  EXPECT_THROW(bs.set_run_section(0, static_cast<SectionId>(base.size()), {1.0, 0.0, 1e-15}),
               std::out_of_range);

  TransientOptions bad = opts;
  bad.probes = {static_cast<SectionId>(base.size())};
  EXPECT_THROW((void)bs.simulate(bad), std::out_of_range);
  EXPECT_THROW((void)bs.first_crossings(opts, static_cast<SectionId>(base.size()), 0.5),
               std::out_of_range);
  TransientOptions zero;
  EXPECT_THROW((void)bs.simulate(zero), std::invalid_argument);

  const BatchTransientResult res = bs.simulate(opts);
  EXPECT_THROW((void)res.voltage(3, SectionId{0}, 0), std::out_of_range);
  EXPECT_THROW((void)res.voltage(0, SectionId{0}, res.time().size()), std::out_of_range);
  EXPECT_THROW((void)res.voltage(0, static_cast<SectionId>(base.size()), 0),
               std::out_of_range);
}

TEST(BatchSimulator, SetRunSectionOverwritesOneSlot) {
  const RlcTree base = circuit::make_line(5, {25.0, 0.8e-9, 0.12e-12});
  TransientOptions opts;
  opts.t_stop = 1e-9;
  opts.dt = suggest_timestep(base, 0.05);
  opts.probes = {static_cast<SectionId>(base.size() - 1)};

  // Reference: run 1 with section 2 swapped to heavier values.
  RlcTree edited = base;
  edited.values(SectionId{2}) = {80.0, 2e-9, 0.4e-12};
  const TransientResult want = simulate_tree(FlatTree(edited), StepSource{1.0}, opts);

  BatchSimulator bs(FlatTree(base), 2);
  bs.resize(2);
  bs.set_run_section(1, SectionId{2}, {80.0, 2e-9, 0.4e-12});
  const BatchTransientResult res = bs.simulate(opts);
  for (std::size_t k = 0; k < res.time().size(); ++k) {
    ASSERT_EQ(res.voltage(1, opts.probes[0], k), want.node_voltage[0][k]);
  }
  // Run 0 keeps the nominal snapshot values.
  const TransientResult nominal = simulate_tree(FlatTree(base), StepSource{1.0}, opts);
  for (std::size_t k = 0; k < res.time().size(); ++k) {
    ASSERT_EQ(res.voltage(0, opts.probes[0], k), nominal.node_voltage[0][k]);
  }
}

}  // namespace
}  // namespace relmore::sim
