/// \file sim_throughput.cpp
/// Throughput of the flat transient-simulation kernels vs the legacy
/// AoS tree stepper — the reference-simulation shape (fixed-step run,
/// one probed sink) and the multi-run shape (S runs over one topology).
///
/// Fixed-step, one run per topology, so each win is attributable:
///   legacy AoS        — TreeStepper loop, full n x steps recording
///                       (per-step companion factorization, the pre-kernel
///                       cost of sim::simulate_tree)
///   flat full         — FlatStepper, factored companions, full recording
///   flat probe        — FlatStepper, probe-selective recording (1 sink)
///   flat crossings    — streaming 50% crossing, no waveform storage
///
/// Multi-run (S = 64 value samples, one probed sink):
///   serial FlatStepper — S independent flat probe-selective runs
///   batched W=4/8      — one BatchSimulator sweep (AoSoA lanes)
///   batched W=8 + pool — lane-groups fanned across the WorkerPool
///
/// The multi-run phase sweeps tree sizes from the stage-tree regime
/// (n = 63, the van Ginneken / Monte-Carlo workload where BatchSimulator
/// is actually deployed) up to n = 16383 because the batched win is a
/// cache story: W lanes multiply the per-step working set by W, so the
/// AoSoA sweep pays off while a lane-group stays cache-resident, and the
/// tile-blocked downward sweep (util::KernelTuner) is what keeps it
/// from collapsing once W x the scalar working set spills past L2. Step
/// counts scale inversely with n to keep each grid point's cost flat.
///
/// Throughput metric: section·steps (·runs) per second; the table reports
/// ns per unit and the speedup over each phase's baseline. The acceptance
/// gates are >= 3x for `flat probe` vs `legacy AoS` at n = 1023 and
/// >= 2x for the batched sweep vs `serial FlatStepper` at S = 64 on the
/// stage-sized tree.
/// `--json <path>` writes machine-readable rows (see json_out.hpp); the
/// checked-in baseline lives in BENCH_sim.json. `--quick` shrinks reps
/// and sizes for CI smoke runs.

#include <chrono>
#include <cmath>
#include <cstring>
#include <iostream>
#include <string>

#include "relmore/relmore.hpp"
#include "relmore/sim/tree_stepper.hpp"

#include "json_out.hpp"

namespace {

using namespace relmore;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Measured {
  double ns_per_unit = 0.0;
  double checksum = 0.0;
};

/// Repeats `body` (one full pass over `units` section·step·run units)
/// until `min_seconds` elapsed.
template <typename Body>
Measured time_pass(std::size_t units, double min_seconds, const Body& body) {
  Measured m;
  m.checksum += body();  // warm-up
  std::size_t reps = 0;
  const auto t0 = Clock::now();
  double elapsed = 0.0;
  do {
    m.checksum += body();
    ++reps;
    elapsed = seconds_since(t0);
  } while (elapsed < min_seconds);
  m.ns_per_unit = elapsed * 1e9 / static_cast<double>(reps * units);
  return m;
}

/// The pre-kernel sim::simulate_tree: TreeStepper (per-step companion
/// factorization) with unconditional full n x steps recording.
double legacy_simulate(const circuit::RlcTree& tree, const sim::Source& src,
                       const sim::TransientOptions& opts, circuit::SectionId sink) {
  const std::size_t n = tree.size();
  const auto steps = static_cast<std::size_t>(std::ceil(opts.t_stop / opts.dt));
  sim::TreeStepper stepper(tree);
  std::vector<double> time;
  std::vector<std::vector<double>> volts(n);
  time.reserve(steps + 1);
  time.push_back(0.0);
  for (auto& row : volts) {
    row.reserve(steps + 1);
    row.push_back(0.0);
  }
  for (std::size_t step = 1; step <= steps; ++step) {
    const double t_next = static_cast<double>(step) * opts.dt;
    const auto method = static_cast<int>(step) > opts.be_startup_steps
                            ? sim::TreeStepper::Method::kTrapezoidal
                            : sim::TreeStepper::Method::kBackwardEuler;
    stepper.step(opts.dt, sim::source_value(src, t_next), method);
    time.push_back(t_next);
    for (std::size_t k = 0; k < n; ++k) volts[k].push_back(stepper.voltages()[k]);
  }
  return volts[static_cast<std::size_t>(sink)].back();
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--quick") quick = true;
  }
  const std::string json_path = benchio::json_path_from_args(argc, argv);
  const double min_seconds = quick ? 0.02 : 0.2;
  const std::size_t steps = quick ? 400 : 2000;

  std::vector<benchio::BenchRow> rows;
  util::Table table({"config", "sections", "runs", "steps", "ns/(section*step*run)",
                     "speedup vs baseline"});
  double checksum = 0.0;

  const auto add_row = [&](const std::string& name, std::size_t n, std::size_t runs,
                           std::size_t steps_used, const Measured& m, double baseline_ns) {
    checksum += m.checksum;
    const double speedup = baseline_ns / m.ns_per_unit;
    table.add_row({name, std::to_string(n), std::to_string(runs), std::to_string(steps_used),
                   util::Table::fmt(m.ns_per_unit, 3), util::Table::fmt(speedup, 2)});
    rows.push_back({name, n, runs, m.ns_per_unit, speedup});
  };

  // --- Phase 1: fixed-step single-run kernels, n = 2^levels - 1. The
  // acceptance point is n = 1023 (levels = 10).
  for (const int levels : (quick ? std::vector<int>{8, 10} : std::vector<int>{8, 10, 12})) {
    const circuit::RlcTree tree =
        circuit::make_balanced_tree(levels, 2, {10.0, 1e-9, 0.1e-12});
    const circuit::FlatTree flat(tree);
    const std::size_t n = tree.size();
    const circuit::SectionId sink = flat.leaves().back();
    sim::TransientOptions opts;
    opts.dt = sim::suggest_timestep(tree, 0.05);
    opts.t_stop = static_cast<double>(steps) * opts.dt;
    const std::size_t units = n * steps;
    const sim::Source src = sim::StepSource{1.0};

    const Measured legacy = time_pass(
        units, min_seconds, [&] { return legacy_simulate(tree, src, opts, sink); });
    add_row("legacy AoS full record", n, 1, steps, legacy, legacy.ns_per_unit);

    const Measured flat_full = time_pass(units, min_seconds, [&] {
      const sim::TransientResult r = sim::simulate_tree(flat, src, opts);
      return r.node_voltage[static_cast<std::size_t>(sink)].back();
    });
    add_row("flat full record", n, 1, steps, flat_full, legacy.ns_per_unit);

    sim::TransientOptions probe_opts = opts;
    probe_opts.probes = {sink};
    const Measured flat_probe = time_pass(units, min_seconds, [&] {
      const sim::TransientResult r = sim::simulate_tree(flat, src, probe_opts);
      return r.node_voltage[0].back();
    });
    add_row("flat probe-selective", n, 1, steps, flat_probe, legacy.ns_per_unit);

    const Measured crossings = time_pass(units, min_seconds, [&] {
      return sim::simulate_first_crossings(flat, src, opts, {sink}, 0.5).front();
    });
    add_row("flat crossings-only", n, 1, steps, crossings, legacy.ns_per_unit);
  }

  // --- Phase 2: multi-run sweep, S value samples over one topology. The
  // acceptance point is the stage-sized tree (levels = 6, n = 63); the
  // larger trees — up to n = 16383, far beyond L2 — document how the
  // tiled sweep holds up across the cache-capacity crossover. Step count
  // scales as ~63/n so each grid point simulates a comparable number of
  // section·step·run units and the whole sweep stays tractable.
  for (const int levels : (quick ? std::vector<int>{6} : std::vector<int>{6, 8, 10, 12, 14})) {
    const std::size_t kRuns = 64;
    const circuit::RlcTree tree =
        circuit::make_balanced_tree(levels, 2, {10.0, 1e-9, 0.1e-12});
    const circuit::FlatTree flat(tree);
    const std::size_t n = tree.size();
    const std::size_t run_steps = std::max<std::size_t>(50, steps * 63 / n);
    const circuit::SectionId sink = flat.leaves().back();
    sim::TransientOptions opts;
    opts.dt = sim::suggest_timestep(tree, 0.05);
    opts.t_stop = static_cast<double>(run_steps) * opts.dt;
    opts.probes = {sink};
    const std::size_t units = n * run_steps * kRuns;

    // Per-run values: the nominal tree mildly perturbed, deterministic in
    // the run index (the Monte-Carlo / candidate-sweep workload).
    std::vector<std::vector<double>> rv(kRuns), lv(kRuns), cv(kRuns);
    std::vector<circuit::FlatTree> run_trees;
    run_trees.reserve(kRuns);
    circuit::RlcTree scratch = tree;
    for (std::size_t s = 0; s < kRuns; ++s) {
      rv[s].resize(n);
      lv[s].resize(n);
      cv[s].resize(n);
      const double f = 1.0 + 1e-3 * static_cast<double>(s % 97);
      for (std::size_t k = 0; k < n; ++k) {
        rv[s][k] = flat.resistance()[k] * f;
        lv[s][k] = flat.inductance()[k];
        cv[s][k] = flat.capacitance()[k] * f;
        scratch.values(static_cast<circuit::SectionId>(k)) = {rv[s][k], lv[s][k], cv[s][k]};
      }
      run_trees.emplace_back(scratch);
    }
    const sim::Source src = sim::StepSource{1.0};

    const Measured serial = time_pass(units, min_seconds, [&] {
      double acc = 0.0;
      for (std::size_t s = 0; s < kRuns; ++s) {
        acc += sim::simulate_tree(run_trees[s], src, opts).node_voltage[0].back();
      }
      return acc;
    });
    add_row("serial FlatStepper x" + std::to_string(kRuns), n, kRuns, run_steps, serial,
            serial.ns_per_unit);

    for (const std::size_t w : {std::size_t{0}, std::size_t{4}, std::size_t{8}}) {
      sim::BatchSimulator batch(flat, w);
      batch.resize(kRuns);
      const Measured m = time_pass(units, min_seconds, [&] {
        for (std::size_t s = 0; s < kRuns; ++s) {
          batch.set_run(s, rv[s].data(), lv[s].data(), cv[s].data());
        }
        const sim::BatchTransientResult r = batch.simulate(opts);
        double acc = 0.0;
        for (std::size_t s = 0; s < kRuns; ++s) {
          acc += r.voltage(s, sink, r.time().size() - 1);
        }
        return acc;
      });
      const std::string name = w == 0 ? "batched auto (W=" + std::to_string(batch.lane_width()) +
                                            ", tuner tile)"
                                      : "batched W=" + std::to_string(w);
      add_row(name, n, kRuns, run_steps, m, serial.ns_per_unit);
    }

    {
      sim::BatchSimulator batch(flat, 8);
      batch.resize(kRuns);
      util::WorkerPool pool;
      const Measured m = time_pass(units, min_seconds, [&] {
        for (std::size_t s = 0; s < kRuns; ++s) {
          batch.set_run(s, rv[s].data(), lv[s].data(), cv[s].data());
        }
        const sim::BatchTransientResult r = batch.simulate(opts, &pool);
        double acc = 0.0;
        for (std::size_t s = 0; s < kRuns; ++s) {
          acc += r.voltage(s, sink, r.time().size() - 1);
        }
        return acc;
      });
      add_row("batched W=8 + pool(" + std::to_string(pool.thread_count()) + ")", n, kRuns,
              run_steps, m, serial.ns_per_unit);
    }
  }

  table.print(std::cout,
              "Flat transient kernels vs the legacy tree stepper (fixed step)");
  std::cout << "\nCSV:\n";
  table.print_csv(std::cout);
  std::cout << "\nShape check: factored companions + no full-tree recording buy the\n"
               "single-run win (acceptance: >= 3x at n = 1023 for the probed run);\n"
               "the AoSoA lanes buy the multi-run win on top of the already-flat\n"
               "serial baseline (acceptance: >= 2x at S = 64, n = 63 — the\n"
               "stage-tree regime; the larger-n rows track the sweep across the\n"
               "cache-capacity crossover, held up by the tiled downward pass).\n"
               "(checksum " << (checksum == checksum ? "ok" : "NAN") << ")\n";

  if (!json_path.empty()) {
    if (!benchio::write_bench_json(json_path, rows)) {
      std::cerr << "failed to write " << json_path << "\n";
      return 1;
    }
    std::cout << "wrote " << rows.size() << " rows to " << json_path << "\n";
  }
  return 0;
}
