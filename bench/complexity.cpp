/// \file complexity.cpp
/// Verifies the Appendix complexity claims with google-benchmark: the
/// whole-tree EED analysis is O(n), and it beats even one timestep of the
/// reference simulator by orders of magnitude — the property that made the
/// Elmore delay the industry workhorse. The other Appendix claim, exactly
/// 2 multiplications per section, is a constant of the kernel; the unit
/// tests assert it (Model.MultiplicationCountIsTwoPerSection).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <iostream>
#include <random>
#include <string>
#include <vector>

#include "relmore/relmore.hpp"

#include "json_out.hpp"

namespace {

using namespace relmore;

circuit::RlcTree tree_of(int levels) {
  return circuit::make_balanced_tree(levels, 2, {10.0, 1e-9, 0.1e-12});
}

void BM_EedAnalyze(benchmark::State& state) {
  const circuit::RlcTree tree = tree_of(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(eed::analyze(tree));
  }
  state.SetComplexityN(static_cast<benchmark::IterationCount>(tree.size()));
  state.counters["sections"] = static_cast<double>(tree.size());
}
BENCHMARK(BM_EedAnalyze)->DenseRange(4, 14, 2)->Complexity(benchmark::oN);

// The STA corpus phase's form of the same analysis: both passes over every
// node into reused scratch, eqs. 29–30 at one requested node (the deepest).
void BM_EedNodeModels(benchmark::State& state) {
  const circuit::FlatTree tree(tree_of(static_cast<int>(state.range(0))));
  const auto deepest = static_cast<circuit::SectionId>(
      std::max_element(tree.level().begin(), tree.level().end()) - tree.level().begin());
  const std::vector<circuit::SectionId> nodes = {deepest};
  std::vector<double> scratch(eed::node_scratch_size(tree.size()));
  eed::NodeModel out;
  for (auto _ : state) {
    benchmark::DoNotOptimize(eed::analyze_nodes_checked(tree, nodes, &out, scratch));
    benchmark::DoNotOptimize(out);
  }
  state.SetComplexityN(static_cast<benchmark::IterationCount>(tree.size()));
  state.counters["sections"] = static_cast<double>(tree.size());
}
BENCHMARK(BM_EedNodeModels)->DenseRange(4, 14, 2)->Complexity(benchmark::oN);

void BM_EngineSingleEdit(benchmark::State& state) {
  engine::TimingEngine eng(tree_of(static_cast<int>(state.range(0))));
  eng.reset_counters();
  const auto sink = eng.tree().leaves().front();
  circuit::SectionValues v = eng.tree().section(sink).v;
  for (auto _ : state) {
    v.capacitance *= 1.0000001;
    eng.set_section_values(sink, v);
    benchmark::DoNotOptimize(eng.delay_50(sink));
  }
  const engine::EngineCounters& c = eng.counters();
  state.counters["sections"] = static_cast<double>(eng.size());
  state.counters["edit_nodes_touched_per_edit"] =
      c.incremental_edits == 0
          ? 0.0
          : static_cast<double>(c.edit_nodes_touched) / static_cast<double>(c.incremental_edits);
  state.counters["full_recomputes"] = static_cast<double>(c.full_recomputes);
}
BENCHMARK(BM_EngineSingleEdit)->DenseRange(4, 14, 2);

void BM_EedClosedFormDelayAllSinks(benchmark::State& state) {
  const circuit::RlcTree tree = tree_of(static_cast<int>(state.range(0)));
  const auto sinks = tree.leaves();
  for (auto _ : state) {
    const eed::TreeModel model = eed::analyze(tree);
    double acc = 0.0;
    for (const auto s : sinks) acc += eed::delay_50(model.at(s));
    benchmark::DoNotOptimize(acc);
  }
  state.counters["sections"] = static_cast<double>(tree.size());
}
BENCHMARK(BM_EedClosedFormDelayAllSinks)->DenseRange(4, 12, 2);

void BM_TreeMomentsOrder4(benchmark::State& state) {
  const circuit::RlcTree tree = tree_of(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(moments::tree_moments(tree, 4));
  }
  state.SetComplexityN(static_cast<benchmark::IterationCount>(tree.size()));
}
BENCHMARK(BM_TreeMomentsOrder4)->DenseRange(4, 12, 2)->Complexity(benchmark::oN);

void BM_DelaySensitivityGradient(benchmark::State& state) {
  const circuit::RlcTree tree = tree_of(static_cast<int>(state.range(0)));
  const auto sink = tree.leaves().front();
  for (auto _ : state) {
    benchmark::DoNotOptimize(eed::delay_sensitivity(tree, sink));
  }
  state.SetComplexityN(static_cast<benchmark::IterationCount>(tree.size()));
  state.counters["sections"] = static_cast<double>(tree.size());
}
BENCHMARK(BM_DelaySensitivityGradient)->DenseRange(4, 12, 2)->Complexity(benchmark::oN);

void BM_MonteCarloThousandSamples(benchmark::State& state) {
  const circuit::RlcTree tree = tree_of(static_cast<int>(state.range(0)));
  const auto sink = tree.leaves().front();
  const analysis::VariationSpec spec;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        analysis::monte_carlo_delay(tree, sink, analysis::MonteCarloOptions{spec, 1000, 1, {}}));
  }
  state.counters["sections"] = static_cast<double>(tree.size());
}
BENCHMARK(BM_MonteCarloThousandSamples)->DenseRange(4, 8, 2);

void BM_SimulatorReference(benchmark::State& state) {
  const circuit::RlcTree tree = tree_of(static_cast<int>(state.range(0)));
  sim::TransientOptions opts;
  opts.t_stop = 2e-9;
  opts.dt = 1e-12;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::simulate_tree(tree, sim::StepSource{1.0}, opts));
  }
  state.counters["sections"] = static_cast<double>(tree.size());
}
BENCHMARK(BM_SimulatorReference)->DenseRange(4, 10, 2);

// The STA wire stage alone, per tap: eed::ramp_stage_checked over 256
// fixed seeded draws of one damping class — 0: RC (closed forms), 1:
// overdamped with zeta in [2, 60] (Newton), 2: underdamped with zeta in
// [0.1, 0.9] (bracket scan + Brent) — each at a rise of 0.1-10x its delay.
void BM_RampStage(benchmark::State& state) {
  struct Draw {
    eed::NodeModel node;
    double rise;
  };
  static constexpr const char* kClass[] = {"rc", "overdamped", "underdamped"};
  const auto cls = static_cast<std::size_t>(state.range(0));
  std::mt19937_64 rng(42 + cls);
  const auto log_uniform = [&rng](double lo, double hi) {
    return std::exp(std::uniform_real_distribution<double>(std::log(lo), std::log(hi))(rng));
  };
  std::vector<Draw> draws(256);
  for (Draw& d : draws) {
    const double sr = log_uniform(1e-13, 1e-10);
    const double zeta = cls == 0 ? 0.0 : cls == 1 ? log_uniform(2.0, 60.0) : log_uniform(0.1, 0.9);
    const double root = sr / (2.0 * zeta);
    d.node = eed::node_model(sr, cls == 0 ? 0.0 : root * root);
    d.rise = eed::delay_50(d.node) * log_uniform(0.1, 10.0);
  }
  std::size_t i = 0;
  for (auto _ : state) {
    const Draw& d = draws[i++ & 255];
    benchmark::DoNotOptimize(eed::ramp_stage_checked(d.node, d.rise));
  }
  state.SetLabel(kClass[cls]);
}
BENCHMARK(BM_RampStage)->DenseRange(0, 2, 1);

/// Console reporter that additionally collects per-run rows for the
/// `--json <path>` machine-readable output (see json_out.hpp). Aggregate
/// rows (BigO / RMS fits) and benchmarks without a `sections` counter are
/// skipped — the JSON records raw per-size timings only.
class JsonCollectingReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.run_type != Run::RT_Iteration) continue;
      const auto it = run.counters.find("sections");
      if (it == run.counters.end()) continue;
      const double sections = it->second.value;
      if (sections <= 0.0) continue;
      benchio::BenchRow row;
      row.bench = run.benchmark_name();
      row.n = static_cast<std::size_t>(sections);
      row.samples = 1;
      // GetAdjustedRealTime is in the run's time unit (ns by default here).
      row.ns_per_section = run.GetAdjustedRealTime() / sections;
      rows.push_back(row);
    }
    benchmark::ConsoleReporter::ReportRuns(runs);
  }

  std::vector<benchio::BenchRow> rows;
};

}  // namespace

int main(int argc, char** argv) {
  // Strip `--json <path>` before google-benchmark parses the remainder.
  const std::string json_path = relmore::benchio::json_path_from_args(argc, argv);
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::string(argv[i]) == "--json") {
      ++i;  // also skip the path operand
      continue;
    }
    args.push_back(argv[i]);
  }
  int filtered_argc = static_cast<int>(args.size());
  benchmark::Initialize(&filtered_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(filtered_argc, args.data())) return 1;
  JsonCollectingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  if (!json_path.empty() &&
      !relmore::benchio::write_bench_json(json_path, reporter.rows)) {
    std::cerr << "failed to write " << json_path << "\n";
    return 1;
  }
  return 0;
}
