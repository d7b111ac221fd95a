#include "relmore/opt/wire_sizing.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

#include "relmore/circuit/flat_tree.hpp"
#include "relmore/eed/eed.hpp"
#include "relmore/engine/batched.hpp"
#include "relmore/engine/timing_engine.hpp"
#include "relmore/util/minimize.hpp"

namespace relmore::opt {

using circuit::RlcTree;
using circuit::SectionId;

namespace {

void check_problem(const WireSizingProblem& p) {
  if (p.segments < 1) throw std::invalid_argument("wire sizing: segments must be >= 1");
  if (p.width_min <= 0.0 || p.width_max < p.width_min) {
    throw std::invalid_argument("wire sizing: bad width bounds");
  }
}

circuit::SectionValues segment_values(const WireSizingProblem& p, double width) {
  if (width <= 0.0) throw std::invalid_argument("wire sizing: non-positive width");
  const double r = p.unit_resistance / width;
  const double l =
      p.unit_inductance * std::max(0.1, 1.0 - p.inductance_width_slope * std::log(width));
  const double c = p.unit_area_cap * width + p.unit_fringe_cap;
  return {r, l, c};
}

double delay_from_node(const eed::NodeModel& nm, DelayModel model) {
  switch (model) {
    case DelayModel::kWyattRc:
      return eed::wyatt_delay_50(nm.sum_rc);
    case DelayModel::kEquivalentElmore:
      return eed::delay_50(nm);
  }
  throw std::logic_error("wire sizing: unknown delay model");
}

}  // namespace

RlcTree build_sized_line(const WireSizingProblem& problem, const std::vector<double>& widths) {
  check_problem(problem);
  if (widths.size() != static_cast<std::size_t>(problem.segments)) {
    throw std::invalid_argument("build_sized_line: width count mismatch");
  }
  RlcTree tree;
  SectionId prev = tree.add_section(circuit::kInput,
                                    {problem.driver_resistance, 0.0, 0.0}, "driver");
  for (int i = 0; i < problem.segments; ++i) {
    const double w = widths[static_cast<std::size_t>(i)];
    prev = tree.add_section(prev, segment_values(problem, w), "seg" + std::to_string(i));
  }
  tree.add_section(prev, {1.0, 1e-14, problem.load_capacitance}, "load");
  return tree;
}

double sized_line_delay(const WireSizingProblem& problem, const std::vector<double>& widths,
                        DelayModel model) {
  const RlcTree tree = build_sized_line(problem, widths);
  const auto sink = static_cast<SectionId>(tree.size() - 1);
  const eed::TreeModel tm = eed::analyze(tree);
  return delay_from_node(tm.at(sink), model);
}

std::vector<double> sized_line_delays(const WireSizingProblem& problem,
                                      const std::vector<std::vector<double>>& candidates,
                                      DelayModel model, util::WorkerPool* pool) {
  check_problem(problem);
  if (candidates.empty()) return {};
  const auto n = static_cast<std::size_t>(problem.segments);
  for (const auto& w : candidates) {
    if (w.size() != n) throw std::invalid_argument("sized_line_delays: width count mismatch");
  }
  // Driver (id 0) and load (last id) are width-independent; only the
  // segment sections 1..n vary per candidate.
  engine::BatchedAnalyzer batch(circuit::FlatTree(build_sized_line(problem, candidates[0])));
  const auto sink = static_cast<SectionId>(batch.sections() - 1);
  batch.resize(candidates.size());
  for (std::size_t s = 1; s < candidates.size(); ++s) {
    for (std::size_t i = 0; i < n; ++i) {
      batch.set_section(s, static_cast<SectionId>(i) + 1,
                        segment_values(problem, candidates[s][i]));
    }
  }
  const engine::BatchedModels models = batch.analyze_nodes({sink}, pool);
  std::vector<double> delays(candidates.size());
  for (std::size_t s = 0; s < candidates.size(); ++s) {
    delays[s] = delay_from_node(models.node(s, sink), model);
  }
  return delays;
}

WireSizingResult optimize_wire_sizing(const WireSizingProblem& problem, DelayModel model) {
  check_problem(problem);
  const auto n = static_cast<std::size_t>(problem.segments);
  const std::vector<double> lo(n, problem.width_min);
  const std::vector<double> hi(n, problem.width_max);
  std::vector<double> x0(n, 1.0);
  for (double& w : x0) w = std::clamp(w, problem.width_min, problem.width_max);

  // Engine session over one tree for the whole search. Coordinate descent
  // probes one width at a time, so each objective evaluation edits only
  // the segments that moved since the previous probe — an O(path) delta
  // update instead of a per-probe tree rebuild and whole-line re-analysis.
  // Section ids: 0 = driver, 1..segments = wire, last = load (the sink).
  engine::TimingEngine eng(build_sized_line(problem, x0));
  const auto sink = static_cast<SectionId>(eng.size() - 1);
  std::vector<double> current = x0;
  const auto objective = [&](const std::vector<double>& widths) {
    for (std::size_t i = 0; i < n; ++i) {
      if (widths[i] != current[i]) {
        eng.set_section_values(static_cast<SectionId>(i) + 1,
                               segment_values(problem, widths[i]));
        current[i] = widths[i];
      }
    }
    return delay_from_node(eng.node(sink), model);
  };
  util::CoordinateDescentOptions opts;
  opts.max_sweeps = 40;
  opts.x_tol = 1e-4;
  const util::CoordinateDescentResult r =
      util::minimize_coordinate_descent(objective, std::move(x0), lo, hi, opts);

  WireSizingResult out;
  out.widths = r.x;
  out.delay = r.f;
  out.sweeps = r.sweeps;
  out.converged = r.converged;
  return out;
}

WireSizingResult optimize_wire_sizing_batched(const WireSizingProblem& problem, DelayModel model,
                                              const BatchedSizingOptions& opts) {
  check_problem(problem);
  if (opts.grid < 2 || opts.refinements < 1 || opts.max_sweeps < 1) {
    throw std::invalid_argument("optimize_wire_sizing_batched: bad options");
  }
  const auto n = static_cast<std::size_t>(problem.segments);
  const auto grid = static_cast<std::size_t>(opts.grid);
  std::vector<double> x(n, std::clamp(1.0, problem.width_min, problem.width_max));
  double f = sized_line_delays(problem, {x}, model)[0];

  WireSizingResult out;
  for (int sweep = 0; sweep < opts.max_sweeps; ++sweep) {
    const double f_before = f;
    for (std::size_t j = 0; j < n; ++j) {
      double lo = problem.width_min;
      double hi = problem.width_max;
      double best_w = x[j];
      std::vector<std::vector<double>> candidates(grid, x);
      for (int round = 0; round < opts.refinements && hi - lo > opts.x_tol; ++round) {
        const double step = (hi - lo) / static_cast<double>(grid - 1);
        for (std::size_t k = 0; k < grid; ++k) {
          candidates[k][j] = lo + step * static_cast<double>(k);
        }
        const std::vector<double> delays = sized_line_delays(problem, candidates, model);
        std::size_t k_best = 0;
        for (std::size_t k = 1; k < grid; ++k) {
          if (delays[k] < delays[k_best]) k_best = k;
        }
        const double w_best = candidates[k_best][j];
        if (delays[k_best] < f) {
          f = delays[k_best];
          best_w = w_best;
        }
        lo = std::max(problem.width_min, w_best - step);
        hi = std::min(problem.width_max, w_best + step);
      }
      x[j] = best_w;
    }
    out.sweeps = sweep + 1;
    if (f_before - f < opts.f_tol) {
      out.converged = true;
      break;
    }
  }
  out.widths = std::move(x);
  out.delay = f;
  return out;
}

}  // namespace relmore::opt
