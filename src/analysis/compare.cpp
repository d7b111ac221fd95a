#include "relmore/analysis/compare.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "relmore/circuit/builders.hpp"
#include "relmore/eed/eed.hpp"
#include "relmore/sim/measure.hpp"
#include "relmore/sim/state_space.hpp"
#include "relmore/sim/tree_transient.hpp"

namespace relmore::analysis {

using circuit::RlcTree;
using circuit::SectionId;

namespace {

bool strictly_rlc(const RlcTree& tree) {
  for (const auto& s : tree.sections()) {
    if (s.v.inductance <= 0.0 || s.v.capacitance <= 0.0) return false;
  }
  return true;
}

}  // namespace

sim::Waveform reference_waveform(const RlcTree& tree, SectionId node, const sim::Source& source,
                                 double t_stop, std::size_t samples) {
  if (t_stop <= 0.0) throw std::invalid_argument("reference_waveform: t_stop must be positive");
  const std::vector<double> grid = sim::uniform_grid(t_stop, samples);
  if (strictly_rlc(tree) && tree.size() <= 96) {
    // Exact modal solution: no discretization error at all.
    const sim::ModalSolver solver(tree);
    return solver.response_waveform(node, source, grid);
  }
  // Large or degenerate trees: trapezoidal tree engine with a fine step.
  // Only the compared node is recorded — at 4000+ steps the full-tree
  // recording used to dominate this path's memory traffic.
  sim::TransientOptions opts;
  opts.t_stop = t_stop;
  opts.dt = std::min(sim::suggest_timestep(tree, 0.05), t_stop / 4000.0);
  opts.probes = {node};
  const sim::TransientResult res = sim::simulate_tree(tree, source, opts);
  const sim::Waveform full = res.waveform(node);
  std::vector<double> v(grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) v[i] = full.value_at(grid[i]);
  return sim::Waveform(grid, v);
}

double suggest_horizon(const eed::NodeModel& node, double safety) {
  double horizon;
  if (!std::isfinite(node.omega_n)) {
    horizon = std::log(100.0) * node.sum_rc;  // 1% settling of the RC pole
  } else if (node.zeta < 1.0) {
    const double zeta = std::max(node.zeta, 0.05);
    horizon = std::log(100.0) / (zeta * node.omega_n);
  } else {
    horizon = eed::scaled_crossing_exact(node.zeta, 0.99) / node.omega_n;
  }
  return safety * horizon;
}

namespace {

StepComparison compare_step_response_impl(const RlcTree& tree, SectionId node, double v_supply,
                                          std::size_t samples) {
  const eed::TreeModel model = eed::analyze(tree);
  const eed::NodeModel& nm = model.at(node);

  StepComparison out;
  out.zeta = nm.zeta;
  out.omega_n = nm.omega_n;

  const double t_stop = suggest_horizon(nm);
  const sim::Waveform ref =
      reference_waveform(tree, node, sim::StepSource{v_supply}, t_stop, samples);
  const sim::TimingMeasurement ref_m = sim::measure_rising(ref, v_supply);

  out.ref_delay_50 = ref_m.delay_50;
  out.ref_rise = ref_m.rise_10_90;
  out.ref_overshoot_pct = ref_m.overshoot_pct;

  out.eed_delay_50 = eed::delay_50(nm);
  out.eed_delay_exact = eed::delay_50_exact(nm);
  out.wyatt_delay_50 = eed::wyatt_delay_50(nm.sum_rc);
  out.elmore_delay_50 = eed::elmore_delay_50(nm.sum_rc);
  out.eed_rise = eed::rise_time(nm);
  out.eed_overshoot_pct = nm.underdamped() ? eed::overshoot_pct(nm, 1) : 0.0;

  const sim::Waveform eed_wave =
      sim::sample(ref.times(), [&](double t) { return eed::step_response(nm, t, v_supply); });
  out.waveform_max_err = ref.max_abs_difference(eed_wave) / v_supply;

  auto pct = [](double est, double ref_v) {
    return ref_v > 0.0 ? 100.0 * std::abs(est - ref_v) / ref_v : 0.0;
  };
  out.delay_err_pct = pct(out.eed_delay_50, out.ref_delay_50);
  out.rise_err_pct = pct(out.eed_rise, out.ref_rise);
  out.wyatt_err_pct = pct(out.wyatt_delay_50, out.ref_delay_50);
  return out;
}

}  // namespace

util::Result<StepComparison> compare_step_response_checked(const RlcTree& tree, SectionId node,
                                                           const CompareOptions& options) {
  if (tree.empty()) {
    return util::Status(util::ErrorCode::kEmptyTree, "compare_step_response: empty tree");
  }
  if (node < 0 || static_cast<std::size_t>(node) >= tree.size()) {
    return util::Status(util::ErrorCode::kInvalidArgument,
                        "compare_step_response: node id out of range",
                        static_cast<int>(node));
  }
  if (options.v_supply <= 0.0 || options.samples < 2) {
    return util::Status(util::ErrorCode::kInvalidArgument,
                        "compare_step_response: v_supply must be positive and samples >= 2");
  }
  try {
    return compare_step_response_impl(tree, node, options.v_supply, options.samples);
  } catch (const util::FaultError& e) {
    return e.status();
  } catch (const std::invalid_argument& e) {
    return util::Status(util::ErrorCode::kInvalidArgument, e.what());
  }
}

StepComparison compare_step_response(const RlcTree& tree, SectionId node,
                                     const CompareOptions& options) {
  return compare_step_response_checked(tree, node, options).value();
}

double scale_inductance_for_zeta(RlcTree& tree, SectionId node, double target_zeta) {
  if (target_zeta <= 0.0) {
    throw std::invalid_argument("scale_inductance_for_zeta: target must be positive");
  }
  const eed::TreeModel model = eed::analyze(tree);
  const double zeta = model.at(node).zeta;
  if (!std::isfinite(zeta)) {
    throw std::invalid_argument("scale_inductance_for_zeta: node has no inductance on path");
  }
  const double factor = (zeta / target_zeta) * (zeta / target_zeta);
  circuit::scale_inductances(tree, factor);
  return factor;
}

}  // namespace relmore::analysis
