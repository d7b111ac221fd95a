/// \file fig16_large_tree.cpp
/// Reproduces paper Fig. 16: on a large RLC tree the second-order model
/// captures the macro features (delay, rise, primary overshoot) while the
/// true response carries higher-frequency second-order oscillations the
/// 2-pole model cannot represent. We quantify both: timing errors stay
/// small, the waveform shows extra zero crossings of (sim - model).

#include <cmath>
#include <iostream>

#include "relmore/relmore.hpp"

int main() {
  using namespace relmore;

  // 8-level binary balanced tree: 255 sections, 128 sinks.
  circuit::RlcTree tree = circuit::make_balanced_tree(8, 2, {8.0, 1.2e-9, 0.06e-12});
  const circuit::SectionId sink = tree.leaves().front();
  analysis::scale_inductance_for_zeta(tree, sink, 0.55);

  const eed::TreeModel model = eed::analyze(tree);
  const eed::NodeModel& nm = model.at(sink);
  const double horizon = analysis::suggest_horizon(nm);

  const sim::Waveform ref =
      analysis::reference_waveform(tree, sink, sim::StepSource{1.0}, horizon, 4001);
  const sim::Waveform eed_w =
      sim::sample(ref.times(), [&](double t) { return eed::step_response(nm, t); });

  const auto m_ref = sim::measure_rising(ref, 1.0);

  util::Table table({"quantity", "simulator", "EED closed form", "err %"});
  auto row = [&](const char* q, double sim_v, double eed_v) {
    table.add_row({q, util::Table::fmt(sim_v, 5), util::Table::fmt(eed_v, 5),
                   util::Table::fmt(100.0 * std::abs(eed_v - sim_v) /
                                        std::max(std::abs(sim_v), 1e-300),
                                    3)});
  };
  row("t50 [ps]", m_ref.delay_50 / 1e-12, eed::delay_50(nm) / 1e-12);
  row("rise 10-90 [ps]", m_ref.rise_10_90 / 1e-12, eed::rise_time(nm) / 1e-12);
  row("overshoot [%]", m_ref.overshoot_pct, eed::overshoot_pct(nm, 1));
  row("peak time [ps]", m_ref.peak_time / 1e-12, eed::overshoot_time(nm, 1) / 1e-12);
  table.print(std::cout,
              "Fig. 16 — large tree (255 sections): macro features vs simulator");

  // Count sign changes of the residual: second-order (high-frequency)
  // oscillations around the 2-pole response.
  int sign_changes = 0;
  double prev = 0.0;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    const double d = ref.values()[i] - eed_w.values()[i];
    if (prev != 0.0 && d != 0.0 && ((prev > 0) != (d > 0))) ++sign_changes;
    if (d != 0.0) prev = d;
  }
  std::cout << "\nresidual (sim - model) sign changes over the horizon: " << sign_changes
            << "\nmax |residual|: " << ref.max_abs_difference(eed_w) << " V\n";
  std::cout << "\nShape check (paper): the model tracks the primary (low-frequency)\n"
               "response — small timing errors — while the residual oscillates\n"
               "many times: those are the second-order harmonics a 2-pole model\n"
               "cannot carry (use AWE with more moments when they matter).\n";
  return 0;
}
