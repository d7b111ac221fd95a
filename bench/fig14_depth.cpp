/// \file fig14_depth.cpp
/// Reproduces paper Fig. 14: accuracy versus tree depth for balanced
/// binary trees. The transfer-function order at the sinks grows with the
/// number of levels, so more of the true response lives in harmonics the
/// 2-pole model cannot carry. We report the residual-oscillation count
/// (unmodeled harmonics) alongside the delay and peak-waveform errors;
/// see EXPERIMENTS.md for why the *peak* error does not grow when the
/// sink damping is matched across depths.

#include <iostream>

#include "relmore/relmore.hpp"

namespace {

int residual_sign_changes(const relmore::sim::Waveform& ref,
                          const relmore::sim::Waveform& model) {
  int count = 0;
  double prev = 0.0;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    const double d = ref.values()[i] - model.values()[i];
    if (prev != 0.0 && d != 0.0 && ((prev > 0) != (d > 0))) ++count;
    if (d != 0.0) prev = d;
  }
  return count;
}

}  // namespace

int main() {
  using namespace relmore;

  util::Table table({"levels", "sections", "zeta@sink", "t50_sim [ps]", "t50_EED [ps]",
                     "delay err %", "max|dv| [V]", "residual oscillations"});
  for (int levels = 2; levels <= 6; ++levels) {
    circuit::RlcTree tree = circuit::make_balanced_tree(levels, 2, {25.0, 2e-9, 0.2e-12});
    const circuit::SectionId sink = tree.leaves().front();
    analysis::scale_inductance_for_zeta(tree, sink, 0.8);
    const analysis::StepComparison c = analysis::compare_step_response(tree, sink);

    const eed::TreeModel model = eed::analyze(tree);
    const eed::NodeModel& nm = model.at(sink);
    const double horizon = analysis::suggest_horizon(nm);
    const sim::Waveform ref =
        analysis::reference_waveform(tree, sink, sim::StepSource{1.0}, horizon, 3001);
    const sim::Waveform eed_w =
        sim::sample(ref.times(), [&](double t) { return eed::step_response(nm, t); });

    table.add_row_numeric({static_cast<double>(levels), static_cast<double>(tree.size()),
                           c.zeta, c.ref_delay_50 / 1e-12, c.eed_delay_50 / 1e-12,
                           c.delay_err_pct, c.waveform_max_err,
                           static_cast<double>(residual_sign_changes(ref, eed_w))},
                          5);
  }
  table.print(std::cout, "Fig. 14 — error vs depth, balanced binary trees");
  std::cout << "\nCSV:\n";
  table.print_csv(std::cout);
  std::cout
      << "\nShape check (paper): deeper trees carry more response content the\n"
         "2-pole model cannot represent — the residual-oscillation count\n"
         "grows with depth. The 50% delay stays within a few percent at\n"
         "every depth. (Peak |dv| does not grow here because matching the\n"
         "sink damping across depths also damps the deep trees' harmonics;\n"
         "see EXPERIMENTS.md.)\n";
  return 0;
}
