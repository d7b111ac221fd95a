/// \file global_wire_analysis.cpp
/// Signal-integrity walk-through for one global wire — the paper's
/// motivating scenario (wide upper-metal wires where inductance matters).
/// Demonstrates the wider API surface in one flow:
///   1. describe the wire physically and segment it (circuit::segmentation),
///   2. run the O(n) EED analysis and print the full timing signature
///      (delay / rise / overshoots / settling, paper eqs. 33–42),
///   3. sweep the driver strength to find where the response turns
///      non-monotone (the "is inductance important here?" question),
///   4. print the frequency-domain view (resonance, bandwidth),
///   5. cross-check against a higher-order AWE model and the simulator,
///   6. export a SPICE deck for external tools.

#include <fstream>
#include <iostream>

#include "relmore/analysis/compare.hpp"
#include "relmore/circuit/netlist.hpp"
#include "relmore/circuit/segmentation.hpp"
#include "relmore/eed/eed.hpp"
#include "relmore/eed/frequency.hpp"
#include "relmore/moments/pole_residue.hpp"
#include "relmore/sim/measure.hpp"
#include "relmore/sim/waveform.hpp"
#include "relmore/util/table.hpp"
#include "relmore/util/units.hpp"

int main() {
  using namespace relmore;
  using namespace relmore::util;

  const circuit::WireSpec wire = circuit::global_wire_spec();  // 1 mm global route
  const int segments = circuit::suggested_segments(wire, 50.0_ps);
  std::cout << "wire: " << wire.length_m * 1e3 << " mm, " << wire.r_per_m / 1e3
            << " ohm/mm, " << wire.l_per_m * 1e6 << " nH/mm, " << wire.c_per_m * 1e9
            << " pF/mm  ->  " << segments << " lumped sections\n\n";

  // 3. Driver-strength sweep: stronger drivers expose the inductance.
  util::Table sweep({"driver [ohm]", "zeta", "t50 [ps]", "rise [ps]", "overshoot [%]",
                     "settle [ps]", "monotone?"});
  for (const double rdrv : {100.0, 50.0, 25.0, 12.0, 6.0}) {
    circuit::RlcTree tree;
    const auto drv = tree.add_section(circuit::kInput, {rdrv, 0.0, 0.0}, "drv");
    const auto sink = circuit::append_wire(tree, drv, wire, segments);
    const eed::TreeModel model = eed::analyze(tree);
    const eed::NodeModel& nm = model.at(sink);
    sweep.add_row({util::Table::fmt(rdrv, 4), util::Table::fmt(nm.zeta, 3),
                   util::Table::fmt(eed::delay_50(nm) / 1.0_ps, 4),
                   util::Table::fmt(eed::rise_time(nm) / 1.0_ps, 4),
                   nm.underdamped() ? util::Table::fmt(eed::overshoot_pct(nm, 1), 3) : "0",
                   util::Table::fmt(eed::settling_time(nm) / 1.0_ps, 4),
                   nm.underdamped() ? "no (rings)" : "yes"});
  }
  sweep.print(std::cout, "Driver sweep (paper: stronger drive => lower zeta => ringing)");

  // Focus circuit: 25 ohm driver.
  circuit::RlcTree tree;
  const auto drv = tree.add_section(circuit::kInput, {25.0, 0.0, 0.0}, "drv");
  const auto sink = circuit::append_wire(tree, drv, wire, segments);
  const eed::TreeModel model = eed::analyze(tree);
  const eed::NodeModel& nm = model.at(sink);

  // 4. Frequency-domain view.
  std::cout << "\nfrequency view: ";
  if (eed::has_resonant_peak(nm)) {
    std::cout << "resonant peak " << util::Table::fmt(eed::peak_magnitude(nm), 4) << "x at "
              << util::Table::fmt(eed::peak_frequency(nm) / (2 * M_PI) / 1e9, 4) << " GHz, ";
  }
  std::cout << "-3 dB bandwidth "
            << util::Table::fmt(eed::bandwidth_3db(nm) / (2 * M_PI) / 1e9, 4) << " GHz\n";

  // 5. Cross-check: EED vs AWE q=4 vs the simulator at the sink.
  const auto cmp = analysis::compare_step_response(tree, sink);
  const auto awe = moments::stabilized(moments::awe_models_for_tree(tree, 4)
                                           [static_cast<std::size_t>(sink)]);
  const double horizon = analysis::suggest_horizon(nm);
  const auto ref = analysis::reference_waveform(tree, sink, sim::StepSource{1.0}, horizon);
  const double awe_t50 = sim::sample(ref.times(), [&](double t) { return awe.step_response(t); })
                            .first_rise_crossing(0.5);

  util::Table models({"model", "t50 [ps]", "err vs sim %"});
  models.add_row({"simulator (reference)", util::Table::fmt(cmp.ref_delay_50 / 1.0_ps, 4), "-"});
  models.add_row({"EED (eq. 35)", util::Table::fmt(cmp.eed_delay_50 / 1.0_ps, 4),
                  util::Table::fmt(cmp.delay_err_pct, 3)});
  models.add_row({"AWE q=4", util::Table::fmt(awe_t50 / 1.0_ps, 4),
                  util::Table::fmt(100.0 * std::abs(awe_t50 - cmp.ref_delay_50) /
                                       cmp.ref_delay_50,
                                   3)});
  models.add_row({"Wyatt RC", util::Table::fmt(cmp.wyatt_delay_50 / 1.0_ps, 4),
                  util::Table::fmt(cmp.wyatt_err_pct, 3)});
  std::cout << "\n";
  models.print(std::cout, "Model cross-check at the sink (step input)");

  // 6. SPICE export for external verification.
  const char* deck_path = "global_wire.sp";
  std::ofstream deck(deck_path);
  circuit::SpiceWriteOptions opts;
  opts.tran_stop_seconds = horizon;
  circuit::write_spice(tree, deck, opts);
  std::cout << "\nSPICE deck written to " << deck_path << " (" << tree.size()
            << " sections) for external cross-simulation.\n";
  return 0;
}
