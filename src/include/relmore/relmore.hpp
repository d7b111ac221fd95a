#pragma once

/// \file relmore.hpp
/// Whole-library umbrella header. Prefer the per-module headers in real
/// builds; this exists for quick experiments, the examples, and the bench
/// binaries.

#include "relmore/analysis/compare.hpp"      // IWYU pragma: export
#include "relmore/analysis/report.hpp"       // IWYU pragma: export
#include "relmore/analysis/variation.hpp"    // IWYU pragma: export
#include "relmore/circuit/builders.hpp"      // IWYU pragma: export
#include "relmore/circuit/flat_tree.hpp"     // IWYU pragma: export
#include "relmore/circuit/netlist.hpp"       // IWYU pragma: export
#include "relmore/circuit/random_tree.hpp"   // IWYU pragma: export
#include "relmore/circuit/rlc_tree.hpp"      // IWYU pragma: export
#include "relmore/circuit/segmentation.hpp"  // IWYU pragma: export
#include "relmore/circuit/validate.hpp"      // IWYU pragma: export
#include "relmore/eed/eed.hpp"               // IWYU pragma: export
#include "relmore/eed/figures_of_merit.hpp"  // IWYU pragma: export
#include "relmore/eed/frequency.hpp"         // IWYU pragma: export
#include "relmore/eed/sensitivity.hpp"       // IWYU pragma: export
#include "relmore/engine/batched.hpp"        // IWYU pragma: export
#include "relmore/engine/timing_engine.hpp"  // IWYU pragma: export
#include "relmore/moments/pole_residue.hpp"  // IWYU pragma: export
#include "relmore/moments/tree_moments.hpp"  // IWYU pragma: export
#include "relmore/opt/buffer_insertion.hpp"  // IWYU pragma: export
#include "relmore/opt/driver.hpp"            // IWYU pragma: export
#include "relmore/opt/path_timing.hpp"       // IWYU pragma: export
#include "relmore/opt/skew_balance.hpp"      // IWYU pragma: export
#include "relmore/opt/van_ginneken.hpp"      // IWYU pragma: export
#include "relmore/opt/wire_sizing.hpp"       // IWYU pragma: export
#include "relmore/sim/adaptive.hpp"          // IWYU pragma: export
#include "relmore/sim/batch_sim.hpp"         // IWYU pragma: export
#include "relmore/sim/flat_stepper.hpp"      // IWYU pragma: export
#include "relmore/sim/measure.hpp"           // IWYU pragma: export
#include "relmore/sim/mna.hpp"               // IWYU pragma: export
#include "relmore/sim/state_space.hpp"       // IWYU pragma: export
#include "relmore/sim/tree_transient.hpp"    // IWYU pragma: export
#include "relmore/sim/waveform_io.hpp"       // IWYU pragma: export
#include "relmore/sta/sta.hpp"               // IWYU pragma: export
#include "relmore/timer.hpp"                 // IWYU pragma: export
#include "relmore/util/diagnostics.hpp"      // IWYU pragma: export
#include "relmore/util/table.hpp"            // IWYU pragma: export
#include "relmore/util/units.hpp"            // IWYU pragma: export
#include "relmore/util/worker_pool.hpp"      // IWYU pragma: export
