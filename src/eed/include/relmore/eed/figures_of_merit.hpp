#pragma once

/// \file figures_of_merit.hpp
/// "Is inductance important here?" — the screening question from the
/// authors' companion paper the introduction cites:
/// Y. I. Ismail, E. G. Friedman, J. L. Neves, "Figures of Merit to
/// Characterize the Importance of On-Chip Inductance" (DAC'98 / TVLSI'99,
/// ref. [8]). For a line with total R, L, C driven by an edge with rise
/// time t_r, inductance matters in the window
///
///     t_r / (2 sqrt(L C))  <  1   (edge fast enough to excite the line)
///     (R/2) sqrt(C/L)      <  1   (line not resistance-damped)
///
/// i.e. the length/edge-rate range where neither the lumped-C nor the RC
/// model is adequate. These predicates let tools route nets to the cheap
/// RC Elmore path or the RLC model of this library.

#include "relmore/circuit/rlc_tree.hpp"

namespace relmore::eed {

/// The two dimensionless figures of merit for one line.
struct InductanceFiguresOfMerit {
  double edge_ratio = 0.0;     ///< t_r / (2 sqrt(LC)); < 1 => fast edge
  double damping_ratio = 0.0;  ///< (R/2) sqrt(C/L);   < 1 => underdamped
  bool inductance_matters = false;  ///< both ratios below 1
};

/// Assesses a line from its totals. Throws std::invalid_argument when
/// L or C is non-positive (no inductance question to ask).
[[nodiscard]] InductanceFiguresOfMerit assess_line(double total_r, double total_l, double total_c,
                                     double rise_seconds);

/// Tree-level screen: evaluates the root-to-node path totals of the most
/// remote sink; a cheap routing decision between RC-Elmore and EED.
[[nodiscard]] InductanceFiguresOfMerit assess_tree(const circuit::RlcTree& tree, double rise_seconds);

}  // namespace relmore::eed
