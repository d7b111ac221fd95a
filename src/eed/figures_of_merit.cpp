#include "relmore/eed/figures_of_merit.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "relmore/eed/model.hpp"

namespace relmore::eed {

InductanceFiguresOfMerit assess_line(double total_r, double total_l, double total_c,
                                     double rise_seconds) {
  if (total_l <= 0.0 || total_c <= 0.0) {
    throw std::invalid_argument("assess_line: need positive L and C totals");
  }
  if (total_r < 0.0 || rise_seconds < 0.0) {
    throw std::invalid_argument("assess_line: negative R or rise time");
  }
  InductanceFiguresOfMerit out;
  out.edge_ratio = rise_seconds / (2.0 * std::sqrt(total_l * total_c));
  out.damping_ratio = total_r / 2.0 * std::sqrt(total_c / total_l);
  out.inductance_matters = out.edge_ratio < 1.0 && out.damping_ratio < 1.0;
  return out;
}

InductanceFiguresOfMerit assess_tree(const circuit::RlcTree& tree, double rise_seconds) {
  if (tree.empty()) throw std::invalid_argument("assess_tree: empty tree");
  // Most remote sink = largest Elmore constant; use its path totals plus
  // the tree's full capacitive load (conservative for branching loads).
  const TreeModel model = analyze(tree);
  circuit::SectionId worst = tree.leaves().front();
  for (circuit::SectionId s : tree.leaves()) {
    if (model.at(s).sum_rc > model.at(worst).sum_rc) worst = s;
  }
  double path_r = 0.0;
  double path_l = 0.0;
  for (circuit::SectionId j : tree.path_from_input(worst)) {
    path_r += tree.section(j).v.resistance;
    path_l += tree.section(j).v.inductance;
  }
  if (path_l <= 0.0) {
    // Pure-RC path: inductance trivially does not matter; report the
    // damping ratio as infinite (fully damped).
    InductanceFiguresOfMerit out;
    out.edge_ratio = std::numeric_limits<double>::infinity();
    out.damping_ratio = std::numeric_limits<double>::infinity();
    out.inductance_matters = false;
    return out;
  }
  return assess_line(path_r, path_l, tree.total_capacitance(), rise_seconds);
}

}  // namespace relmore::eed
