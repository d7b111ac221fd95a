#include "relmore/engine/timing_engine.hpp"

#include <cmath>
#include <stdexcept>

#include "relmore/circuit/validate.hpp"
#include "relmore/eed/second_order.hpp"

namespace relmore::engine {

using circuit::RlcTree;
using circuit::SectionId;
using util::ErrorCode;
using util::FaultError;
using util::Status;

namespace {

/// Edit-input guard: rejects NaN/Inf/negative R/L/C before any state is
/// touched (the strong exception guarantee hinges on validate-then-mutate).
void check_edit_values(const circuit::SectionValues& v, SectionId id) {
  for (const double x : {v.resistance, v.inductance, v.capacitance}) {
    if (util::valid_element_value(x)) continue;
    const bool non_finite = std::isnan(x) || std::isinf(x);
    throw FaultError(Status(
        non_finite ? ErrorCode::kNonFiniteValue : ErrorCode::kNegativeValue,
        std::string("TimingEngine: ") + (non_finite ? "non-finite" : "negative") +
            " element value in edit of section " + std::to_string(id),
        id));
  }
}

}  // namespace

TimingEngine::TimingEngine(RlcTree tree) : tree_(std::move(tree)) {
  if (tree_.empty()) throw std::invalid_argument("TimingEngine: empty tree");
  if (const util::DiagnosticsReport report = circuit::validate(tree_); !report.is_ok()) {
    throw FaultError(report.to_status());
  }
  // Exactly eed::analyze's upward pass: seed with own C, then one reverse
  // scan folding each child into its parent (descending-id order), so the
  // cached ctot_ is bitwise identical to TreeModel::load_capacitance.
  const std::size_t n = tree_.size();
  ctot_.resize(n);
  tr_.resize(n);
  tl_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    ctot_[i] = tree_.section(static_cast<SectionId>(i)).v.capacitance;
  }
  for (std::size_t i = n; i-- > 0;) {
    const SectionId parent = tree_.section(static_cast<SectionId>(i)).parent;
    if (parent != circuit::kInput) ctot_[static_cast<std::size_t>(parent)] += ctot_[i];
  }
  for (std::size_t i = 0; i < n; ++i) {
    const auto& v = tree_.section(static_cast<SectionId>(i)).v;
    tr_[i] = v.resistance * ctot_[i];
    tl_[i] = v.inductance * ctot_[i];
  }
  // Every prefix starts stale (stamp 0 != epoch 1).
  sr_.assign(n, 0.0);
  sl_.assign(n, 0.0);
  stamp_.assign(n, 0);
  ++counters_.full_recomputes;
  counters_.edit_nodes_touched += n;
}

void TimingEngine::check_id(SectionId id) const {
  if (id < 0 || static_cast<std::size_t>(id) >= tree_.size()) {
    throw std::out_of_range("TimingEngine: section id out of range");
  }
}

std::uint64_t TimingEngine::resum_path(SectionId id) {
  // Walk input-ward from `id`, recomputing each node's ctot from its own C
  // plus its children's (current) ctot in descending-id order — the same
  // association order as the fresh upward pass, so the result is bitwise
  // what a full recompute would produce.
  std::uint64_t touched = 0;
  for (SectionId cur = id; cur != circuit::kInput;
       cur = tree_.section(cur).parent) {
    const auto ci = static_cast<std::size_t>(cur);
    double c = tree_.section(cur).v.capacitance;
    const auto& kids = tree_.children(cur);
    for (std::size_t k = kids.size(); k-- > 0;) {
      c += ctot_[static_cast<std::size_t>(kids[k])];
    }
    ctot_[ci] = c;
    const auto& v = tree_.section(cur).v;
    tr_[ci] = v.resistance * c;
    tl_[ci] = v.inductance * c;
    ++touched;
  }
  return touched;
}

void TimingEngine::set_section_values(SectionId id, const circuit::SectionValues& v) {
  check_id(id);
  check_edit_values(v, id);
  const auto i = static_cast<std::size_t>(id);
  const bool cap_changed = tree_.section(id).v.capacitance != v.capacitance;
  tree_.values(id) = v;
  if (cap_changed) {
    counters_.edit_nodes_touched += resum_path(id);
  } else {
    // R/L only: ctot is untouched everywhere; only the local terms move.
    tr_[i] = v.resistance * ctot_[i];
    tl_[i] = v.inductance * ctot_[i];
    ++counters_.edit_nodes_touched;
  }
  ++epoch_;
  ++counters_.incremental_edits;
}

void TimingEngine::refresh_prefix(SectionId id) const {
  // Climb until a fresh prefix (or the input), then unwind computing
  // sr/sl top-down — the same left-to-right accumulation as the fresh
  // downward pass, so refreshed prefixes match it bitwise.
  std::vector<SectionId> stale;
  SectionId cur = id;
  while (cur != circuit::kInput && stamp_[static_cast<std::size_t>(cur)] != epoch_) {
    stale.push_back(cur);
    cur = tree_.section(cur).parent;
  }
  double sr = cur == circuit::kInput ? 0.0 : sr_[static_cast<std::size_t>(cur)];
  double sl = cur == circuit::kInput ? 0.0 : sl_[static_cast<std::size_t>(cur)];
  for (std::size_t k = stale.size(); k-- > 0;) {
    const auto i = static_cast<std::size_t>(stale[k]);
    sr += tr_[i];
    sl += tl_[i];
    sr_[i] = sr;
    sl_[i] = sl;
    stamp_[i] = epoch_;
  }
  counters_.query_nodes_walked += stale.size();
}

eed::NodeModel TimingEngine::node(SectionId id) const {
  check_id(id);
  ++counters_.queries;
  refresh_prefix(id);
  const auto i = static_cast<std::size_t>(id);
  return eed::node_model(sr_[i], sl_[i]);
}

double TimingEngine::delay_50(SectionId id) const { return eed::delay_50(node(id)); }

}  // namespace relmore::engine
