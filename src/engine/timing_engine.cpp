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
  const std::size_t n = tree_.size();
  alive_.assign(n, 1);
  level_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const SectionId parent = tree_.section(static_cast<SectionId>(i)).parent;
    level_[i] = parent == circuit::kInput ? 1 : level_[static_cast<std::size_t>(parent)] + 1;
  }
  sr_.assign(n, 0.0);
  sl_.assign(n, 0.0);
  stamp_.assign(n, 0);
  rebuild_all();
}

util::Result<TimingEngine> TimingEngine::create_checked(RlcTree tree) {
  try {
    return TimingEngine(std::move(tree));
  } catch (const FaultError& e) {
    return e.status();
  } catch (const std::invalid_argument& e) {
    return Status(ErrorCode::kEmptyTree, e.what());
  }
}

void TimingEngine::check_alive(SectionId id) const {
  if (id < 0 || static_cast<std::size_t>(id) >= tree_.size()) {
    throw std::out_of_range("TimingEngine: section id out of range");
  }
  if (!alive_[static_cast<std::size_t>(id)]) {
    throw std::invalid_argument("TimingEngine: section has been pruned");
  }
}

bool TimingEngine::alive(SectionId id) const {
  if (id < 0 || static_cast<std::size_t>(id) >= tree_.size()) {
    throw std::out_of_range("TimingEngine: section id out of range");
  }
  return alive_[static_cast<std::size_t>(id)] != 0;
}

void TimingEngine::rebuild_all() {
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
  ++epoch_;
  ++counters_.full_recomputes;
  counters_.edit_nodes_touched += n;
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
  check_alive(id);
  check_edit_values(v, id);
  const auto i = static_cast<std::size_t>(id);
  const bool cap_changed = tree_.section(id).v.capacitance != v.capacitance;
  record_undo(id);
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

void TimingEngine::apply_edits(const std::vector<Edit>& edits) {
  if (edits.empty()) return;
  // Dirty-set fallback: propagating each edit costs its root-path length;
  // when the batch's summed path lengths reach one whole-tree sweep, the
  // sweep is the cheaper (and cache-friendlier) plan.
  std::uint64_t path_cost = 0;
  for (const Edit& e : edits) {
    check_alive(e.id);
    check_edit_values(e.v, e.id);
    path_cost += static_cast<std::uint64_t>(level_[static_cast<std::size_t>(e.id)]);
  }
  if (path_cost >= tree_.size()) {
    for (const Edit& e : edits) {
      record_undo(e.id);
      tree_.values(e.id) = e.v;
    }
    rebuild_all();
    return;
  }
  for (const Edit& e : edits) set_section_values(e.id, e.v);
}

std::vector<SectionId> TimingEngine::graft(SectionId parent, const RlcTree& subtree) {
  if (parent != circuit::kInput) check_alive(parent);
  if (subtree.empty()) throw std::invalid_argument("TimingEngine::graft: empty subtree");
  const std::size_t base = tree_.size();
  const std::size_t m = subtree.size();
  // Validate every incoming value before the first append so a poisoned
  // subtree leaves the engine untouched (strong exception guarantee).
  for (std::size_t s = 0; s < m; ++s) {
    check_edit_values(subtree.section(static_cast<SectionId>(s)).v,
                      static_cast<SectionId>(s));
  }
  if (in_tx_) {
    UndoEntry marker;
    marker.id = circuit::kInput;
    marker.truncate_to = base;
    undo_.push_back(marker);
  }
  std::vector<SectionId> id_map(m, circuit::kInput);
  for (std::size_t s = 0; s < m; ++s) {
    const auto& sec = subtree.section(static_cast<SectionId>(s));
    const SectionId new_parent =
        sec.parent == circuit::kInput ? parent
                                      : id_map[static_cast<std::size_t>(sec.parent)];
    id_map[s] = tree_.add_section(new_parent, sec.v, sec.name);
  }
  const std::size_t n = tree_.size();
  alive_.resize(n, 1);
  level_.resize(n);
  ctot_.resize(n);
  tr_.resize(n);
  tl_.resize(n);
  sr_.resize(n, 0.0);
  sl_.resize(n, 0.0);
  stamp_.resize(n, 0);
  // Upward pass over just the appended range (its children all lie inside
  // the range), then fold the grafted load into the attachment path.
  for (std::size_t i = base; i < n; ++i) {
    const auto id = static_cast<SectionId>(i);
    const SectionId p = tree_.section(id).parent;
    level_[i] = p == circuit::kInput ? 1 : level_[static_cast<std::size_t>(p)] + 1;
    ctot_[i] = tree_.section(id).v.capacitance;
  }
  for (std::size_t i = n; i-- > base;) {
    const SectionId p = tree_.section(static_cast<SectionId>(i)).parent;
    if (p != circuit::kInput && static_cast<std::size_t>(p) >= base) {
      ctot_[static_cast<std::size_t>(p)] += ctot_[i];
    }
  }
  for (std::size_t i = base; i < n; ++i) {
    const auto& v = tree_.section(static_cast<SectionId>(i)).v;
    tr_[i] = v.resistance * ctot_[i];
    tl_[i] = v.inductance * ctot_[i];
  }
  std::uint64_t touched = n - base;
  if (parent != circuit::kInput) touched += resum_path(parent);
  counters_.edit_nodes_touched += touched;
  ++counters_.incremental_edits;
  ++epoch_;
  return id_map;
}

void TimingEngine::prune(SectionId id) {
  check_alive(id);
  // Tombstone the subtree and zero its values: a zero-R/L/C section is an
  // ideal stub contributing nothing to any Ctot/SR/SL, so the remaining
  // live nodes see exactly the tree with the subtree removed.
  std::vector<SectionId> stack{id};
  std::uint64_t touched = 0;
  while (!stack.empty()) {
    const SectionId cur = stack.back();
    stack.pop_back();
    const auto ci = static_cast<std::size_t>(cur);
    record_undo(cur);
    alive_[ci] = 0;
    tree_.values(cur) = circuit::SectionValues{0.0, 0.0, 0.0};
    ctot_[ci] = 0.0;
    tr_[ci] = 0.0;
    tl_[ci] = 0.0;
    ++touched;
    for (const SectionId c : tree_.children(cur)) {
      if (alive_[static_cast<std::size_t>(c)]) stack.push_back(c);
    }
  }
  const SectionId parent = tree_.section(id).parent;
  if (parent != circuit::kInput) touched += resum_path(parent);
  counters_.edit_nodes_touched += touched;
  ++counters_.incremental_edits;
  ++epoch_;
}

void TimingEngine::record_undo(SectionId id) {
  if (!in_tx_) return;
  UndoEntry e;
  e.id = id;
  e.v = tree_.section(id).v;
  e.alive = alive_[static_cast<std::size_t>(id)];
  undo_.push_back(e);
}

void TimingEngine::begin_transaction() {
  if (in_tx_) {
    throw FaultError(Status(ErrorCode::kTransactionState,
                            "TimingEngine: transaction already open (no nesting)"));
  }
  in_tx_ = true;
  undo_.clear();
}

void TimingEngine::commit() {
  if (!in_tx_) {
    throw FaultError(
        Status(ErrorCode::kTransactionState, "TimingEngine: commit without transaction"));
  }
  in_tx_ = false;
  undo_.clear();
}

void TimingEngine::rollback() {
  if (!in_tx_) {
    throw FaultError(
        Status(ErrorCode::kTransactionState, "TimingEngine: rollback without transaction"));
  }
  // Replay the journal newest-first. Value entries for sections a later
  // (in journal order, i.e. earlier here) graft appended are replayed
  // before their truncate marker drops those sections, so every restore
  // targets an id that still exists.
  for (std::size_t k = undo_.size(); k-- > 0;) {
    const UndoEntry& e = undo_[k];
    if (e.id == circuit::kInput) {
      tree_.truncate(e.truncate_to);
      const std::size_t n = e.truncate_to;
      alive_.resize(n);
      level_.resize(n);
      ctot_.resize(n);
      tr_.resize(n);
      tl_.resize(n);
      sr_.resize(n);
      sl_.resize(n);
      stamp_.resize(n);
    } else {
      tree_.values(e.id) = e.v;
      alive_[static_cast<std::size_t>(e.id)] = e.alive;
    }
  }
  undo_.clear();
  in_tx_ = false;
  // Values and liveness are now exactly the pre-transaction ones; one full
  // sweep rebuilds ctot/tr/tl bitwise-identical to that state (it is the
  // same association order the original construction used), and the epoch
  // bump forces every lazy prefix to re-derive from them.
  rebuild_all();
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

eed::NodeModel TimingEngine::node_from_prefix(std::size_t i) const {
  return eed::node_model(sr_[i], sl_[i]);
}

eed::NodeModel TimingEngine::node(SectionId id) const {
  check_alive(id);
  ++counters_.queries;
  refresh_prefix(id);
  return node_from_prefix(static_cast<std::size_t>(id));
}

double TimingEngine::delay_50(SectionId id) const { return eed::delay_50(node(id)); }

double TimingEngine::load_capacitance(SectionId id) const {
  check_alive(id);
  return ctot_[static_cast<std::size_t>(id)];
}

eed::TreeModel TimingEngine::model() const {
  const std::size_t n = tree_.size();
  if (all_fresh_epoch_ != epoch_) {
    // One downward prefix pass in id order — identical to the fresh pass.
    for (std::size_t i = 0; i < n; ++i) {
      const SectionId parent = tree_.section(static_cast<SectionId>(i)).parent;
      const auto pi = static_cast<std::size_t>(parent);
      sr_[i] = (parent == circuit::kInput ? 0.0 : sr_[pi]) + tr_[i];
      sl_[i] = (parent == circuit::kInput ? 0.0 : sl_[pi]) + tl_[i];
      stamp_[i] = epoch_;
    }
    counters_.query_nodes_walked += n;
    all_fresh_epoch_ = epoch_;
  }
  ++counters_.queries;
  eed::TreeModel out;
  out.nodes.resize(n);
  out.load_capacitance = ctot_;
  for (std::size_t i = 0; i < n; ++i) out.nodes[i] = node_from_prefix(i);
  return out;
}

}  // namespace relmore::engine
