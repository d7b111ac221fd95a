#pragma once

/// \file timing_engine.hpp
/// Incremental timing engine: O(depth) re-analysis of an RLC tree under
/// local edits (the reason the paper's closed form can live *inside*
/// synthesis loops, §IV).
///
/// `eed::analyze` recomputes the whole tree: an upward pass for the
/// subtree capacitances Ctot_i and a downward pass for the prefix sums
/// SR_i = Σ R_k·Ctot_k and SL_i = Σ L_k·Ctot_k along each root path
/// (paper Appendix, Figs. 17–18). Under a local edit almost all of that
/// work is unchanged: a value change at section j only moves Ctot on the
/// input→j path, and only the *local* terms R_k·Ctot_k on that path.
/// The engine therefore caches, per section,
///
///   ctot_i  — subtree capacitance        (maintained eagerly, O(depth)/edit)
///   tr_i    — R_i · ctot_i               (eagerly, O(depth)/edit)
///   tl_i    — L_i · ctot_i               (eagerly, O(depth)/edit)
///   sr_i, sl_i — root-path prefix sums   (lazily, refreshed on query)
///
/// and answers node queries by walking the root path until it meets a
/// prefix that is already fresh, so a query after a single edit costs
/// O(depth) instead of O(n).
///
/// All incremental updates re-sum in exactly the association order of
/// `eed::analyze`'s two passes, so every `node(i)` is *bitwise* equal to
/// `eed::analyze(tree()).at(i)` — optimizers rewired through the engine
/// follow the same trajectory they did with `eed::analyze`.
///
/// Robustness contract: the constructor validates the tree
/// (circuit::validate — finite non-negative values, sound structure) and
/// throws util::FaultError on errors; every edit validates its inputs
/// (NaN/Inf/negative rejected) *before* mutating any state, so a throwing
/// edit leaves the engine exactly as it was (strong exception guarantee).

#include <cstdint>
#include <vector>

#include "relmore/circuit/rlc_tree.hpp"
#include "relmore/eed/model.hpp"

namespace relmore::engine {

/// Work counters for the full-vs-incremental accounting the benches print.
struct EngineCounters {
  std::uint64_t incremental_edits = 0;   ///< edits applied by delta propagation
  std::uint64_t full_recomputes = 0;     ///< whole-tree sweeps (construction)
  std::uint64_t edit_nodes_touched = 0;  ///< sections visited while propagating edits
  std::uint64_t queries = 0;             ///< node-model queries answered
  std::uint64_t query_nodes_walked = 0;  ///< sections visited refreshing prefixes
};

/// An analysis session over one RLC tree. Owns its tree; construct from a
/// copy (or move) of the circuit under optimization.
class TimingEngine {
 public:
  explicit TimingEngine(circuit::RlcTree tree);

  /// The tree in its current edited state. `eed::analyze(tree())` equals
  /// every `node(i)` bitwise.
  [[nodiscard]] const circuit::RlcTree& tree() const { return tree_; }
  [[nodiscard]] std::size_t size() const { return tree_.size(); }

  /// Replaces section `id`'s R/L/C. O(path length) when the capacitance
  /// changes, O(1) otherwise. Throws on out-of-range ids and on negative
  /// or non-finite values (same contract as RlcTree::add_section).
  void set_section_values(circuit::SectionId id, const circuit::SectionValues& v);

  /// Second-order model of one node. Worst case O(depth); O(1) when the
  /// node's prefix is already fresh (no edits since the last query of it
  /// or of a descendant's ancestor path).
  [[nodiscard]] eed::NodeModel node(circuit::SectionId id) const;

  /// 50% delay at one node (paper eq. 35) — the optimizer hot call.
  [[nodiscard]] double delay_50(circuit::SectionId id) const;

  [[nodiscard]] const EngineCounters& counters() const { return counters_; }
  void reset_counters() { counters_ = EngineCounters{}; }

 private:
  void check_id(circuit::SectionId id) const;
  /// Re-sums ctot (and tr/tl) at `id` and every ancestor, in the fresh
  /// pass's association order. Returns sections touched.
  std::uint64_t resum_path(circuit::SectionId id);
  /// Refreshes sr_/sl_ for `id` (and any stale ancestors). Bumps the
  /// query counters.
  void refresh_prefix(circuit::SectionId id) const;

  circuit::RlcTree tree_;
  std::vector<double> ctot_;     ///< subtree capacitance (always current)
  std::vector<double> tr_, tl_;  ///< R·ctot, L·ctot (always current)
  mutable std::vector<double> sr_, sl_;        ///< prefix sums (lazy)
  mutable std::vector<std::uint64_t> stamp_;   ///< epoch at which sr_/sl_ was computed
  std::uint64_t epoch_ = 1;                    ///< bumped by every edit
  mutable EngineCounters counters_;
};

}  // namespace relmore::engine
