#pragma once

/// \file flat_tree.hpp
/// Structure-of-arrays snapshot of an RlcTree for the analysis hot paths.
///
/// The two-pass analysis (paper Appendix, Figs. 17–18) does two
/// multiplications per section — at that arithmetic intensity the cost is
/// memory traffic, not FLOPs. `RlcTree` stores an array of `Section`
/// structs, each carrying a `std::string` name next to the three doubles
/// the kernels actually read, so a linear sweep drags the cold label bytes
/// through the cache with every load. `FlatTree` snapshots the same tree
/// into contiguous parallel arrays:
///
///   parent[]                  topology (kInput for root sections)
///   resistance[] / inductance[] / capacitance[]   hot values
///   child_count[], level[]    precomputed scan metadata
///   names()                   the cold strings, hoisted out of the sweep
///
/// Ids are identical to the source tree's and remain parent-before-child
/// (the append-only invariant), so the upward pass is one reverse id scan
/// and the downward pass one forward scan — no pointer chasing, no child
/// lists. A FlatTree is a snapshot that `assign` re-takes in place: it is
/// the fixed *topology* half of the batched same-topology kernels
/// (engine::BatchedAnalyzer), which supply per-sample values separately,
/// and a what-if commit re-takes an edited net's snapshot into the arrays
/// it already owns.

#include <cstddef>
#include <string>
#include <vector>

#include "relmore/circuit/rlc_tree.hpp"

namespace relmore::circuit {

/// SoA snapshot of one RlcTree. Cheap to copy relative to analysis work;
/// safe to share read-only across worker threads.
class FlatTree {
 public:
  /// Empty snapshot (size() == 0). Exists so containers of FlatTree-valued
  /// records (sta::Net and friends) can default-construct before the
  /// source tree is parsed; every analysis entry rejects an empty tree.
  FlatTree() = default;

  /// Snapshots `tree` (values as of the call; later edits to the source
  /// tree are not reflected).
  explicit FlatTree(const RlcTree& tree);

  /// Re-takes the snapshot of `tree` into this object's own arrays: the
  /// result equals FlatTree(tree) in every field, and arrays that already
  /// hold tree.size() entries (and names that fit their strings) are
  /// rewritten without allocating.
  void assign(const RlcTree& tree);

  [[nodiscard]] std::size_t size() const { return parent_.size(); }
  [[nodiscard]] bool empty() const { return parent_.empty(); }

  // --- hot arrays (length = size()) --------------------------------------
  [[nodiscard]] const std::vector<SectionId>& parent() const { return parent_; }
  [[nodiscard]] const std::vector<double>& resistance() const { return resistance_; }
  [[nodiscard]] const std::vector<double>& inductance() const { return inductance_; }
  [[nodiscard]] const std::vector<double>& capacitance() const { return capacitance_; }

  // --- precomputed scan metadata ------------------------------------------
  /// Number of children of each section (0 = sink).
  [[nodiscard]] const std::vector<int>& child_count() const { return child_count_; }
  /// 1-based level of each section (root sections are level 1).
  [[nodiscard]] const std::vector<int>& level() const { return level_; }
  /// Max level over all sections; 0 for an empty tree.
  [[nodiscard]] int depth() const { return depth_; }
  /// Sections with no children, in id order.
  [[nodiscard]] std::vector<SectionId> leaves() const;

  // --- cold data -----------------------------------------------------------
  /// Section labels, parallel to the hot arrays but stored apart from them.
  [[nodiscard]] const std::vector<std::string>& names() const { return names_; }
  /// First section whose name matches, or kInput.
  [[nodiscard]] SectionId find_by_name(const std::string& name) const;

 private:
  std::vector<SectionId> parent_;
  std::vector<double> resistance_;
  std::vector<double> inductance_;
  std::vector<double> capacitance_;
  std::vector<int> child_count_;
  std::vector<int> level_;
  int depth_ = 0;
  std::vector<std::string> names_;
};

}  // namespace relmore::circuit
