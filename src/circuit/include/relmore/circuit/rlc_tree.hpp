#pragma once

/// \file rlc_tree.hpp
/// The object of study: an RLC tree (paper Fig. 3 / Fig. 5).
///
/// A tree is a set of *sections*. Section `i` connects its parent's
/// downstream node to node `i` through a series resistance `R_i` and
/// inductance `L_i`; a shunt capacitance `C_i` loads node `i` to ground.
/// The root section's upstream node is the input (driven by the source).
/// Node indices coincide with section indices; the input node is implicit.

#include <cstddef>
#include <string>
#include <vector>

namespace relmore::circuit {

/// Index of a section/node inside an RlcTree.
using SectionId = int;

/// Sentinel parent id for sections attached directly to the input node.
inline constexpr SectionId kInput = -1;

/// Electrical values of one tree section (series R, L; shunt C), SI units.
struct SectionValues {
  double resistance = 0.0;   ///< ohms
  double inductance = 0.0;   ///< henries
  double capacitance = 0.0;  ///< farads
};

/// One branch of the tree.
struct Section {
  SectionId parent = kInput;
  SectionValues v;
  std::string name;  ///< optional label ("O" for the observed sink, etc.)
};

/// An RLC tree under incremental construction. Append-only: sections are
/// added with an already-existing parent, so the structure is a forest of
/// trees hanging off the input node by construction (no cycle check needed).
class RlcTree {
 public:
  /// Adds a section; `parent` must be kInput or a previously added id.
  /// Negative R/L/C throw std::invalid_argument (zero is allowed: a zero-L
  /// tree is an RC tree; zero-R/zero-C sections model ideal stubs).
  SectionId add_section(SectionId parent, const SectionValues& values, std::string name = "");
  SectionId add_section(SectionId parent, double resistance, double inductance,
                        double capacitance, std::string name = "");

  /// Sizes the section and child-list tables for `n` sections, so adding
  /// that many regrows neither; each section's own name and child list
  /// still allocate as it gets them.
  void reserve(std::size_t n);

  [[nodiscard]] std::size_t size() const { return sections_.size(); }
  [[nodiscard]] bool empty() const { return sections_.empty(); }
  [[nodiscard]] const Section& section(SectionId i) const;
  [[nodiscard]] const std::vector<Section>& sections() const { return sections_; }
  [[nodiscard]] const std::vector<SectionId>& children(SectionId i) const;
  /// Sections whose parent is the input node.
  [[nodiscard]] const std::vector<SectionId>& roots() const { return roots_; }

  /// Mutable access to values (wire sizing and ζ-targeting rescale trees).
  SectionValues& values(SectionId i);

  /// Section ids in parent-before-child order (ids are already topological
  /// by the append-only invariant; provided for readability at call sites).
  [[nodiscard]] std::vector<SectionId> topological_order() const;

  /// Sections with no children (the sinks).
  [[nodiscard]] std::vector<SectionId> leaves() const;

  /// 1-based level of a section (root sections are level 1).
  [[nodiscard]] int level(SectionId i) const;
  /// Max level over all sections; 0 for an empty tree.
  [[nodiscard]] int depth() const;

  /// Sections on the path input -> node i, root end first.
  [[nodiscard]] std::vector<SectionId> path_from_input(SectionId i) const;

  [[nodiscard]] double total_capacitance() const;

  /// First section whose name matches, or -1.
  [[nodiscard]] SectionId find_by_name(const std::string& name) const;

 private:
  void check_id(SectionId i) const;

  std::vector<Section> sections_;
  std::vector<std::vector<SectionId>> children_;
  std::vector<SectionId> roots_;
};

}  // namespace relmore::circuit
