#include "relmore/circuit/flat_tree.hpp"

#include <algorithm>

namespace relmore::circuit {

FlatTree::FlatTree(const RlcTree& tree) { assign(tree); }

void FlatTree::assign(const RlcTree& tree) {
  const std::size_t n = tree.size();
  parent_.resize(n);
  resistance_.resize(n);
  inductance_.resize(n);
  capacitance_.resize(n);
  child_count_.assign(n, 0);
  level_.resize(n);
  names_.resize(n);
  depth_ = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const Section& s = tree.section(static_cast<SectionId>(i));
    parent_[i] = s.parent;
    resistance_[i] = s.v.resistance;
    inductance_[i] = s.v.inductance;
    capacitance_[i] = s.v.capacitance;
    names_[i] = s.name;
    if (s.parent == kInput) {
      level_[i] = 1;
    } else {
      ++child_count_[static_cast<std::size_t>(s.parent)];
      level_[i] = level_[static_cast<std::size_t>(s.parent)] + 1;
    }
    depth_ = std::max(depth_, level_[i]);
  }
}

std::vector<SectionId> FlatTree::leaves() const {
  std::vector<SectionId> out;
  for (std::size_t i = 0; i < child_count_.size(); ++i) {
    if (child_count_[i] == 0) out.push_back(static_cast<SectionId>(i));
  }
  return out;
}

SectionId FlatTree::find_by_name(const std::string& name) const {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<SectionId>(i);
  }
  return kInput;
}

}  // namespace relmore::circuit
