#include "relmore/circuit/rlc_tree.hpp"

#include <algorithm>
#include <stdexcept>

namespace relmore::circuit {

SectionId RlcTree::add_section(SectionId parent, const SectionValues& values, std::string name) {
  if (parent != kInput && (parent < 0 || static_cast<std::size_t>(parent) >= sections_.size())) {
    throw std::invalid_argument("RlcTree::add_section: unknown parent id");
  }
  if (values.resistance < 0.0 || values.inductance < 0.0 || values.capacitance < 0.0) {
    throw std::invalid_argument("RlcTree::add_section: negative element value");
  }
  const SectionId id = static_cast<SectionId>(sections_.size());
  sections_.push_back(Section{parent, values, std::move(name)});
  children_.emplace_back();
  if (parent == kInput) {
    roots_.push_back(id);
  } else {
    children_[static_cast<std::size_t>(parent)].push_back(id);
  }
  return id;
}

SectionId RlcTree::add_section(SectionId parent, double resistance, double inductance,
                               double capacitance, std::string name) {
  return add_section(parent, SectionValues{resistance, inductance, capacitance},
                     std::move(name));
}

void RlcTree::reserve(std::size_t n) {
  sections_.reserve(n);
  children_.reserve(n);
}

void RlcTree::check_id(SectionId i) const {
  if (i < 0 || static_cast<std::size_t>(i) >= sections_.size()) {
    throw std::out_of_range("RlcTree: section id out of range");
  }
}

const Section& RlcTree::section(SectionId i) const {
  check_id(i);
  return sections_[static_cast<std::size_t>(i)];
}

const std::vector<SectionId>& RlcTree::children(SectionId i) const {
  check_id(i);
  return children_[static_cast<std::size_t>(i)];
}

SectionValues& RlcTree::values(SectionId i) {
  check_id(i);
  return sections_[static_cast<std::size_t>(i)].v;
}

std::vector<SectionId> RlcTree::topological_order() const {
  std::vector<SectionId> order(sections_.size());
  for (std::size_t i = 0; i < sections_.size(); ++i) order[i] = static_cast<SectionId>(i);
  return order;
}

std::vector<SectionId> RlcTree::leaves() const {
  std::vector<SectionId> out;
  for (std::size_t i = 0; i < sections_.size(); ++i) {
    if (children_[i].empty()) out.push_back(static_cast<SectionId>(i));
  }
  return out;
}

int RlcTree::level(SectionId i) const {
  check_id(i);
  int lvl = 0;
  for (SectionId cur = i; cur != kInput; cur = sections_[static_cast<std::size_t>(cur)].parent) {
    ++lvl;
  }
  return lvl;
}

int RlcTree::depth() const {
  // Single forward scan: ids are parent-before-child, so each section's
  // level is its parent's plus one. (A per-leaf level() walk would be
  // O(n·depth) — quadratic on a line tree.)
  int d = 0;
  std::vector<int> lvl(sections_.size());
  for (std::size_t i = 0; i < sections_.size(); ++i) {
    const SectionId p = sections_[i].parent;
    lvl[i] = p == kInput ? 1 : lvl[static_cast<std::size_t>(p)] + 1;
    d = std::max(d, lvl[i]);
  }
  return d;
}

std::vector<SectionId> RlcTree::path_from_input(SectionId i) const {
  check_id(i);
  std::vector<SectionId> path;
  for (SectionId cur = i; cur != kInput; cur = sections_[static_cast<std::size_t>(cur)].parent) {
    path.push_back(cur);
  }
  std::reverse(path.begin(), path.end());
  return path;
}

double RlcTree::total_capacitance() const {
  double c = 0.0;
  for (const Section& s : sections_) c += s.v.capacitance;
  return c;
}

SectionId RlcTree::find_by_name(const std::string& name) const {
  for (std::size_t i = 0; i < sections_.size(); ++i) {
    if (sections_[i].name == name) return static_cast<SectionId>(i);
  }
  return kInput;
}

}  // namespace relmore::circuit
