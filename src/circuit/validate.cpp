#include "relmore/circuit/validate.hpp"

#include <cmath>

#include "relmore/util/name_index.hpp"

namespace relmore::circuit {

namespace {

using util::Diagnostic;
using util::DiagnosticsReport;
using util::ErrorCode;

std::string label_of(const std::string& name, std::size_t id) {
  return name.empty() ? std::to_string(id) : name;
}

Diagnostic make(ErrorCode code, std::string message, int node = -1) {
  Diagnostic d;
  d.code = code;
  d.message = std::move(message);
  d.node = node;
  return d;
}

/// Shared core over the two storage layouts. `Access` provides n(),
/// parent(i), r/l/c(i), name(i).
template <typename Access>
DiagnosticsReport validate_impl(const Access& a, const ValidateLimits& limits) {
  DiagnosticsReport report;
  const std::size_t n = a.n();
  if (n == 0) {
    report.add(make(ErrorCode::kEmptyTree, "tree has no sections"));
    return report;
  }
  if (n > limits.max_sections) {
    report.add(make(ErrorCode::kSizeLimit,
                    "tree has " + std::to_string(n) + " sections (limit " +
                        std::to_string(limits.max_sections) + ")"));
    return report;  // don't scan a tree we already refuse to process
  }

  // Structure: parents must be kInput or an earlier id. Parent-before-child
  // ordering is what makes the two-sweep kernels correct; an id >= i (or a
  // self-parent) would also close a cycle, so both report as structural.
  bool structure_ok = true;
  for (std::size_t i = 0; i < n; ++i) {
    const SectionId p = a.parent(i);
    if (p == kInput) continue;
    if (p < 0 || static_cast<std::size_t>(p) >= n) {
      report.add(make(ErrorCode::kInvalidParent,
                      "parent id " + std::to_string(p) + " out of range",
                      static_cast<int>(i)));
      structure_ok = false;
    } else if (static_cast<std::size_t>(p) >= i) {
      report.add(make(
          static_cast<std::size_t>(p) == i ? ErrorCode::kCycle : ErrorCode::kInvalidParent,
          static_cast<std::size_t>(p) == i
              ? "section is its own parent"
              : "parent id " + std::to_string(p) +
                    " does not precede child (cycle or corrupted order)",
          static_cast<int>(i)));
      structure_ok = false;
    }
  }

  // Depth (only meaningful on sound structure).
  if (structure_ok) {
    std::vector<int> level(n);
    int depth = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const SectionId p = a.parent(i);
      level[i] = p == kInput ? 1 : level[static_cast<std::size_t>(p)] + 1;
      if (level[i] > depth) depth = level[i];
    }
    if (depth > limits.max_depth) {
      report.add(make(ErrorCode::kDepthLimit,
                      "tree depth " + std::to_string(depth) + " exceeds limit " +
                          std::to_string(limits.max_depth)));
    }
  }

  // Duplicate non-empty names (readers key parents by name).
  {
    util::NameIndex first;
    first.reserve(n);
    const auto name_of = [&a](int i) -> const std::string& {
      return a.name(static_cast<std::size_t>(i));
    };
    for (std::size_t i = 0; i < n; ++i) {
      const std::string& name = a.name(i);
      if (name.empty()) continue;
      const int at = first.insert(name, static_cast<int>(i), name_of);
      if (at != static_cast<int>(i)) {
        Diagnostic d = make(ErrorCode::kDuplicateName,
                            "name '" + name + "' already used by section " + std::to_string(at),
                            static_cast<int>(i));
        d.path = a.path(i, structure_ok);
        report.add(std::move(d));
      }
    }
  }

  // Element values: finite and non-negative, reported per offending node
  // with its path. Total capacitance accumulated on the side.
  double total_c = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double vals[3] = {a.r(i), a.l(i), a.c(i)};
    static const char* const kNames[3] = {"resistance", "inductance", "capacitance"};
    for (int k = 0; k < 3; ++k) {
      const double v = vals[k];
      if (util::valid_element_value(v)) continue;
      Diagnostic d;
      d.code = std::isnan(v) || std::isinf(v) ? ErrorCode::kNonFiniteValue
                                              : ErrorCode::kNegativeValue;
      d.message = std::string(kNames[k]) + " = " + std::to_string(v);
      d.node = static_cast<int>(i);
      d.path = a.path(i, structure_ok);
      report.add(std::move(d));
    }
    const double c = vals[2];
    if (util::valid_element_value(c)) total_c += c;
  }
  if (total_c == 0.0) {
    Diagnostic d = make(ErrorCode::kZeroTotalCapacitance,
                        "tree has zero total capacitance (drives no load)");
    d.warning = true;
    report.add(std::move(d));
  }
  return report;
}

struct RlcAccess {
  const RlcTree& t;
  [[nodiscard]] std::size_t n() const { return t.size(); }
  [[nodiscard]] SectionId parent(std::size_t i) const {
    return t.section(static_cast<SectionId>(i)).parent;
  }
  [[nodiscard]] double r(std::size_t i) const {
    return t.section(static_cast<SectionId>(i)).v.resistance;
  }
  [[nodiscard]] double l(std::size_t i) const {
    return t.section(static_cast<SectionId>(i)).v.inductance;
  }
  [[nodiscard]] double c(std::size_t i) const {
    return t.section(static_cast<SectionId>(i)).v.capacitance;
  }
  [[nodiscard]] const std::string& name(std::size_t i) const {
    return t.section(static_cast<SectionId>(i)).name;
  }
  [[nodiscard]] std::string path(std::size_t i, bool structure_ok) const {
    if (!structure_ok) return label_of(name(i), i);
    return node_path(t, static_cast<SectionId>(i));
  }
};

struct FlatAccess {
  const FlatTree& t;
  [[nodiscard]] std::size_t n() const { return t.size(); }
  [[nodiscard]] SectionId parent(std::size_t i) const { return t.parent()[i]; }
  [[nodiscard]] double r(std::size_t i) const { return t.resistance()[i]; }
  [[nodiscard]] double l(std::size_t i) const { return t.inductance()[i]; }
  [[nodiscard]] double c(std::size_t i) const { return t.capacitance()[i]; }
  [[nodiscard]] const std::string& name(std::size_t i) const { return t.names()[i]; }
  [[nodiscard]] std::string path(std::size_t i, bool structure_ok) const {
    if (!structure_ok) return label_of(name(i), i);
    std::string out;
    // Root-end-first: collect the chain then reverse by prepending.
    for (SectionId cur = static_cast<SectionId>(i); cur != kInput;
         cur = t.parent()[static_cast<std::size_t>(cur)]) {
      const auto ci = static_cast<std::size_t>(cur);
      const std::string label = label_of(t.names()[ci], ci);
      out = out.empty() ? label : label + "/" + out;
    }
    return out;
  }
};

}  // namespace

std::string node_path(const RlcTree& tree, SectionId id) {
  std::string out;
  for (SectionId cur = id; cur != kInput;
       cur = tree.section(cur).parent) {
    const auto ci = static_cast<std::size_t>(cur);
    const std::string label = label_of(tree.section(cur).name, ci);
    out = out.empty() ? label : label + "/" + out;
  }
  return out;
}

util::DiagnosticsReport validate(const RlcTree& tree, const ValidateLimits& limits) {
  return validate_impl(RlcAccess{tree}, limits);
}

util::DiagnosticsReport validate(const FlatTree& tree, const ValidateLimits& limits) {
  return validate_impl(FlatAccess{tree}, limits);
}

}  // namespace relmore::circuit
