#include "relmore/eed/model.hpp"

#include <algorithm>
#include <cmath>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace relmore::eed {

using circuit::RlcTree;
using circuit::SectionId;
using util::ErrorCode;
using util::FaultPolicy;

namespace {

/// Fault classification of one node's computed moments. Uses the single
/// composite predicate `valid_element_value` so NaN (all comparisons
/// false) registers as non-finite.
std::uint8_t classify(double sum_rc, double sum_lc, double ctot) {
  std::uint8_t flags = kFaultNone;
  for (const double v : {sum_rc, sum_lc, ctot}) {
    if (util::valid_element_value(v)) continue;
    flags |= std::isnan(v) || std::isinf(v) ? kFaultNonFiniteMoment : kFaultNegativeMoment;
  }
  return flags;
}

/// Where the passes keep their per-node sums. The full analysis writes
/// them into the TreeModel it returns and applies eqs. 29–30 as it goes;
/// the node-selective one keeps them in caller scratch and applies
/// eqs. 29–30 afterwards, at the requested nodes only. Both stores hold
/// the same values, so the two entries agree to the bit.
struct ModelStore {
  double* ctot;
  NodeModel* nodes;
  [[nodiscard]] double& sum_rc(std::size_t i) const { return nodes[i].sum_rc; }
  [[nodiscard]] double& sum_lc(std::size_t i) const { return nodes[i].sum_lc; }
  void finish(std::size_t i) const { nodes[i] = node_model(nodes[i].sum_rc, nodes[i].sum_lc); }
};

struct ScratchStore {
  double* ctot;
  double* rc;
  double* lc;
  [[nodiscard]] double& sum_rc(std::size_t i) const { return rc[i]; }
  [[nodiscard]] double& sum_lc(std::size_t i) const { return lc[i]; }
  void finish(std::size_t /*i*/) const {}
};

/// The detection verdict the downward pass accumulates in-flight: `lowest`
/// is the running min over every SR/SL/Ctot (catches negatives), `poison`
/// is Σ SR·0 + SL·0 (0.0 on an all-finite model, NaN otherwise — a min
/// alone would let NaN slide through, since every comparison against NaN
/// is false; and a non-finite Ctot always poisons that node's SR, so the
/// two moment terms suffice). Accumulating inside the existing downward
/// pass costs nothing measurable — the detection ops are independent of
/// the per-node sqrt/divide latency chain — and never touches the model
/// arithmetic, keeping healthy results bitwise-unchanged.
struct GuardVerdict {
  double lowest = 0.0;
  double poison = 0.0;
  [[nodiscard]] bool healthy() const { return lowest >= 0.0 && !std::isnan(poison); }
};

/// The one copy of the two-pass arithmetic (paper Appendix, Figs. 17–18),
/// shared by every scalar entry point. `store.ctot` holds each section's
/// C on entry and its subtree capacitance on exit.
template <typename Store>
GuardVerdict moment_passes(std::size_t n, const SectionId* parent, const double* r,
                           const double* l, const Store& store) {
  double* ctot = store.ctot;
  // Upward pass (Fig. 17): total load capacitance per section. Children
  // have larger ids than parents, so one reverse scan suffices.
  // relmore-lint: begin-hot-loop(eed-upward)
  for (std::size_t i = n; i-- > 0;) {
    if (parent[i] != circuit::kInput) ctot[static_cast<std::size_t>(parent[i])] += ctot[i];
  }
  // relmore-lint: end-hot-loop

  // Downward pass (Fig. 18): SR_i = SR_parent + R_i·Ctot_i and
  // SL_i = SL_parent + L_i·Ctot_i — the two multiplications per section.
  // `lowest`/`poison` piggy-back the guard detection (see GuardVerdict);
  // they read the freshly computed sums and write nothing back.
  double lowest = 0.0;
  double poison = 0.0;
  // relmore-lint: begin-hot-loop(eed-downward)
  for (std::size_t i = 0; i < n; ++i) {
    const SectionId p = parent[i];
    const double sr_up = p == circuit::kInput ? 0.0 : store.sum_rc(static_cast<std::size_t>(p));
    const double sl_up = p == circuit::kInput ? 0.0 : store.sum_lc(static_cast<std::size_t>(p));
    double& sr = store.sum_rc(i);
    double& sl = store.sum_lc(i);
    sr = sr_up + r[i] * ctot[i];
    sl = sl_up + l[i] * ctot[i];
    lowest = std::min(lowest, std::min(sr, std::min(sl, ctot[i])));
    poison += sr * 0.0 + sl * 0.0;
    store.finish(i);
  }
  // relmore-lint: end-hot-loop
  return {lowest, poison};
}

/// The guard's slow path, run over every node once the verdict says
/// something is degenerate. Under kThrow it returns the first faulted
/// node's Status; otherwise it hands each faulted node to `flag(i, bits)`
/// and, under kClampAndFlag, clamps its degenerate values to the nearest
/// valid limit (SR, SL or Ctot -> 0: the RC/Elmore degenerate case,
/// ζ, ωn -> inf) and finishes the node again. kSkipAndFlag leaves the
/// poisoned values; the flag is the signal. Kept out of line: it is cold,
/// and inlined it would quadruple the kernel's code around the hot loop.
template <typename Store, typename Flag>
[[gnu::noinline]] util::Status guard_nodes(std::size_t n, const Store& store, FaultPolicy policy,
                                          const char* entry, Flag flag) {
  for (std::size_t i = 0; i < n; ++i) {
    double& sr = store.sum_rc(i);
    double& sl = store.sum_lc(i);
    double& ctot = store.ctot[i];
    const std::uint8_t flags = classify(sr, sl, ctot);
    if (flags == kFaultNone) continue;
    if (policy == FaultPolicy::kThrow) {
      return util::Status((flags & kFaultNonFiniteMoment) != 0 ? ErrorCode::kNonFiniteMoment
                                                               : ErrorCode::kNegativeMoment,
                          std::string(entry) + ": degenerate moments at node " +
                              std::to_string(i) + " (SR=" + std::to_string(sr) +
                              ", SL=" + std::to_string(sl) + ", Ctot=" + std::to_string(ctot) +
                              ")",
                          static_cast<int>(i));
    }
    flag(i, flags);
    if (policy == FaultPolicy::kClampAndFlag) {
      if (!util::valid_element_value(sr)) sr = 0.0;
      if (!util::valid_element_value(sl)) sl = 0.0;
      if (!util::valid_element_value(ctot)) ctot = 0.0;
      store.finish(i);
    }
  }
  return util::Status::ok();
}

/// The full scalar kernel over caller-supplied value arrays, writing into
/// a reused `model`. Every TreeModel entry point — analyze(RlcTree),
/// analyze(FlatTree), analyze_values, analyze_counting — runs it.
void analyze_arrays(std::size_t n, const SectionId* parent, const double* r, const double* l,
                    const double* c, TreeModel& model, FaultPolicy policy, const char* entry) {
  model.nodes.resize(n);
  model.load_capacitance.assign(c, c + n);
  model.fault_flags.clear();
  model.fault_count = 0;
  const ModelStore store{model.load_capacitance.data(), model.nodes.data()};
  if (moment_passes(n, parent, r, l, store).healthy()) return;
  model.fault_flags.assign(n, kFaultNone);
  util::Status fault = guard_nodes(n, store, policy, entry, [&](std::size_t i, std::uint8_t f) {
    model.fault_flags[i] = f;
    ++model.fault_count;
  });
  if (!fault.is_ok()) throw util::FaultError(std::move(fault));
}

/// analyze(RlcTree) and analyze_counting: gathers the sections' parent and
/// R/L/C into four contiguous arrays and runs the kernel. A full FlatTree
/// snapshot would also copy the names and compute levels and child counts.
TreeModel analyze_tree(const RlcTree& tree, FaultPolicy policy, const char* entry) {
  if (tree.empty()) throw std::invalid_argument("eed::analyze: empty tree");
  const std::size_t n = tree.size();
  std::vector<SectionId> parent(n);
  std::vector<double> r(n);
  std::vector<double> l(n);
  std::vector<double> c(n);
  for (std::size_t i = 0; i < n; ++i) {
    const circuit::Section& s = tree.sections()[i];
    parent[i] = s.parent;
    r[i] = s.v.resistance;
    l[i] = s.v.inductance;
    c[i] = s.v.capacitance;
  }
  TreeModel model;
  analyze_arrays(n, parent.data(), r.data(), l.data(), c.data(), model, policy, entry);
  return model;
}

}  // namespace

TreeModel analyze(const RlcTree& tree, const AnalyzeOptions& options) {
  return analyze_tree(tree, options.fault_policy, "eed::analyze");
}

TreeModel analyze(const circuit::FlatTree& tree, const AnalyzeOptions& options) {
  if (tree.empty()) throw std::invalid_argument("eed::analyze: empty tree");
  TreeModel model;
  analyze_arrays(tree.size(), tree.parent().data(), tree.resistance().data(),
                 tree.inductance().data(), tree.capacitance().data(), model,
                 options.fault_policy, "eed::analyze(FlatTree)");
  return model;
}

void analyze_values(const circuit::FlatTree& topology, const double* resistance,
                    const double* inductance, const double* capacitance, TreeModel& model,
                    const AnalyzeOptions& options) {
  if (topology.empty()) throw std::invalid_argument("eed::analyze_values: empty tree");
  analyze_arrays(topology.size(), topology.parent().data(), resistance, inductance, capacitance,
                 model, options.fault_policy, "eed::analyze_values");
}

namespace {

/// Shared catch logic for the _checked entries: FaultError already carries
/// a structured Status; the legacy empty-tree invalid_argument maps to
/// kInvalidArgument (the tree never reached the moment passes).
template <typename Tree>
util::Result<TreeModel> analyze_checked_impl(const Tree& tree, const AnalyzeOptions& options) {
  if (tree.empty()) {
    return util::Status(ErrorCode::kEmptyTree, "eed::analyze_checked: empty tree");
  }
  try {
    return analyze(tree, options);
  } catch (const util::FaultError& e) {
    return e.status();
  } catch (const std::invalid_argument& e) {
    return util::Status(ErrorCode::kInvalidArgument, e.what());
  }
}

}  // namespace

util::Result<TreeModel> analyze_checked(const RlcTree& tree, const AnalyzeOptions& options) {
  return analyze_checked_impl(tree, options);
}

util::Result<TreeModel> analyze_checked(const circuit::FlatTree& tree,
                                        const AnalyzeOptions& options) {
  return analyze_checked_impl(tree, options);
}

util::Result<std::size_t> analyze_nodes_checked(const circuit::FlatTree& tree,
                                                std::span<const SectionId> nodes,
                                                NodeModel* out, std::span<double> scratch,
                                                const AnalyzeOptions& options) {
  constexpr const char* kEntry = "eed::analyze_nodes_checked";
  const std::size_t n = tree.size();
  if (n == 0) return util::Status(ErrorCode::kEmptyTree, std::string(kEntry) + ": empty tree");
  if (scratch.size() < node_scratch_size(n)) {
    return util::Status(ErrorCode::kInvalidArgument,
                        std::string(kEntry) + ": scratch holds " +
                            std::to_string(scratch.size()) + " doubles, the tree needs " +
                            std::to_string(node_scratch_size(n)));
  }
  for (const SectionId node : nodes) {
    if (node < 0 || static_cast<std::size_t>(node) >= n) {
      return util::Status(ErrorCode::kInvalidArgument,
                          std::string(kEntry) + ": node " + std::to_string(node) +
                              " is outside the tree of " + std::to_string(n) + " sections",
                          node);
    }
  }
  const ScratchStore store{scratch.data(), scratch.data() + n, scratch.data() + 2 * n};
  std::copy_n(tree.capacitance().data(), n, store.ctot);
  std::size_t faulted = 0;
  if (!moment_passes(n, tree.parent().data(), tree.resistance().data(),
                     tree.inductance().data(), store)
           .healthy()) {
    util::Status fault = guard_nodes(n, store, options.fault_policy, kEntry,
                                     [&](std::size_t, std::uint8_t) { ++faulted; });
    if (!fault.is_ok()) return fault;
  }
  for (std::size_t k = 0; k < nodes.size(); ++k) {
    const auto i = static_cast<std::size_t>(nodes[k]);
    out[k] = node_model(store.rc[i], store.lc[i]);
  }
  return faulted;
}

CountedAnalysis analyze_counting(const RlcTree& tree, const AnalyzeOptions& options) {
  CountedAnalysis out;
  out.model = analyze_tree(tree, options.fault_policy, "eed::analyze_counting");
  out.stats.multiplications = 2 * static_cast<std::uint64_t>(tree.size());
  out.stats.nodes = tree.size();
  out.stats.faulted_nodes = out.model.fault_count;
  return out;
}

}  // namespace relmore::eed
