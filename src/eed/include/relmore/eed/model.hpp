#pragma once

/// \file model.hpp
/// The Equivalent Elmore Delay model for RLC trees (the paper's core
/// contribution, Section III + Appendix).
///
/// Each node i of an RLC tree is characterized by two path/subtree sums
///
///   SR_i = sum_k C_k R_ki   (the classic Elmore time constant), and
///   SL_i = sum_k C_k L_ki   (its inductive analogue),
///
/// where R_ki (L_ki) is the resistance (inductance) common to the paths
/// from the input to nodes k and i. From these, the second-order
/// approximation at node i (paper eqs. 29–30) is
///
///   omega_n,i = 1/sqrt(SL_i),   zeta_i = SR_i / (2 sqrt(SL_i)).
///
/// Both sums for *all* nodes are computed with two O(n) traversals and
/// exactly two multiplications per section (paper Appendix, Figs. 17–18).

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "relmore/circuit/flat_tree.hpp"
#include "relmore/circuit/rlc_tree.hpp"
#include "relmore/util/diagnostics.hpp"

namespace relmore::eed {

/// Per-node / per-sample fault flag bits surfaced by the numerical
/// guardrails (TreeModel::fault_flags, engine::BatchedModels sample
/// flags). A flag marks a node whose *own* moments are degenerate; with a
/// poisoned value mid-tree the whole affected root path and subtree carry
/// flags, because the moment prefix sums propagate the poison.
enum AnalysisFault : std::uint8_t {
  kFaultNone = 0,
  kFaultBadInput = 1,          ///< input R/L/C was NaN, Inf, or negative
  kFaultNonFiniteMoment = 2,   ///< SR/SL/Ctot became NaN or Inf
  kFaultNegativeMoment = 4,    ///< SR/SL/Ctot went negative
  kFaultNotRun = 8,            ///< sample skipped: deadline/cancel stop
};

/// Guardrail configuration for analyze(): what to do when a node's moment
/// sums come out non-finite or negative (a NaN/Inf/negative element value
/// slipped into the tree, or the sums overflowed). See
/// util::FaultPolicy: kThrow raises util::FaultError at the first faulted
/// node; kClampAndFlag clamps the degenerate moments to 0 (the RC/Elmore
/// limit) and records flags; kSkipAndFlag records flags and leaves the
/// poisoned values for the caller to inspect.
struct AnalyzeOptions {
  util::FaultPolicy fault_policy = util::FaultPolicy::kThrow;
};

/// Second-order characterization of one tree node.
struct NodeModel {
  double sum_rc = 0.0;   ///< SR_i = sum C_k R_ki [s] — the Elmore delay T_D,i
  double sum_lc = 0.0;   ///< SL_i = sum C_k L_ki [s^2]
  double zeta = 0.0;     ///< damping factor (eq. 29); +inf for pure-RC nodes
  double omega_n = 0.0;  ///< natural frequency [rad/s] (eq. 30); +inf for SL=0

  /// True when the node's response is underdamped (non-monotone).
  [[nodiscard]] bool underdamped() const { return zeta < 1.0; }
};

/// Paper eqs. 29–30: the second-order model of one node from its moment
/// sums. A node with SL = 0 (pure RC) takes the Elmore/Wyatt single-pole
/// limit, zeta = omega_n = +inf. Every producer of a NodeModel — the
/// scalar kernel, its clamp guard, TimingEngine and BatchedModels — goes
/// through this one closed form, so all of them agree to the bit.
[[nodiscard]] inline NodeModel node_model(double sum_rc, double sum_lc) {
  NodeModel nm;
  nm.sum_rc = sum_rc;
  nm.sum_lc = sum_lc;
  if (sum_lc > 0.0) {
    const double root = std::sqrt(sum_lc);
    nm.omega_n = 1.0 / root;
    nm.zeta = sum_rc / (2.0 * root);
  } else {
    nm.omega_n = std::numeric_limits<double>::infinity();
    nm.zeta = std::numeric_limits<double>::infinity();
  }
  return nm;
}

/// Per-tree analysis result.
struct TreeModel {
  std::vector<NodeModel> nodes;  ///< indexed by SectionId
  /// Downstream (subtree) capacitance seen by each section — the upward
  /// pass of the Appendix algorithm, exposed because wire sizing and buffer
  /// insertion reuse it.
  std::vector<double> load_capacitance;
  /// AnalysisFault bits per node. Empty (the common case) when the whole
  /// tree analyzed fault-free; sized like `nodes` otherwise.
  std::vector<std::uint8_t> fault_flags;
  std::size_t fault_count = 0;  ///< nodes with any fault bit set

  [[nodiscard]] const NodeModel& at(circuit::SectionId i) const {
    return nodes.at(static_cast<std::size_t>(i));
  }
  [[nodiscard]] bool fault_free() const { return fault_count == 0; }
  [[nodiscard]] bool faulted(circuit::SectionId i) const {
    return !fault_flags.empty() && fault_flags.at(static_cast<std::size_t>(i)) != kFaultNone;
  }
};

/// Analyzes every node of the tree in O(n) (two traversals). The passes
/// run unguarded (results on a healthy tree are bitwise-unchanged); one
/// trailing guard sweep detects non-finite or negative moments and applies
/// `options.fault_policy` (default: throw util::FaultError with node
/// context — no silent NaN propagation). The tree's parent and R/L/C
/// values are gathered into contiguous arrays and run through the same
/// kernel as the FlatTree overload, so the two are bitwise-equal.
TreeModel analyze(const circuit::RlcTree& tree, const AnalyzeOptions& options = {});

/// Same analysis over a FlatTree snapshot: the one scalar kernel reads the
/// snapshot's SoA value arrays directly, with no gather. This is the
/// scalar fast path the batched kernels (engine::BatchedAnalyzer)
/// generalize to many samples.
TreeModel analyze(const circuit::FlatTree& tree, const AnalyzeOptions& options = {});

/// Re-analyzes one set of element values over a fixed FlatTree topology,
/// writing into a caller-owned `model` (resized as needed, allocation-free
/// once warm). `resistance`/`inductance`/`capacitance` are arrays of
/// length `topology.size()`; the topology's own stored values are
/// ignored. This is the sweep-loop form of analyze(FlatTree): when the
/// same tree is re-analyzed with many value sets (parameter sweeps, the
/// scalar baseline of bench/batched_throughput), it skips the per-call
/// FlatTree rebuild and result allocation while staying bitwise-equal to
/// analyze(FlatTree) on a tree holding those values.
void analyze_values(const circuit::FlatTree& topology, const double* resistance,
                    const double* inductance, const double* capacitance, TreeModel& model,
                    const AnalyzeOptions& options = {});

/// Result-returning forms of analyze() — same arithmetic, same fault
/// policies, but an empty tree or a kThrow-policy fault comes back as a
/// structured Status instead of an exception. These are the entry points
/// the corpus layer (sta::analyze_corpus_checked) and other callers that
/// must not unwind across worker threads use; the throwing overloads above
/// remain the exception-compatible shims.
[[nodiscard]] util::Result<TreeModel> analyze_checked(const circuit::RlcTree& tree,
                                                      const AnalyzeOptions& options = {});
[[nodiscard]] util::Result<TreeModel> analyze_checked(const circuit::FlatTree& tree,
                                                      const AnalyzeOptions& options = {});

/// Cost accounting of one whole-tree analysis.
struct AnalyzeStats {
  std::uint64_t multiplications = 0;  ///< multiplies in the moment sums, 2 per section
  std::size_t nodes = 0;              ///< sections analyzed
  std::size_t faulted_nodes = 0;      ///< nodes the guard sweep flagged
};

/// Model plus its cost accounting, as analyze_counting returns them.
struct CountedAnalysis {
  TreeModel model;
  AnalyzeStats stats;
};

/// analyze() plus its cost accounting. The moment sums spend exactly two
/// multiplications per section (R_i·Ctot_i and L_i·Ctot_i, paper
/// Appendix), so `multiplications` is that constant times the section
/// count, read off the kernel rather than counted at run time.
CountedAnalysis analyze_counting(const circuit::RlcTree& tree,
                                 const AnalyzeOptions& options = {});

}  // namespace relmore::eed
