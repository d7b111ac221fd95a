#include "relmore/util/diagnostics.hpp"

namespace relmore::util {

const char* error_code_name(ErrorCode code) {
  switch (code) {
    case ErrorCode::kOk: return "ok";
    case ErrorCode::kEmptyTree: return "empty-tree";
    case ErrorCode::kInvalidParent: return "invalid-parent";
    case ErrorCode::kCycle: return "cycle";
    case ErrorCode::kDuplicateName: return "duplicate-name";
    case ErrorCode::kNegativeValue: return "negative-value";
    case ErrorCode::kNonFiniteValue: return "non-finite-value";
    case ErrorCode::kZeroTotalCapacitance: return "zero-total-capacitance";
    case ErrorCode::kSizeLimit: return "size-limit";
    case ErrorCode::kDepthLimit: return "depth-limit";
    case ErrorCode::kParseError: return "parse-error";
    case ErrorCode::kValueOutOfRange: return "value-out-of-range";
    case ErrorCode::kNonFiniteMoment: return "non-finite-moment";
    case ErrorCode::kNegativeMoment: return "negative-moment";
    case ErrorCode::kInvalidArgument: return "invalid-argument";
    case ErrorCode::kPrunedSection: return "pruned-section";
    case ErrorCode::kTransactionState: return "transaction-state";
    case ErrorCode::kDeadlineExceeded: return "deadline-exceeded";
    case ErrorCode::kCancelled: return "cancelled";
    case ErrorCode::kResourceExhausted: return "resource-exhausted";
    case ErrorCode::kInjectedFault: return "injected-fault";
  }
  return "unknown";
}

const char* fault_policy_name(FaultPolicy policy) {
  switch (policy) {
    case FaultPolicy::kThrow: return "throw";
    case FaultPolicy::kClampAndFlag: return "clamp-and-flag";
    case FaultPolicy::kSkipAndFlag: return "skip-and-flag";
  }
  return "unknown";
}

std::string Diagnostic::to_string() const {
  std::string out = warning ? "warning [" : "error [";
  out += error_code_name(code);
  out += "]";
  if (!net.empty()) out += " in net '" + net + "'";
  if (node >= 0) {
    out += " at node " + std::to_string(node);
    if (!path.empty()) out += " (" + path + ")";
  }
  if (line >= 0) out += " at line " + std::to_string(line);
  out += ": " + message;
  return out;
}

std::string Status::to_string() const {
  if (is_ok()) return "";
  std::string out = "[";
  out += error_code_name(code_);
  out += "]";
  if (!net_.empty()) out += " net '" + net_ + "'";
  if (node_ >= 0) out += " node " + std::to_string(node_);
  if (line_ >= 0) out += " line " + std::to_string(line_);
  out += ": " + message_;
  return out;
}

Status DiagnosticsReport::to_status() const {
  for (const Diagnostic& d : entries_) {
    if (!d.warning) {
      // The Status carries the code, node, line and net itself; its
      // message is the finding's own, so a Status built from a nested
      // reader's Status does not repeat the "error [code]" prefix.
      std::string message = d.path.empty() ? d.message : d.message + " (" + d.path + ")";
      return Status(d.code, std::move(message), d.node, d.line).with_net(d.net);
    }
  }
  return Status::ok();
}

std::string DiagnosticsReport::to_string() const {
  std::string out;
  for (const Diagnostic& d : entries_) {
    out += d.to_string();
    out += '\n';
  }
  return out;
}

}  // namespace relmore::util
