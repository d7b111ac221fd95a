#pragma once

/// \file diagnostics.hpp
/// Error taxonomy of the analysis pipeline: structured status codes with
/// node/line context, a `Result<T>` carrier for exception-free APIs, fault
/// policies for the numerical guardrails, and the multi-entry diagnostics
/// report produced by `circuit::validate`.
///
/// The pipeline ingests user-supplied netlists and parameter samples; the
/// failure modes are known in advance (malformed decks, NaN/Inf/negative
/// element values, degenerate moment sums, structural corruption), so each
/// gets a stable `ErrorCode` instead of a bare exception string. Layers
/// that historically threw keep throwing — `FaultError` derives from
/// `std::invalid_argument` so every existing `catch` site and test stays
/// valid — while new call sites can use the `Result`-returning entry
/// points and branch on codes.

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace relmore::util {

/// Stable machine-readable failure categories. Values are append-only;
/// `error_code_name` must be kept in sync.
enum class ErrorCode : std::uint8_t {
  kOk = 0,
  // --- structural (circuit::validate) -----------------------------------
  kEmptyTree,             ///< analysis entry fed a tree with no sections
  kInvalidParent,         ///< parent id out of range / not parent-before-child
  kCycle,                 ///< parent chain does not reach the input node
  kDuplicateName,         ///< two sections share a non-empty label
  // --- element values ----------------------------------------------------
  kNegativeValue,         ///< R, L, or C below zero
  kNonFiniteValue,        ///< R, L, or C is NaN or infinite
  kZeroTotalCapacitance,  ///< tree drives no load at all (warning)
  // --- resource limits ---------------------------------------------------
  kSizeLimit,             ///< section count above the configured ceiling
  kDepthLimit,            ///< tree depth above the configured ceiling
  // --- parsing -----------------------------------------------------------
  kParseError,            ///< malformed netlist/deck/value text
  kValueOutOfRange,       ///< magnitude does not fit in a double
  // --- runtime numerical faults (eed::analyze guardrails) ----------------
  kNonFiniteMoment,       ///< SR/SL/Ctot became NaN or Inf at some node
  kNegativeMoment,        ///< SL (or Ctot) went negative at some node
  // --- API usage ---------------------------------------------------------
  kInvalidArgument,       ///< generic bad call argument
  kPrunedSection,         ///< edit/query on a tombstoned section
  kTransactionState,      ///< a Timer::Edit handle used after its commit
  // --- run control (util::Deadline / util::CancelToken) -------------------
  kDeadlineExceeded,      ///< work stopped at a steady-clock deadline
  kCancelled,             ///< work stopped by a cooperative CancelToken
  // --- resource / injected failures --------------------------------------
  kResourceExhausted,     ///< allocation (arena/workspace) failure
  kInjectedFault,         ///< deterministic util::FaultInjector fire
};

/// Short stable name of a code ("non-finite-value", ...).
[[nodiscard]] const char* error_code_name(ErrorCode code);

/// How the numerical guardrails react to a detected fault.
enum class FaultPolicy : std::uint8_t {
  kThrow = 0,      ///< raise FaultError at the first faulted node/sample
  kClampAndFlag,   ///< clamp the degenerate value to its nearest valid
                   ///< limit (SL < 0 -> 0, non-finite -> 0), set the flag
  kSkipAndFlag,    ///< leave the computed value untouched, set the flag
};

[[nodiscard]] const char* fault_policy_name(FaultPolicy policy);

/// One finding: a code plus whatever context the producer had. `node` is a
/// circuit::SectionId when >= 0; `line` is a 1-based input line when >= 0;
/// `path` is the input->node section path ("s0/s3/O") when known; `net` is
/// the enclosing net or instance name when the finding came from a
/// design-level reader (corpus-scale fault reports are unusable without
/// it — "node 3" means nothing across 10^5 nets).
struct Diagnostic {
  ErrorCode code = ErrorCode::kOk;
  std::string message;
  int node = -1;
  int line = -1;
  std::string path;
  std::string net;       ///< enclosing net/instance name, when known
  bool warning = false;  ///< advisory only; never fails a validation

  /// "error [negative-value] in net 'clk0' at node 3 (s0/s3): ..." — one line.
  [[nodiscard]] std::string to_string() const;
};

/// Success-or-failure of one operation, with code + context. Cheap to copy
/// on success (empty message).
class Status {
 public:
  Status() = default;
  Status(ErrorCode code, std::string message, int node = -1, int line = -1)
      : code_(code), message_(std::move(message)), node_(node), line_(line) {}

  [[nodiscard]] static Status ok() { return Status{}; }

  [[nodiscard]] bool is_ok() const { return code_ == ErrorCode::kOk; }
  [[nodiscard]] ErrorCode code() const { return code_; }
  [[nodiscard]] const std::string& message() const { return message_; }
  [[nodiscard]] int node() const { return node_; }
  [[nodiscard]] int line() const { return line_; }
  /// Enclosing net/instance name; empty when the failure has no design
  /// context (single-tree entry points).
  [[nodiscard]] const std::string& net() const { return net_; }

  /// Copy of this status tagged with a net/instance name (no-op on ok and
  /// on an already-tagged status — the innermost context wins).
  [[nodiscard]] Status with_net(const std::string& net) const {
    Status out = *this;
    if (!out.is_ok() && out.net_.empty()) out.net_ = net;
    return out;
  }

  /// "[parse-error] net 'clk0' line 4: ..." — one line, empty for ok.
  [[nodiscard]] std::string to_string() const;

 private:
  ErrorCode code_ = ErrorCode::kOk;
  std::string message_;
  int node_ = -1;
  int line_ = -1;
  std::string net_;
};

/// Structured exception shim: carries the Status of the failure while
/// remaining a std::invalid_argument, so pre-existing catch sites (and the
/// documented throwing contracts) keep working unchanged.
class FaultError : public std::invalid_argument {
 public:
  explicit FaultError(Status status)
      : std::invalid_argument(status.to_string()), status_(std::move(status)) {}

  [[nodiscard]] const Status& status() const { return status_; }
  [[nodiscard]] ErrorCode code() const { return status_.code(); }
  [[nodiscard]] int node() const { return status_.node(); }

 private:
  Status status_;
};

/// Value-or-Status. `value()` on a failed result throws the FaultError
/// shim; check `is_ok()` (or use `value_or`) on untrusted input paths.
template <typename T>
class Result {
 public:
  Result(T value) : value_(std::move(value)) {}  // NOLINT(google-explicit-constructor)
  Result(Status status) : status_(std::move(status)) {}  // NOLINT

  [[nodiscard]] bool is_ok() const { return value_.has_value(); }
  [[nodiscard]] const Status& status() const { return status_; }

  [[nodiscard]] const T& value() const& {
    require();
    return *value_;
  }
  [[nodiscard]] T&& value() && {
    require();
    return std::move(*value_);
  }
  [[nodiscard]] T value_or(T fallback) const {
    return value_.has_value() ? *value_ : std::move(fallback);
  }

 private:
  void require() const {
    if (!value_.has_value()) throw FaultError(status_);
  }

  std::optional<T> value_;
  Status status_;  ///< ok when value_ is set
};

/// Everything a validation pass found, errors and warnings both.
class DiagnosticsReport {
 public:
  void add(Diagnostic d) {
    if (!d.warning) ++errors_;
    entries_.push_back(std::move(d));
  }

  [[nodiscard]] const std::vector<Diagnostic>& entries() const { return entries_; }
  [[nodiscard]] std::size_t error_count() const { return errors_; }
  [[nodiscard]] std::size_t warning_count() const { return entries_.size() - errors_; }
  /// True when no *errors* were found (warnings allowed).
  [[nodiscard]] bool is_ok() const { return errors_ == 0; }

  /// First error as a Status (ok() when the report is clean): its code,
  /// node, line and net, and its own message with " (<path>)" appended
  /// when it names one — not the rendered to_string() line, so a Status
  /// built from a nested reader's Status carries the finding once.
  [[nodiscard]] Status to_status() const;
  /// All entries, one line each.
  [[nodiscard]] std::string to_string() const;

 private:
  std::vector<Diagnostic> entries_;
  std::size_t errors_ = 0;
};

/// True for a finite, non-negative double — the validity predicate every
/// element-value guard in the pipeline uses. Written as a single composite
/// comparison so NaN (all comparisons false) fails it too.
[[nodiscard]] inline bool valid_element_value(double v) {
  return v >= 0.0 && v <= 1.7976931348623157e308;  // DBL_MAX
}

}  // namespace relmore::util
