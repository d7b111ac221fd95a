#pragma once

/// \file timer.hpp
/// The top-level façade of the library: load a design corpus, time it,
/// query slack, report worst paths — four Result-returning calls.
///
///     relmore::Timer timer;
///     if (util::Status s = timer.load(file); !s.is_ok()) { ... }
///     auto summary = timer.analyze();
///     auto paths = timer.report_worst_paths(3);
///     auto slack = timer.slack("out0");
///
/// Every entry point returns util::Status / util::Result<T> — the
/// `_checked` convention the per-module APIs follow, with the exception
/// shims dropped: a chip-scale flow has no sensible place to catch, so
/// the façade is Result-only by design. The Timer owns its Design behind
/// a stable pointer, so moving the Timer never invalidates the analysis
/// state. Next to the design it keeps, built once per load, the
/// sta::TimingGraph every analyze() and commit runs on. Recording an edit
/// or asking a slack resolves names through the design's own name tables
/// (Design::find_net, find_instance, find_port): one hash probe each.

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "relmore/sta/sta.hpp"
#include "relmore/util/diagnostics.hpp"

namespace relmore {

/// One design, loaded once, analyzed on demand. Queries (`slack`,
/// `report_worst_paths`, `report_timing`) run `analyze()` lazily when the
/// design has not been timed yet, and reuse the cached result otherwise.
class Timer {
 public:
  Timer();
  ~Timer();
  Timer(Timer&&) noexcept;
  Timer& operator=(Timer&&) noexcept;
  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;

  /// Parses + finalizes a corpus stream (see sta/design.hpp for the
  /// format). Replaces any previously loaded design and drops its cached
  /// analysis. `report`, when given, collects every finding.
  [[nodiscard]] util::Status load(std::istream& is,
                                  sta::CellLibrary library = sta::generic_library(),
                                  util::DiagnosticsReport* report = nullptr);

  /// Adopts an already-built design (e.g. sta::make_synthetic_design_checked).
  /// Edits and slack queries find names through the design's own tables,
  /// which sta::read_design_checked writes.
  [[nodiscard]] util::Status load(sta::Design design);

  /// Times the loaded design; caches and returns the summary. `options`
  /// tunes execution only — results are bitwise-independent of it. An
  /// analysis stopped by `options.deadline` / `options.cancel` is kept
  /// queryable (completed cones are exact) but is NOT treated as cached:
  /// the next analyze()/query re-runs it, so a transient deadline never
  /// pins a partial result for the Timer's lifetime.
  [[nodiscard]] util::Result<sta::TimingSummary> analyze(const sta::AnalyzeOptions& options = {});

  /// Slack of endpoint (output port) `endpoint`, timing the design first
  /// if needed.
  [[nodiscard]] util::Result<double> slack(const std::string& endpoint);

  /// The `k` worst constrained paths, report_timing-style.
  [[nodiscard]] util::Result<std::vector<sta::PathReport>> report_worst_paths(std::size_t k = 1);

  /// Formats the summary plus the `k` worst paths into `os`. Returns the
  /// Status of the underlying analysis.
  [[nodiscard]] util::Status report_timing(std::ostream& os, std::size_t k = 1);

  [[nodiscard]] bool loaded() const { return loaded_ != nullptr; }
  /// nullptr until load() succeeds.
  [[nodiscard]] const sta::Design* design() const;
  /// nullptr until analyze() succeeds.
  [[nodiscard]] const sta::TimingResult* result() const;

  // --- what-if edits -------------------------------------------------------

  /// How a committed edit transaction re-timed the design.
  struct EditOutcome {
    /// True: the cached analysis was re-timed in place through the dirty
    /// cones (sta::TimingGraph::update_checked) and is bitwise-equal to a
    /// from-scratch analyze of the edited design. False: the cached
    /// analysis (if any) was dropped; the next analyze()/query runs full.
    bool incremental = false;
    /// Cone-work accounting when `incremental`; when the pass was stopped
    /// by a deadline/cancel, `stats.stop_status` is non-ok, `incremental`
    /// is false, and the partial result was discarded (the *design* edit
    /// is committed either way).
    sta::UpdateStats stats;
  };

  class Edit;

  /// Opens a what-if edit transaction. Record edits on the handle, then
  /// `commit()` to apply them atomically: the commit stages and validates
  /// every new section value before it writes any, so a failing edit
  /// leaves the design untouched (strong guarantee). What a commit costs:
  /// the edited nets (each re-snapshot into its own arrays and re-analyzed
  /// whole — a few sections in a typical net), the dirty cones, and the
  /// endpoint rows on them. In the forward cone only the edited nets and
  /// the nets whose driver slew moved solve their wire stages; every other
  /// net keeps its stage delays and tap slews and moves its arrivals. A
  /// moved row swaps its old TNS term for its new one in the exact sum,
  /// which is read once, so TNS costs the moved rows, not the TNS terms.
  /// The only per-net work is clearing one dirty-flag byte per net (see
  /// sta::TimingGraph::update_checked). An abandoned handle applies
  /// nothing. One commit per handle; at most one handle should be open at
  /// a time (the Timer serializes nothing).
  [[nodiscard]] Edit edit();

  /// The persistent per-net analysis cache analyze() feeds (when the
  /// caller does not plug its own into AnalyzeOptions::cache) and
  /// committed edits restamp. Exposed for inspection/tests.
  [[nodiscard]] const sta::CorpusCache& cache() const { return cache_; }

 private:
  /// The design and its timing graph, one heap object (timer.cpp).
  struct Loaded;

  [[nodiscard]] util::Status ensure_analyzed();
  [[nodiscard]] util::Result<EditOutcome> commit_edit(Edit& edit,
                                                      const sta::AnalyzeOptions& options);

  std::unique_ptr<Loaded> loaded_;             ///< stable address across moves
  std::optional<sta::TimingResult> result_;
  sta::AnalyzeOptions options_;
  sta::CorpusCache cache_;                     ///< injected into analyze()
};

/// One what-if edit transaction (Timer::edit()). Ops validate their
/// arguments at record time — an op that returns a non-ok Status recorded
/// nothing — and commit() applies the recorded sequence in order. The
/// handle must not outlive its Timer or the loaded design (commit checks
/// both and fails cleanly on a swap).
class Timer::Edit {
 public:
  /// Sets net `net`'s section `section` to raw wire values `wire` (finite,
  /// non-negative; SI units). The node's effective shunt C becomes
  /// `wire.capacitance` plus the folded input-pin caps of every instance
  /// tapping that node (the finalize fold, re-derived against any cell
  /// swaps recorded earlier in this transaction).
  [[nodiscard]] util::Status set_net_section_values(const std::string& net,
                                                    const std::string& section,
                                                    const circuit::SectionValues& wire);

  /// Swaps instance `instance` to library cell `cell`: arc tables change,
  /// and the pin-cap delta is folded into every input tap node.
  [[nodiscard]] util::Status set_cell(const std::string& instance, const std::string& cell);

  /// Sets output port `port`'s required time (it no longer falls back to
  /// the clock period).
  [[nodiscard]] util::Status set_port_required(const std::string& port, double required);

  /// Retargets the design clock period (>= 0; 0 = unconstrained fallback).
  [[nodiscard]] util::Status set_clock_period(double period);

  /// Applies the recorded ops. On success the design is mutated (epoch
  /// bumped, edited nets re-snapshot in place, their cache slots restamped
  /// with sta::analyze_net, the corpus phase's own per-net step) and the
  /// cached analysis — when one exists — is incrementally re-timed through the
  /// dirty cones, falling back to dropping it when the cones cannot be
  /// served from the cache. On error the design and analysis are exactly
  /// as before. Either way the handle is consumed. `options` controls
  /// execution (deadline/cancel polled at cone frontiers) and, as
  /// everywhere, never changes a result bit; the zero-argument form uses
  /// the options of the last analyze().
  [[nodiscard]] util::Result<EditOutcome> commit();
  [[nodiscard]] util::Result<EditOutcome> commit(const sta::AnalyzeOptions& options);

  /// Recorded (validated) ops not yet committed.
  [[nodiscard]] std::size_t pending() const { return ops_.size(); }

 private:
  friend class Timer;
  enum class OpKind : std::uint8_t { kValue, kCell, kPort, kClock };
  struct Op {
    OpKind kind = OpKind::kValue;
    int net = -1;                  ///< kValue
    circuit::SectionId section = circuit::kInput;
    circuit::SectionValues wire;
    int instance = -1;             ///< kCell
    int cell = -1;
    int port = -1;                 ///< kPort
    double value = 0.0;            ///< kPort required / kClock period
  };

  Edit(Timer* timer, const Loaded* loaded, std::uint64_t epoch)
      : timer_(timer), loaded_(loaded), epoch_(epoch) {}

  Timer* timer_ = nullptr;
  const Loaded* loaded_ = nullptr;       ///< design the ops were validated against
  std::uint64_t epoch_ = 0;              ///< its epoch at edit() time
  std::vector<Op> ops_;
  bool done_ = false;
};

}  // namespace relmore
