#pragma once

/// \file timing_graph.hpp
/// Static timing over a Design: gate→net→gate stages, levelized arrival
/// and slew propagation, required-time back-propagation, per-endpoint
/// slack, and worst-path extraction with a report_timing-style formatter.
///
/// Semantics (the STA conventions, documented in docs/sta.md):
///  - wire stage: each tap of a net sees the EED closed form of its tree
///    node driven by the driver's 10-90% slew (opt::time_stage — ideal
///    step when the slew is 0); tap arrival = driver arrival + stage
///    delay, tap slew = the stage's 10-90% output rise.
///  - cell stage: instance output arrival = max over input pins of
///    (pin arrival + delay table(pin slew, output net load)); the winning
///    pin also supplies the output slew lookup. Loads are the driven
///    net's total capacitance with every sink pin cap folded in.
///  - endpoints: output ports. required = the port's `required=` when
///    given, else the design clock period; endpoints with neither are
///    unconstrained and excluded from WNS/TNS.
///  - required times propagate backward (min over fanout), so every
///    timing point carries a slack, not just endpoints.
///
/// The moment phase runs through analyze_corpus_checked, so the whole
/// analysis inherits its bitwise thread-count independence; the
/// propagation itself is a sequential sweep over Design::topo_nets.
/// Faulted nets are skipped and poison only their own fanout cone: every
/// endpoint fed by one reports `timed == false` instead of a fake number.

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

#include "relmore/sta/corpus.hpp"
#include "relmore/sta/design.hpp"
#include "relmore/util/diagnostics.hpp"

namespace relmore::sta {

/// Timing state of one point (a net driver or one net tap).
struct PointTiming {
  bool timed = false;        ///< false: untimed (fault cone or unreached)
  double arrival = 0.0;      ///< [s]
  double slew = 0.0;         ///< 10-90% edge rate [s]
  double required = 0.0;     ///< [s]; +inf when unconstrained
  bool constrained = false;  ///< required reachable from a constrained endpoint
};

/// Per-net timing: the driving point plus one entry per tap.
struct NetTiming {
  PointTiming driver;
  std::vector<PointTiming> taps;    ///< parallel to Net::taps
  std::vector<double> wire_delay;   ///< driver -> tap stage delay, per tap
  bool faulted = false;             ///< moments unavailable (faulted or not run)
};

/// One endpoint's summary row.
struct EndpointSlack {
  int port = -1;          ///< index into Design::ports
  std::string name;
  bool timed = false;
  bool constrained = false;
  double arrival = 0.0;
  double required = 0.0;
  double slack = 0.0;     ///< required - arrival
};

/// Design-wide summary.
struct TimingSummary {
  double wns = 0.0;  ///< worst negative slack (most negative slack; >= 0 = met)
  double tns = 0.0;  ///< total negative slack (sum of negative slacks)
  std::size_t endpoints = 0;
  std::size_t constrained_endpoints = 0;
  std::size_t untimed_endpoints = 0;  ///< endpoints in a faulted fanout cone
  std::size_t faulted_nets = 0;
  std::size_t incomplete_nets = 0;    ///< corpus nets not analyzed: deadline/cancel
  std::size_t cache_hits = 0;         ///< corpus nets served by AnalyzeOptions::cache
  std::size_t cache_misses = 0;       ///< corpus nets the cache could not serve
  std::vector<EndpointSlack> endpoints_by_slack;  ///< ascending slack
};

/// Full analysis result; the input to slack queries and path extraction.
struct TimingResult {
  TimingSummary summary;
  std::vector<NetTiming> nets;       ///< indexed like Design::nets
  std::vector<int> winning_input;    ///< per instance: arrival-setting pin, -1 = none
  /// Non-ok when corpus analysis stopped at a deadline/cancellation
  /// (kDeadlineExceeded / kCancelled). Completed cones are still timed
  /// bitwise-identically to an uninterrupted run; nets the stop left
  /// unanalyzed are treated like faulted nets (their cones untimed).
  util::Status stop_status;
  /// Corpus-phase record: per-name errors for faulted nets, warnings for
  /// incomplete nets and recovered transients (see corpus.hpp).
  util::DiagnosticsReport diagnostics;
};

/// One point of a reported path, launch to endpoint.
struct PathPoint {
  std::string point;    ///< "port clk_in", "u3 (buf_x1)", "net n2 @ s7", ...
  double incr = 0.0;    ///< delay added by this hop
  double arrival = 0.0;
  double slew = 0.0;
};

/// One extracted worst path.
struct PathReport {
  std::string endpoint;
  double arrival = 0.0;
  double required = 0.0;
  double slack = 0.0;
  bool constrained = false;
  std::vector<PathPoint> points;  ///< launch first
};

/// Dirty seeds for an incremental `update_checked` pass, expressed in the
/// edit vocabulary: which nets had wire values (or their driver's arc
/// tables) change, which nets' required-time inputs moved, and whether
/// the design clock was retargeted. The update derives the full dirty
/// cones from these (fanout for arrivals, fanin for requireds).
struct UpdateSeeds {
  std::vector<int> forward_nets;   ///< wire values / driver arc tables changed
  std::vector<int> backward_nets;  ///< required-time inputs changed (cell swaps
                                   ///< on fanout, port constraint edits)
  bool clock_changed = false;      ///< design clock period moved
};

/// Work accounting for one incremental update pass.
struct UpdateStats {
  std::size_t forward_retimed = 0;    ///< nets whose forward half changed bits
  std::size_t backward_retimed = 0;   ///< nets whose required times were re-derived
  std::size_t frontier_cutoffs = 0;   ///< dirty-cone recomputes that stopped
                                      ///< propagation (bitwise-unchanged result)
  /// Non-ok when the pass stopped at a deadline/cancellation. The result
  /// is then PARTIALLY updated and must be discarded by the caller (the
  /// Timer drops its cached analysis); the design itself is untouched.
  util::Status stop_status;
};

/// Static timing graph over one Design. Holds a pointer to the design;
/// the design must outlive the graph (relmore::Timer owns both).
class TimingGraph {
 public:
  /// Validates that `design` is finalized (nets snapshot, topo order
  /// covering every net) and builds the graph.
  [[nodiscard]] static util::Result<TimingGraph> build_checked(const Design& design);

  /// Runs corpus moment analysis + levelized propagation. Execution knobs
  /// in `options` never change results (bitwise).
  [[nodiscard]] util::Result<TimingResult> analyze_checked(
      const AnalyzeOptions& options = {}) const;

  /// Incrementally re-times `result` (a prior full analysis of this
  /// design) after the edits described by `seeds`: arrivals/slews are
  /// repropagated forward and required times backward only through the
  /// levelized dirty cones, with a frontier cutoff wherever a recomputed
  /// net's forward half is bitwise-unchanged. On success `result` is
  /// bitwise-equal to a from-scratch analyze of the edited design in
  /// every PointTiming, wire delay, WNS/TNS, and endpoint row; the
  /// corpus-phase bookkeeping (fault/cache counts, diagnostics) keeps
  /// its last-full-analysis values.
  ///
  /// `cache` must cover every net in the dirty cones at its current epoch
  /// (the Timer guarantees this: a full analyze fills it, edits restamp
  /// the edited slots) — a miss fails with kInvalidArgument and the
  /// caller falls back to a full analyze. `options.deadline`/`cancel` are
  /// polled at cone-frontier boundaries; a stop returns ok with
  /// UpdateStats::stop_status non-ok and the partially-updated `result`
  /// must be discarded. Errors leave `result` unchanged only for the
  /// up-front validation failures; a cache miss mid-cone also requires
  /// discarding (the Timer treats every failure path the same way).
  [[nodiscard]] util::Result<UpdateStats> update_checked(TimingResult& result, CorpusCache& cache,
                                                         const UpdateSeeds& seeds,
                                                         const AnalyzeOptions& options = {}) const;

  [[nodiscard]] const Design& design() const { return *design_; }

 private:
  explicit TimingGraph(const Design* design) : design_(design) {}
  const Design* design_;
};

/// Slack of the endpoint (output port) named `port`. kInvalidArgument for
/// unknown or non-endpoint ports; kNonFiniteMoment when the endpoint sits
/// in a faulted fanout cone.
[[nodiscard]] util::Result<double> endpoint_slack_checked(const Design& design,
                                                          const TimingResult& result,
                                                          const std::string& port);

/// The `k` worst (smallest-slack) constrained endpoints' critical paths,
/// backtracked through winning arcs. Fewer than `k` when the design has
/// fewer timed endpoints.
[[nodiscard]] util::Result<std::vector<PathReport>> worst_paths_checked(
    const Design& design, const TimingResult& result, std::size_t k);

/// report_timing-style text: one block per path, point/incr/arrival
/// columns, slack line at the bottom.
[[nodiscard]] std::string format_path(const PathReport& path);

/// One-paragraph design summary (WNS/TNS/endpoint counts/fault counts).
[[nodiscard]] std::string format_summary(const TimingSummary& summary);

}  // namespace relmore::sta
