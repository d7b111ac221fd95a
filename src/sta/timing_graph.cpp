#include "relmore/sta/timing_graph.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <limits>
#include <new>
#include <string>

#include "relmore/eed/response.hpp"
#include "relmore/util/arena.hpp"
#include "relmore/util/deadline.hpp"

namespace relmore::sta {

using util::ErrorCode;
using util::Result;
using util::Status;

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Endpoint required time: the port's own constraint, else the design
/// clock, else unconstrained.
void endpoint_required(const Design& design, const DesignPort& port, double* required,
                       bool* constrained) {
  if (port.has_required) {
    *required = port.required;
    *constrained = true;
  } else if (design.clock_period > 0.0) {
    *required = design.clock_period;
    *constrained = true;
  } else {
    *required = kInf;
    *constrained = false;
  }
}

/// The design's tap total: the length of a result's per-tap arrays.
std::size_t tap_count(const Design& design) {
  return design.tap_offset.empty() ? 0 : design.tap_offset.back();
}

/// Whether `result` has `design`'s shape: its four lengths. They bound
/// every index the update, slack and path code derives from the design,
/// so a result that passes cannot be read or written out of bounds. A
/// result of another design with the same four lengths passes too.
bool shaped_for(const Design& design, const TimingResult& result) {
  return result.nets.size() == design.nets.size() &&
         result.winning_input.size() == design.instances.size() &&
         result.taps.size() == tap_count(design) && result.wire_delay.size() == tap_count(design);
}

/// The slot of tap `tap` of net `ni` in a result's per-tap arrays.
std::size_t tap_slot(const Design& design, int ni, int tap) {
  return design.tap_offset[static_cast<std::size_t>(ni)] + static_cast<std::size_t>(tap);
}

/// One net's timing where forward_time_net writes it: the driver point and
/// fault flag, and one slot per tap of the net for tap timings and wire
/// delays — the net's own slots of a result, or the update's scratch.
struct NetSlots {
  NetTiming* net = nullptr;
  PointTiming* taps = nullptr;
  double* wire_delay = nullptr;
};

NetSlots slots_of(const Design& design, TimingResult& result, int ni) {
  const std::size_t begin = design.tap_offset[static_cast<std::size_t>(ni)];
  return {&result.nets[static_cast<std::size_t>(ni)], result.taps.data() + begin,
          result.wire_delay.data() + begin};
}

/// Bitwise comparison of the forward-owned fields (timed/arrival/slew);
/// std::bit_cast so -0.0 vs 0.0 and NaN payloads count as changes, the
/// same equality every determinism test uses.
bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// What forward_time_net reports besides the timings it writes.
struct ForwardTiming {
  int winning = -1;         ///< arrival-setting input pin of an instance driver;
                            ///< -1 when none / not all pins timed
  std::size_t reused = 0;   ///< taps whose wire stage came from `previous`
};

/// Recomputes net `ni`'s forward half — driver point, tap arrivals/slews,
/// wire delays, fault flag — into `out`, reading upstream tap timings from
/// `result`. Required/constrained fields are reset to unconstrained (the
/// backward sweep owns them). The full forward sweep and the incremental
/// dirty-cone scan both time a net here, so both produce identical bits by
/// construction.
///
/// `previous`, when given, holds the net's timings from the last pass that
/// timed it with these same wire models (the update passes every net it
/// was not seeded with). A wire stage is a function of the tap's model and
/// the driver slew alone, so when the previous driver was timed, the net
/// was not faulted and the new driver slew has the previous one's bits,
/// each tap keeps its previous wire delay and slew — the bits
/// ramp_stage_checked returns for those same inputs — and only the
/// arrivals move. Otherwise every tap is solved.
ForwardTiming forward_time_net(const Design& design, int ni, const NetModels& models,
                               const TimingResult& result, const NetSlots& out,
                               const NetSlots* previous = nullptr) {
  const Net& net = design.nets[static_cast<std::size_t>(ni)];
  NetTiming& nt = *out.net;
  nt.driver = PointTiming{};
  PointTiming untimed;
  untimed.required = kInf;
  std::fill_n(out.taps, net.taps.size(), untimed);
  std::fill_n(out.wire_delay, net.taps.size(), 0.0);
  // A net the corpus never reached (deadline/cancel stop) is untimed
  // exactly like a faulted one: its cone degrades, everything else keeps
  // its uninterrupted-run bits.
  nt.faulted = models.faulted || !models.analyzed;
  nt.driver.required = kInf;

  // Driving point.
  ForwardTiming timing;
  if (net.driver_kind == DriverKind::kPort) {
    const DesignPort& port = design.ports[static_cast<std::size_t>(net.driver_index)];
    nt.driver.timed = true;
    nt.driver.arrival = port.arrival;
    nt.driver.slew = port.slew;
  } else if (net.driver_kind == DriverKind::kInstance) {
    const Instance& inst = design.instances[static_cast<std::size_t>(net.driver_index)];
    const Cell& cell = design.library.cell(static_cast<std::size_t>(inst.cell));
    const double load = net.total_cap;
    bool all_timed = true;
    double best = -kInf;
    for (std::size_t pi = 0; pi < inst.inputs.size(); ++pi) {
      const Instance::Pin& pin = inst.inputs[pi];
      const PointTiming& at = result.taps[tap_slot(design, pin.net, pin.tap)];
      if (!at.timed) {
        all_timed = false;
        break;
      }
      const double arr = at.arrival + cell.arc_delay(at.slew, load);
      if (arr > best) {  // ties keep the earlier pin: deterministic
        best = arr;
        timing.winning = static_cast<int>(pi);
      }
    }
    if (all_timed && timing.winning >= 0) {
      const Instance::Pin& win = inst.inputs[static_cast<std::size_t>(timing.winning)];
      const PointTiming& at = result.taps[tap_slot(design, win.net, win.tap)];
      nt.driver.timed = true;
      nt.driver.arrival = best;
      nt.driver.slew = cell.arc_slew(at.slew, load);
    } else {
      timing.winning = -1;
    }
  }

  // Wire stages to every tap.
  if (!nt.driver.timed || nt.faulted) return timing;
  if (previous != nullptr && previous->net->driver.timed && !previous->net->faulted &&
      same_bits(previous->net->driver.slew, nt.driver.slew)) {
    for (std::size_t t = 0; t < net.taps.size(); ++t) {
      out.taps[t].timed = true;
      out.taps[t].arrival = nt.driver.arrival + previous->wire_delay[t];
      out.taps[t].slew = previous->taps[t].slew;
      out.wire_delay[t] = previous->wire_delay[t];
    }
    timing.reused = net.taps.size();
    return timing;
  }
  for (std::size_t t = 0; t < net.taps.size(); ++t) {
    const Result<eed::RampStage> stage = eed::ramp_stage_checked(models.taps[t], nt.driver.slew);
    if (!stage.is_ok()) {
      // No crossing for this tap's model and slew: the tap stays untimed
      // and the net faulted (same isolation as a corpus-phase fault).
      nt.faulted = true;
      continue;
    }
    out.taps[t].timed = true;
    out.taps[t].arrival = nt.driver.arrival + stage.value().delay;
    out.taps[t].slew = stage.value().output_rise;
    out.wire_delay[t] = stage.value().delay;
  }
  return timing;
}

/// Re-derives net `ni`'s required/constrained fields in place from its
/// fanout (whose driver requireds must already be final — the reverse
/// topological order guarantees it). Shared between the full backward
/// sweep and the incremental fanin-cone scan.
void backward_time_net(const Design& design, int ni, TimingResult& result) {
  const Net& net = design.nets[static_cast<std::size_t>(ni)];
  const NetSlots own = slots_of(design, result, ni);
  NetTiming& nt = *own.net;
  nt.driver.required = kInf;
  nt.driver.constrained = false;
  for (std::size_t t = 0; t < net.taps.size(); ++t) {
    const Net::Tap& tap = net.taps[t];
    PointTiming& tt = own.taps[t];
    tt.required = kInf;
    tt.constrained = false;
    if (tap.is_port) {
      endpoint_required(design, design.ports[static_cast<std::size_t>(tap.index)],
                        &tt.required, &tt.constrained);
    } else {
      const Instance& inst = design.instances[static_cast<std::size_t>(tap.index)];
      const PointTiming& out_driver =
          result.nets[static_cast<std::size_t>(inst.out_net)].driver;
      if (out_driver.constrained && tt.timed) {
        const Cell& cell = design.library.cell(static_cast<std::size_t>(inst.cell));
        const double load = design.nets[static_cast<std::size_t>(inst.out_net)].total_cap;
        tt.required = out_driver.required - cell.arc_delay(tt.slew, load);
        tt.constrained = true;
      }
    }
    if (tt.constrained && tt.timed) {
      const double cand = tt.required - own.wire_delay[t];
      if (cand < nt.driver.required) nt.driver.required = cand;
      nt.driver.constrained = true;
    }
  }
}

/// The tap timing of output port `pi`: what its summary row and its slack
/// query both read.
const PointTiming& endpoint_timing(const Design& design, const TimingResult& result,
                                   std::size_t pi) {
  const DesignPort& port = design.ports[pi];
  return result.taps[tap_slot(design, port.net, port.tap)];
}

/// The summary row of output port `pi` with tap timing `tt`.
EndpointSlack endpoint_row(std::size_t pi, const PointTiming& tt) {
  EndpointSlack row;
  row.port = static_cast<int>(pi);
  row.timed = tt.timed;
  row.constrained = tt.constrained;
  if (tt.timed) {
    row.arrival = tt.arrival;
    row.required = tt.required;
    row.slack = tt.required - tt.arrival;
  }
  return row;
}

/// The summary order: timed+constrained rows first, then timed, then
/// untimed; ascending slack within a rank; the port index breaks ties, so
/// the order is total: every way of sorting the same rows agrees.
int row_rank(const EndpointSlack& row) {
  return row.timed && row.constrained ? 0 : row.timed ? 1 : 2;
}

bool row_before(const EndpointSlack& a, const EndpointSlack& b) {
  const int ra = row_rank(a);
  const int rb = row_rank(b);
  if (ra != rb) return ra < rb;
  if (a.slack != b.slack) return a.slack < b.slack;
  return a.port < b.port;
}

/// A TNS term: constrained and negative. These rows lead the order.
bool in_tns(const EndpointSlack& row) { return row_rank(row) == 0 && row.slack < 0.0; }

/// The endpoint count a row belongs to: untimed, constrained, or neither.
std::size_t* row_count(TimingSummary& summary, const EndpointSlack& row) {
  if (!row.timed) return &summary.untimed_endpoints;
  return row.constrained ? &summary.constrained_endpoints : nullptr;
}

/// WNS from sorted rows: the first row's slack when that row is
/// constrained, since the order puts the worst constrained row first.
double worst_slack(const TimingSummary& summary) {
  const std::vector<EndpointSlack>& rows = summary.endpoints_by_slack;
  return !rows.empty() && row_rank(rows.front()) == 0 ? rows.front().slack : 0.0;
}

/// Rebuilds the endpoint summary (rows, WNS/TNS, endpoint counts) and the
/// exact sum of the TNS terms from the per-point timings. The corpus-phase
/// counters (faulted/incomplete/cache) are left untouched — the caller
/// owns them.
void rebuild_endpoint_summary(const Design& design, TimingResult& result) {
  TimingSummary& summary = result.summary;
  summary.endpoints = 0;
  summary.constrained_endpoints = 0;
  summary.untimed_endpoints = 0;
  summary.endpoints_by_slack.clear();
  result.tns_terms = util::ExactSum{};
  for (std::size_t pi = 0; pi < design.ports.size(); ++pi) {
    if (design.ports[pi].is_input) continue;
    ++summary.endpoints;
    const EndpointSlack row = endpoint_row(pi, endpoint_timing(design, result, pi));
    if (std::size_t* count = row_count(summary, row)) ++*count;
    if (in_tns(row)) result.tns_terms.add(row.slack);
    summary.endpoints_by_slack.push_back(row);
  }
  std::sort(summary.endpoints_by_slack.begin(), summary.endpoints_by_slack.end(), row_before);
  summary.wns = worst_slack(summary);
  summary.tns = result.tns_terms.value();
}

bool same_forward_point(const PointTiming& a, const PointTiming& b) {
  return a.timed == b.timed && same_bits(a.arrival, b.arrival) && same_bits(a.slew, b.slew);
}

bool same_forward_net(const NetSlots& a, const NetSlots& b, std::size_t taps) {
  if (a.net->faulted != b.net->faulted || !same_forward_point(a.net->driver, b.net->driver)) {
    return false;
  }
  for (std::size_t t = 0; t < taps; ++t) {
    if (!same_forward_point(a.taps[t], b.taps[t])) return false;
    if (!same_bits(a.wire_delay[t], b.wire_delay[t])) return false;
  }
  return true;
}

/// Bitwise comparison of two summary rows.
bool same_row(const EndpointSlack& a, const EndpointSlack& b) {
  return a.timed == b.timed && a.constrained == b.constrained && same_bits(a.arrival, b.arrival) &&
         same_bits(a.required, b.required) && same_bits(a.slack, b.slack);
}

/// The endpoints an incremental pass re-timed, each with the tap timing
/// its summary row was built from: slot i holds port `ports[i]` and its
/// timing `before[i]`, in the caller's storage (one slot per design port).
struct EndpointLog {
  int* ports = nullptr;
  PointTiming* before = nullptr;
  std::size_t size = 0;
};

/// The summary after an incremental pass, equal bit for bit to what
/// rebuild_endpoint_summary would build. Each logged endpoint's row is
/// re-derived; a row whose bits moved is found by binary search on its
/// old key (the order is total, so the key names exactly one row), takes
/// the new bits, and is rotated to its place — work in the distance each
/// row moves, not in the endpoint count. The endpoint counts move by the
/// difference, the exact TNS sum loses the row's old term and gains its
/// new one, WNS is re-read from the first row, and TNS is read from the
/// sum when a term moved. The sum has no order, so its value is the one
/// a rebuild reads. Rows that are not this result's own — a logged row
/// not found — are all derived again instead.
void update_endpoint_summary(const Design& design, const EndpointLog& log, TimingResult& result) {
  TimingSummary& summary = result.summary;
  std::vector<EndpointSlack>& rows = summary.endpoints_by_slack;
  bool tns_moved = false;
  // relmore-lint: begin-hot-loop(summary-moved-rows)
  for (std::size_t i = 0; i < log.size; ++i) {
    const auto pi = static_cast<std::size_t>(log.ports[i]);
    const EndpointSlack old = endpoint_row(pi, log.before[i]);
    EndpointSlack now = endpoint_row(pi, endpoint_timing(design, result, pi));
    if (same_row(old, now)) continue;
    const auto it = std::lower_bound(rows.begin(), rows.end(), old, row_before);
    if (it == rows.end() || it->port != old.port) {
      rebuild_endpoint_summary(design, result);
      return;
    }
    if (in_tns(old)) result.tns_terms.sub(old.slack);
    if (in_tns(now)) result.tns_terms.add(now.slack);
    tns_moved = tns_moved || in_tns(old) || in_tns(now);
    if (std::size_t* count = row_count(summary, old)) --*count;
    if (std::size_t* count = row_count(summary, now)) ++*count;
    *it = now;
    // Every other row is in order: move this one to its place.
    if (it != rows.begin() && row_before(*it, *(it - 1))) {
      std::rotate(std::lower_bound(rows.begin(), it, *it, row_before), it, it + 1);
    } else if (it + 1 != rows.end() && row_before(*(it + 1), *it)) {
      std::rotate(it, it + 1, std::lower_bound(it + 1, rows.end(), *it, row_before));
    }
  }
  // relmore-lint: end-hot-loop
  summary.wns = worst_slack(summary);
  if (tns_moved) summary.tns = result.tns_terms.value();
}

/// The nets one cone sweep has yet to visit, popped in (Net::level, net
/// index) order: ascending with `Before = std::greater<>` (a min-heap) for
/// the forward sweep, descending with `std::less<>` for the backward one.
/// Levels rise along every instance edge (build_checked rejects a design
/// where they do not), so either order is topological, and a sweep visits
/// the nets its cone reaches instead of scanning Design::topo_nets. The
/// heap lives in caller storage of one slot per net; the caller's dirty
/// flag admits a net at most once, so it never overflows and nothing in a
/// sweep allocates.
template <typename Before>
class ConeWorklist {
 public:
  ConeWorklist(const Design& design, std::uint64_t* heap) : design_(design), heap_(heap) {}

  [[nodiscard]] bool empty() const { return size_ == 0; }

  void push(int ni) {
    const auto level = static_cast<std::uint32_t>(design_.nets[static_cast<std::size_t>(ni)].level);
    heap_[size_++] = std::uint64_t{level} << 32 | static_cast<std::uint32_t>(ni);
    std::push_heap(heap_, heap_ + size_, Before{});
  }

  int pop() {
    std::pop_heap(heap_, heap_ + size_, Before{});
    --size_;
    return static_cast<int>(heap_[size_] & 0xFFFF'FFFFU);
  }

 private:
  const Design& design_;
  std::uint64_t* heap_;
  std::size_t size_ = 0;
};

}  // namespace

Result<TimingGraph> TimingGraph::build_checked(const Design& design) {
  const std::size_t n_nets = design.nets.size();
  if (n_nets == 0) {
    return Status(ErrorCode::kEmptyTree, "TimingGraph: design has no nets");
  }
  if (design.topo_nets.size() != n_nets) {
    return Status(ErrorCode::kCycle,
                  "TimingGraph: design is not finalized (topological order incomplete)");
  }
  for (const Net& net : design.nets) {
    if (net.flat.size() != net.tree.size()) {
      return Status(ErrorCode::kInvalidArgument,
                    "TimingGraph: net snapshot is stale (re-run read_design_checked)")
          .with_net(net.name);
    }
  }
  // Every result lays out its per-tap arrays by the tap offsets, and its
  // guards compare only their total, so the offsets must be exactly the
  // prefix sums of the nets' tap counts.
  const std::vector<std::size_t>& offset = design.tap_offset;
  if (offset.size() != n_nets + 1 || offset[0] != 0) {
    return Status(ErrorCode::kInvalidArgument,
                  "TimingGraph: design has no tap offsets (re-run read_design_checked)");
  }
  std::size_t max_taps = 0;
  for (std::size_t ni = 0; ni < n_nets; ++ni) {
    const Net& net = design.nets[ni];
    const std::size_t taps = net.taps.size();
    if (offset[ni + 1] != offset[ni] + taps) {
      return Status(ErrorCode::kInvalidArgument,
                    "TimingGraph: tap offsets do not match the net's tap count "
                    "(re-run read_design_checked)")
          .with_net(net.name);
    }
    // The corpus phase evaluates the net's models at its tap nodes only.
    for (const Net::Tap& tap : net.taps) {
      if (tap.node < 0 || static_cast<std::size_t>(tap.node) >= net.flat.size()) {
        return Status(ErrorCode::kInvalidArgument,
                      "TimingGraph: tap node " + std::to_string(tap.node) +
                          " is outside the net's " + std::to_string(net.flat.size()) +
                          " sections",
                      tap.node)
            .with_net(net.name);
      }
    }
    max_taps = std::max(max_taps, taps);
  }
  // The cone sweeps of update_checked visit nets in (level, index) order,
  // which is topological only when every instance edge climbs a level.
  for (const Instance& inst : design.instances) {
    const int out_level = design.nets[static_cast<std::size_t>(inst.out_net)].level;
    for (const Instance::Pin& pin : inst.inputs) {
      if (design.nets[static_cast<std::size_t>(pin.net)].level >= out_level) {
        return Status(ErrorCode::kInvalidArgument,
                      "TimingGraph: net levels do not rise through the instance "
                      "(re-run read_design_checked)")
            .with_net(inst.name);
      }
    }
  }
  return TimingGraph(&design, max_taps);
}

Result<TimingResult> TimingGraph::analyze_checked(const AnalyzeOptions& options) const {
  const Design& design = *design_;
  Result<CorpusModels> corpus_r = analyze_corpus_checked(design, options);
  if (!corpus_r.is_ok()) return corpus_r.status();
  const CorpusModels corpus = std::move(corpus_r).value();

  TimingResult result;
  result.nets.resize(design.nets.size());
  result.taps.resize(tap_count(design));
  result.wire_delay.resize(tap_count(design));
  result.winning_input.assign(design.instances.size(), -1);

  // --- forward sweep: arrivals and slews, in net topological order --------
  for (const int ni : design.topo_nets) {
    const Net& net = design.nets[static_cast<std::size_t>(ni)];
    const ForwardTiming timing = forward_time_net(
        design, ni, corpus.nets[static_cast<std::size_t>(ni)], result, slots_of(design, result, ni));
    if (net.driver_kind == DriverKind::kInstance) {
      result.winning_input[static_cast<std::size_t>(net.driver_index)] = timing.winning;
    }
  }

  // --- backward sweep: required times, reverse topological order ----------
  for (auto it = design.topo_nets.rbegin(); it != design.topo_nets.rend(); ++it) {
    backward_time_net(design, *it, result);
  }

  // --- endpoint summary ----------------------------------------------------
  result.summary.faulted_nets = corpus.faulted_nets;
  result.summary.incomplete_nets = corpus.incomplete_nets;
  result.summary.cache_hits = corpus.cache_hits;
  result.summary.cache_misses = corpus.cache_misses;
  result.stop_status = corpus.stop_status;
  result.diagnostics = corpus.diagnostics;
  rebuild_endpoint_summary(design, result);
  return result;
}

Result<UpdateStats> TimingGraph::update_checked(TimingResult& result, CorpusCache& cache,
                                                const UpdateSeeds& seeds,
                                                const AnalyzeOptions& options) const {
  const Design& design = *design_;
  const std::size_t n_nets = design.nets.size();
  if (!shaped_for(design, result)) {
    return Status(ErrorCode::kInvalidArgument, "update: result does not belong to this design");
  }
  if (!result.stop_status.is_ok()) {
    return Status(ErrorCode::kInvalidArgument,
                  "update: cannot update a stop-interrupted result (re-analyze)");
  }
  const auto in_range = [n_nets](int ni) {
    return ni >= 0 && static_cast<std::size_t>(ni) < n_nets;
  };
  for (const int ni : seeds.forward_nets) {
    if (!in_range(ni)) {
      return Status(ErrorCode::kInvalidArgument, "update: forward seed net out of range");
    }
  }
  for (const int ni : seeds.backward_nets) {
    if (!in_range(ni)) {
      return Status(ErrorCode::kInvalidArgument, "update: backward seed net out of range");
    }
  }

  const std::uint64_t fingerprint = options_fingerprint(options);
  const util::RunControl rc{options.deadline, options.cancel};
  UpdateStats stats;

  // --- workspace: the calling thread's arena, reused across calls --------
  // One slot per net for the dirty flags and each worklist, one per port
  // for the endpoint log, and the largest net's tap count for the forward
  // scratch; beyond the flags, only what the cones touch is written. A
  // failed grab leaves `result` unchanged.
  util::Arena& arena = util::thread_arena();
  const util::ArenaScope scope(arena);
  std::uint8_t* dirty = nullptr;
  std::uint64_t* forward_heap = nullptr;
  std::uint64_t* backward_heap = nullptr;
  NetTiming scratch_net;
  NetSlots scratch{&scratch_net};
  EndpointLog log;
  try {
    dirty = arena.grab<std::uint8_t>(n_nets);
    forward_heap = arena.grab<std::uint64_t>(n_nets);
    backward_heap = arena.grab<std::uint64_t>(n_nets);
    scratch.taps = arena.grab<PointTiming>(max_taps_);
    scratch.wire_delay = arena.grab<double>(max_taps_);
    log.ports = arena.grab<int>(design.ports.size());
    log.before = arena.grab<PointTiming>(design.ports.size());
  } catch (const std::bad_alloc&) {
    return Status(ErrorCode::kResourceExhausted, "update: workspace allocation failed");
  }
  std::fill_n(dirty, n_nets, std::uint8_t{0});
  constexpr std::uint8_t kForward = 1;   // queued for the forward sweep
  constexpr std::uint8_t kBackward = 2;  // queued for the backward sweep
  constexpr std::uint8_t kLogged = 4;    // endpoint timings logged
  constexpr std::uint8_t kSeeded = 8;    // a forward seed: its wire models may have moved
  ConeWorklist<std::greater<>> forward(design, forward_heap);
  ConeWorklist<std::less<>> backward(design, backward_heap);
  const auto mark = [dirty](std::uint8_t sweep, auto& worklist, int ni) {
    std::uint8_t& flags = dirty[static_cast<std::size_t>(ni)];
    if ((flags & sweep) != 0) return;
    flags |= sweep;
    worklist.push(ni);
  };
  // Logs a net's endpoint timings before a sweep first writes its taps, so
  // the log holds what the summary rows were built from.
  const auto log_endpoints = [&](int ni) {
    std::uint8_t& flags = dirty[static_cast<std::size_t>(ni)];
    if ((flags & kLogged) != 0) return;
    flags |= kLogged;
    const Net& net = design.nets[static_cast<std::size_t>(ni)];
    const PointTiming* taps = slots_of(design, result, ni).taps;
    for (std::size_t t = 0; t < net.taps.size(); ++t) {
      if (!net.taps[t].is_port) continue;
      log.ports[log.size] = net.taps[t].index;
      log.before[log.size] = taps[t];
      ++log.size;
    }
  };

  // --- seed the dirty sets -------------------------------------------------
  for (const int ni : seeds.forward_nets) {
    mark(kForward, forward, ni);
    dirty[static_cast<std::size_t>(ni)] |= kSeeded;
    // A wire edit moves this net's total load, which every arc *into* its
    // driving instance reads — in the forward max loop (covered: this net
    // is forward-dirty) and in the backward required of each input pin.
    // The latter can change even when this net's own driver required is
    // bitwise-unmoved, so the fanin nets are seeded backward explicitly.
    const Net& net = design.nets[static_cast<std::size_t>(ni)];
    if (net.driver_kind == DriverKind::kInstance) {
      const Instance& inst = design.instances[static_cast<std::size_t>(net.driver_index)];
      for (const Instance::Pin& pin : inst.inputs) mark(kBackward, backward, pin.net);
    }
  }
  for (const int ni : seeds.backward_nets) mark(kBackward, backward, ni);
  if (seeds.clock_changed) {
    // The clock is the fallback constraint of every endpoint without its
    // own required=, so each net carrying such an endpoint re-derives.
    for (const DesignPort& port : design.ports) {
      if (!port.is_input && !port.has_required) mark(kBackward, backward, port.net);
    }
  }

  // --- forward cone sweep: dirty nets only, frontier cutoff on equality ---
  // Nets leave the worklist in levelized order; a dirty net is recomputed
  // into a reused scratch with exactly the full sweep's code, committed
  // only when some forward bit moved, and its changed taps mark their
  // consumer instances' output nets dirty. A net that was not seeded has
  // the wire models its slots were timed with, so it hands its own slots
  // in as the previous timings and keeps their wire stages when its driver
  // slew did not move. RunControl is polled at cone-frontier boundaries
  // (every kPollStride nets, the first one included), the corpus-ladder
  // contract.
  constexpr std::size_t kPollStride = 64;
  // relmore-lint: begin-hot-loop(retime-forward-frontier)
  for (std::size_t k = 0; !forward.empty(); ++k) {
    if (k % kPollStride == 0 && rc.armed() && rc.stop_code() != ErrorCode::kOk) {
      stats.stop_status = rc.stop_status();
      return stats;
    }
    const int ni = forward.pop();
    const Net& net = design.nets[static_cast<std::size_t>(ni)];
    const NetModels* models = cache.find(static_cast<std::size_t>(ni), net.epoch, fingerprint);
    if (models == nullptr) {
      return Status(ErrorCode::kInvalidArgument, "update: corpus cache does not cover net")
          .with_net(net.name);
    }
    const NetSlots own = slots_of(design, result, ni);
    const bool seeded = (dirty[static_cast<std::size_t>(ni)] & kSeeded) != 0;
    const ForwardTiming timing =
        forward_time_net(design, ni, *models, result, scratch, seeded ? nullptr : &own);
    stats.reused_wire_stages += timing.reused;
    if (net.driver_kind == DriverKind::kInstance) {
      // Committed even on a cutoff: a tie can move the winning pin while
      // the output timing stays bitwise-identical, and a from-scratch
      // analyze would report the new winner.
      result.winning_input[static_cast<std::size_t>(net.driver_index)] = timing.winning;
    }
    if (same_forward_net(own, scratch, net.taps.size())) {
      ++stats.frontier_cutoffs;
      continue;
    }
    log_endpoints(ni);
    NetTiming& nt = *own.net;
    nt.faulted = scratch_net.faulted;
    nt.driver.timed = scratch_net.driver.timed;
    nt.driver.arrival = scratch_net.driver.arrival;
    nt.driver.slew = scratch_net.driver.slew;
    for (std::size_t t = 0; t < net.taps.size(); ++t) {
      PointTiming& dst = own.taps[t];
      const PointTiming& src = scratch.taps[t];
      const bool tap_changed = !same_forward_point(dst, src);
      dst.timed = src.timed;
      dst.arrival = src.arrival;
      dst.slew = src.slew;
      own.wire_delay[t] = scratch.wire_delay[t];
      if (tap_changed && !net.taps[t].is_port) {
        const Instance& inst = design.instances[static_cast<std::size_t>(net.taps[t].index)];
        mark(kForward, forward, inst.out_net);
      }
    }
    mark(kBackward, backward, ni);
    ++stats.forward_retimed;
  }
  // relmore-lint: end-hot-loop

  // --- backward cone sweep: reverse order, fanin marking on change --------
  // relmore-lint: begin-hot-loop(retime-backward-frontier)
  for (std::size_t k = 0; !backward.empty(); ++k) {
    if (k % kPollStride == 0 && rc.armed() && rc.stop_code() != ErrorCode::kOk) {
      stats.stop_status = rc.stop_status();
      return stats;
    }
    const int ni = backward.pop();
    log_endpoints(ni);
    NetTiming& nt = result.nets[static_cast<std::size_t>(ni)];
    const double old_required = nt.driver.required;
    const bool old_constrained = nt.driver.constrained;
    backward_time_net(design, ni, result);
    ++stats.backward_retimed;
    const bool driver_moved =
        !same_bits(old_required, nt.driver.required) || old_constrained != nt.driver.constrained;
    const Net& net = design.nets[static_cast<std::size_t>(ni)];
    if (driver_moved && net.driver_kind == DriverKind::kInstance) {
      const Instance& inst = design.instances[static_cast<std::size_t>(net.driver_index)];
      for (const Instance::Pin& pin : inst.inputs) mark(kBackward, backward, pin.net);
    } else if (!driver_moved) {
      ++stats.frontier_cutoffs;
    }
  }
  // relmore-lint: end-hot-loop

  // Every net whose tap timing moved went through the backward sweep, so
  // the log names every endpoint whose row may have moved.
  update_endpoint_summary(design, log, result);
  return stats;
}

Result<double> endpoint_slack_checked(const Design& design, const TimingResult& result,
                                      const std::string& port) {
  if (!shaped_for(design, result)) {
    return Status(ErrorCode::kInvalidArgument,
                  "endpoint_slack: result does not belong to this design");
  }
  const int port_index = design.find_port(port);
  if (port_index < 0) return Status(ErrorCode::kInvalidArgument, "unknown port '" + port + "'");
  const auto pi = static_cast<std::size_t>(port_index);
  const DesignPort& p = design.ports[pi];
  if (p.is_input) {
    return Status(ErrorCode::kInvalidArgument, "port '" + port + "' is not an endpoint");
  }
  const PointTiming& tt = endpoint_timing(design, result, pi);
  if (!tt.timed) {
    return Status(ErrorCode::kNonFiniteMoment,
                  "endpoint '" + port + "' is untimed (faulted fanout cone)")
        .with_net(design.nets[static_cast<std::size_t>(p.net)].name);
  }
  return tt.required - tt.arrival;
}

Result<std::vector<PathReport>> worst_paths_checked(const Design& design,
                                                    const TimingResult& result, std::size_t k) {
  if (!shaped_for(design, result)) {
    return Status(ErrorCode::kInvalidArgument,
                  "worst_paths: result does not belong to this design");
  }
  std::vector<PathReport> out;
  for (const EndpointSlack& row : result.summary.endpoints_by_slack) {
    if (out.size() >= k) break;
    if (!row.timed) continue;
    if (row.port < 0 || static_cast<std::size_t>(row.port) >= design.ports.size() ||
        design.ports[static_cast<std::size_t>(row.port)].is_input) {
      return Status(ErrorCode::kInvalidArgument,
                    "worst_paths: endpoint row names no endpoint of this design");
    }
    const DesignPort& port = design.ports[static_cast<std::size_t>(row.port)];
    PathReport path;
    path.endpoint = port.name;
    path.arrival = row.arrival;
    path.required = row.required;
    path.slack = row.slack;
    path.constrained = row.constrained;

    // Backtrack endpoint -> launch, then reverse.
    std::vector<PathPoint> rev;
    int ni = port.net;
    int tap = port.tap;
    bool done = false;
    while (!done) {
      const Net& net = design.nets[static_cast<std::size_t>(ni)];
      const NetTiming& nt = result.nets[static_cast<std::size_t>(ni)];
      const Net::Tap& t = net.taps[static_cast<std::size_t>(tap)];
      const std::size_t slot = tap_slot(design, ni, tap);
      const PointTiming& tt = result.taps[slot];
      PathPoint wire;
      wire.point = "net " + net.name + " @ " +
                   net.tree.section(t.node).name;
      wire.incr = result.wire_delay[slot];
      wire.arrival = tt.arrival;
      wire.slew = tt.slew;
      rev.push_back(std::move(wire));

      if (net.driver_kind == DriverKind::kPort) {
        const DesignPort& in = design.ports[static_cast<std::size_t>(net.driver_index)];
        PathPoint launch;
        launch.point = "port " + in.name;
        launch.incr = 0.0;
        launch.arrival = nt.driver.arrival;
        launch.slew = nt.driver.slew;
        rev.push_back(std::move(launch));
        done = true;
      } else {
        const Instance& inst = design.instances[static_cast<std::size_t>(net.driver_index)];
        const Cell& cell = design.library.cell(static_cast<std::size_t>(inst.cell));
        const int wi = result.winning_input[static_cast<std::size_t>(net.driver_index)];
        if (wi < 0 || static_cast<std::size_t>(wi) >= inst.inputs.size()) {
          return Status(ErrorCode::kInvalidArgument,
                        "worst_paths: untimed instance on path (inconsistent result)")
              .with_net(net.name);
        }
        const Instance::Pin& pin = inst.inputs[static_cast<std::size_t>(wi)];
        const PointTiming& pin_t = result.taps[tap_slot(design, pin.net, pin.tap)];
        PathPoint gate;
        gate.point = inst.name + " (" + cell.name + ")";
        gate.incr = nt.driver.arrival - pin_t.arrival;
        gate.arrival = nt.driver.arrival;
        gate.slew = nt.driver.slew;
        rev.push_back(std::move(gate));
        ni = pin.net;
        tap = pin.tap;
      }
    }
    std::reverse(rev.begin(), rev.end());
    path.points = std::move(rev);
    out.push_back(std::move(path));
  }
  return out;
}

namespace {

// Appends `seconds` as picoseconds with 3 decimals ("%.3f" is byte-equal
// to the former fixed/precision(3) ostream rendering) straight into the
// caller's buffer — the formatters build one reserved string instead of
// an ostringstream + per-value temporaries per row.
void append_ps(std::string& out, double seconds) {
  if (std::isinf(seconds)) {
    out += seconds > 0 ? "inf" : "-inf";
    return;
  }
  char buf[48];
  const int n = std::snprintf(buf, sizeof(buf), "%.3f", seconds * 1e12);
  if (n > 0) out.append(buf, static_cast<std::size_t>(n));
}

void append_padded(std::string& out, const char* s, std::size_t len, std::size_t w) {
  out.append(s, len);
  if (len < w) out.append(w - len, ' ');
}

void append_padded(std::string& out, const std::string& s, std::size_t w) {
  append_padded(out, s.data(), s.size(), w);
}

// Pads a ps-formatted value by rendering into a scratch slice of `out`
// itself: remember where the value starts, append, then pad to width.
void append_ps_padded(std::string& out, double seconds, std::size_t w) {
  const std::size_t start = out.size();
  append_ps(out, seconds);
  const std::size_t len = out.size() - start;
  if (len < w) out.append(w - len, ' ');
}

}  // namespace

std::string format_path(const PathReport& path) {
  std::size_t width = 24;
  for (const PathPoint& p : path.points) width = std::max(width, p.point.size() + 2);
  std::string out;
  out.reserve(96 + (path.points.size() + 4) * (width + 44));
  out += "Path to endpoint '";
  out += path.endpoint;
  out += '\'';
  if (!path.constrained) out += " (unconstrained)";
  out += '\n';
  append_padded(out, "point", 5, width);
  append_padded(out, "incr [ps]", 9, 14);
  append_padded(out, "arrival [ps]", 12, 14);
  out += "slew [ps]\n";
  for (const PathPoint& p : path.points) {
    append_padded(out, p.point, width);
    append_ps_padded(out, p.incr, 14);
    append_ps_padded(out, p.arrival, 14);
    append_ps(out, p.slew);
    out += '\n';
  }
  append_padded(out, "required", 8, width);
  append_ps(out, path.required);
  out += " ps\n";
  append_padded(out, "arrival", 7, width);
  append_ps(out, path.arrival);
  out += " ps\n";
  append_padded(out, "slack", 5, width);
  append_ps(out, path.slack);
  out += " ps";
  if (path.slack < 0.0) out += "  (VIOLATED)";
  out += '\n';
  return out;
}

std::string format_summary(const TimingSummary& summary) {
  std::string out;
  out.reserve(224);
  out += "endpoints: ";
  out += std::to_string(summary.endpoints);
  out += " (";
  out += std::to_string(summary.constrained_endpoints);
  out += " constrained, ";
  out += std::to_string(summary.untimed_endpoints);
  out += " untimed)\nWNS: ";
  append_ps(out, summary.wns);
  out += " ps   TNS: ";
  append_ps(out, summary.tns);
  out += " ps\nnets faulted: ";
  out += std::to_string(summary.faulted_nets);
  if (summary.incomplete_nets > 0) {
    out += "   nets incomplete: ";
    out += std::to_string(summary.incomplete_nets);
  }
  out += '\n';
  return out;
}

}  // namespace relmore::sta
