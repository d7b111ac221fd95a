// libFuzzer harness for sta::read_design_checked, the corpus reader.
//
// Invariants checked (abort on violation):
//  - the checked reader never throws, with or without a diagnostics mirror;
//  - a rejected corpus carries a non-ok Status and at least one error in
//    the mirrored report;
//  - an accepted design is finalized: the topological order covers every
//    net, every net has a driver and a current FlatTree snapshot, and the
//    tap offsets are the prefix sums of the nets' tap counts;
//  - an accepted design's name tables resolve every net, instance and
//    port name to that item's own index;
//  - an accepted design times end to end without an exception — the whole
//    TimingGraph flow under kSkipAndFlag (per-net faults must be isolated,
//    never thrown across the corpus phase) — into a result whose per-tap
//    arrays have the design's tap total as their length;
//  - its summary keeps its definitions: TNS is the correctly rounded sum
//    of the rows' constrained negative slacks (the reference shares no
//    code with util::ExactSum), and WNS is the slack of the first
//    constrained row, or 0 when no row is constrained.

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "../util/exact_sum_reference.hpp"
#include "relmore/sta/corpus.hpp"
#include "relmore/sta/design.hpp"
#include "relmore/sta/timing_graph.hpp"
#include "relmore/util/diagnostics.hpp"

namespace sta = relmore::sta;
namespace util = relmore::util;

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
  if (size > 65536) return 0;
  const std::string text(reinterpret_cast<const char*>(data), size);

  util::DiagnosticsReport report;
  util::Result<sta::Design> parsed(sta::Design{});
  try {
    std::istringstream is(text);
    parsed = sta::read_design_checked(is, sta::generic_library(), &report);
  } catch (...) {
    std::abort();  // the checked API promises "never throws"
  }
  if (!parsed.is_ok()) {
    // A rejection must explain itself, in the Status and in the mirror.
    if (parsed.status().is_ok()) std::abort();
    if (report.error_count() == 0) std::abort();
    return 0;
  }

  const sta::Design& design = parsed.value();
  if (design.topo_nets.size() != design.nets.size()) std::abort();
  if (design.tap_offset.size() != design.nets.size() + 1) std::abort();
  std::size_t taps = 0;
  for (std::size_t ni = 0; ni < design.nets.size(); ++ni) {
    const sta::Net& net = design.nets[ni];
    if (net.driver_kind == sta::DriverKind::kNone) std::abort();
    if (net.flat.size() != net.tree.size()) std::abort();
    if (net.epoch != design.epoch) std::abort();
    if (design.tap_offset[ni] != taps) std::abort();
    taps += net.taps.size();
  }
  if (design.tap_offset.back() != taps) std::abort();
  for (std::size_t i = 0; i < design.nets.size(); ++i) {
    if (design.find_net(design.nets[i].name) != static_cast<int>(i)) std::abort();
  }
  for (std::size_t i = 0; i < design.instances.size(); ++i) {
    if (design.find_instance(design.instances[i].name) != static_cast<int>(i)) std::abort();
  }
  for (std::size_t i = 0; i < design.ports.size(); ++i) {
    if (design.find_port(design.ports[i].name) != static_cast<int>(i)) std::abort();
  }

  try {
    util::Result<sta::TimingGraph> graph = sta::TimingGraph::build_checked(design);
    if (!graph.is_ok()) std::abort();  // an accepted design must build
    sta::AnalyzeOptions options;
    options.fault_policy = util::FaultPolicy::kSkipAndFlag;
    const util::Result<sta::TimingResult> result = graph.value().analyze_checked(options);
    if (!result.is_ok()) std::abort();  // flag policy: faults stay in-band
    if (result.value().nets.size() != design.nets.size()) std::abort();
    if (result.value().taps.size() != taps || result.value().wire_delay.size() != taps) {
      std::abort();
    }
    const sta::TimingSummary& summary = result.value().summary;
    std::vector<double> terms;
    double wns = 0.0;
    bool constrained = false;
    for (const sta::EndpointSlack& row : summary.endpoints_by_slack) {
      if (!row.timed || !row.constrained) continue;
      if (!constrained) wns = row.slack;
      constrained = true;
      if (row.slack < 0.0) terms.push_back(row.slack);
    }
    const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
    if (bits(summary.tns) != bits(util::reference::exact_sum(terms))) std::abort();
    if (bits(summary.wns) != bits(wns)) std::abort();
  } catch (...) {
    std::abort();  // no exception may cross the corpus phase
  }
  return 0;
}
