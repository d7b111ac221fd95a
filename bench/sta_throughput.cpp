/// \file sta_throughput.cpp
/// Chip-scale static timing throughput: a synthetic corpus (>= 1000 nets
/// in the measured configuration) loaded through the corpus reader and
/// timed end to end through relmore::Timer / the TimingGraph flow.
///
/// Phases and what each one attributes:
///   corpus load      — read_design_checked on the generated text: parse,
///                      resolve, fold pin caps, snapshot, levelize
///   timing t=1       — full analyze (corpus moments + propagation) on
///                      one thread: the per-net baseline
///   timing t=0       — the same at the default thread count
///                      (RELMORE_THREADS, else the hardware default)
///
/// The unit is one *net* (a whole stage: wire moments + gate lookup +
/// propagation share), so the headline number is nets/second. Rows reuse
/// the shared BenchRow schema with n = nets in the design and
/// ns_per_section = ns per net; the checked-in baseline lives in
/// BENCH_sta.json. Every speedup is a same-run ratio against `timing
/// t=1`: for `corpus load` it is analyze ns/net ÷ load ns/net, so 1 means
/// loading a net costs what analysing it does, and a loader that turns
/// quadratic in the net count drops it at once. The three phases take
/// their passes in turn and each keeps its fastest. Results are
/// bitwise-identical across every measured configuration (asserted here,
/// not just in the unit tests). `--json <path>` writes the rows;
/// `--quick` times fewer rounds over the same 2000-net corpus, large
/// enough for a quadratic loader to show.

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "relmore/relmore.hpp"

#include "json_out.hpp"

namespace {

using namespace relmore;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Measured {
  double ns_per_net = 0.0;
  double checksum = 0.0;
};

/// Times `phases` (each one full pass over `nets` nets) in rounds of one
/// pass each until `min_seconds` elapsed, warm-up round excluded, and keeps
/// each phase's fastest pass. Every speedup divides two phases; taking
/// their passes in turn makes a slow spell of a shared host hit both sides
/// of the ratio, and the fastest pass is the one it touched least.
std::vector<Measured> time_rounds(std::size_t nets, double min_seconds,
                                  const std::vector<std::function<double()>>& phases) {
  std::vector<Measured> m(phases.size());
  std::vector<double> fastest(phases.size(), std::numeric_limits<double>::infinity());
  for (std::size_t i = 0; i < phases.size(); ++i) m[i].checksum += phases[i]();  // warm-up
  const auto t0 = Clock::now();
  do {
    for (std::size_t i = 0; i < phases.size(); ++i) {
      const auto pass = Clock::now();
      m[i].checksum += phases[i]();
      fastest[i] = std::min(fastest[i], seconds_since(pass));
    }
  } while (seconds_since(t0) < min_seconds);
  for (std::size_t i = 0; i < phases.size(); ++i) {
    m[i].ns_per_net = fastest[i] * 1e9 / static_cast<double>(nets);
  }
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--quick") quick = true;
  }
  const std::string json_path = benchio::json_path_from_args(argc, argv);
  const double min_seconds = quick ? 0.5 : 1.5;

  sta::SyntheticSpec spec;
  spec.nets = 2000;  // measured configuration: >= 1000 nets
  spec.seed = 1;
  spec.topo_classes = 8;
  spec.chain_depth = 4;
  const std::string text = sta::make_synthetic_design_text(spec);

  std::istringstream first(text);
  util::Result<sta::Design> parsed = sta::read_design_checked(first);
  if (!parsed.is_ok()) {
    std::cerr << "sta_throughput: synthetic design rejected: "
              << parsed.status().to_string() << "\n";
    return 1;
  }
  const sta::Design design = std::move(parsed).value();
  const std::size_t nets = design.nets.size();

  std::vector<benchio::BenchRow> rows;
  util::Table table({"config", "nets", "endpoints", "ns/net", "nets/sec", "speedup"});
  double checksum = 0.0;

  const auto add_row = [&](const std::string& name, const Measured& m, double t1_ns) {
    checksum += m.checksum;
    const double speedup = t1_ns / m.ns_per_net;
    table.add_row({name, std::to_string(nets), std::to_string(design.endpoint_count()),
                   util::Table::fmt(m.ns_per_net, 3),
                   util::Table::fmt(1e9 / m.ns_per_net, 4), util::Table::fmt(speedup, 2)});
    rows.push_back({name, nets, 1, m.ns_per_net, speedup});
  };

  const util::Result<sta::TimingGraph> graph = sta::TimingGraph::build_checked(design);
  if (!graph.is_ok()) {
    std::cerr << "sta_throughput: " << graph.status().to_string() << "\n";
    return 1;
  }
  sta::AnalyzeOptions one_thread;
  one_thread.threads = 1;
  sta::AnalyzeOptions default_threads;
  default_threads.threads = 0;
  const auto timing = [&graph](const sta::AnalyzeOptions& options) {
    return [&graph, options] {
      const util::Result<sta::TimingResult> r = graph.value().analyze_checked(options);
      return r.is_ok() ? r.value().summary.wns : -1.0;
    };
  };
  const std::vector<Measured> m = time_rounds(
      nets, min_seconds,
      {// corpus load: parse -> resolve -> fold -> snapshot -> levelize
       [&] {
         std::istringstream is(text);
         const util::Result<sta::Design> d = sta::read_design_checked(is);
         return d.is_ok() ? d.value().nets.front().total_cap : -1.0;
       },
       // full timing analysis at one thread and at the default count
       timing(one_thread), timing(default_threads)});

  // The thread count must not move a single bit of the answer.
  const util::Result<sta::TimingResult> reference = graph.value().analyze_checked(one_thread);
  const util::Result<sta::TimingResult> threaded = graph.value().analyze_checked(default_threads);
  if (!reference.is_ok() || !threaded.is_ok()) {
    std::cerr << "sta_throughput: "
              << (reference.is_ok() ? threaded.status() : reference.status()).to_string() << "\n";
    return 1;
  }
  const double reference_wns = reference.value().summary.wns;
  if (std::bit_cast<std::uint64_t>(threaded.value().summary.wns) !=
      std::bit_cast<std::uint64_t>(reference_wns)) {
    std::cerr << "sta_throughput: WNS drifted across thread counts\n";
    return 1;
  }
  add_row("corpus load", m[0], m[1].ns_per_net);
  add_row("timing t=1", m[1], m[1].ns_per_net);
  add_row("timing t=0", m[2], m[1].ns_per_net);

  table.print(std::cout, "static timing throughput (" + design.name + ")");
  std::cout << "\nWNS " << reference_wns * 1e12 << " ps, checksum " << checksum << "\n";

  if (!json_path.empty()) {
    if (!benchio::write_bench_json(json_path, rows)) {
      std::cerr << "sta_throughput: cannot write " << json_path << "\n";
      return 1;
    }
    std::cout << "wrote " << json_path << "\n";
  }
  return 0;
}
