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
/// BENCH_sta.json. Results are bitwise-identical across every measured
/// configuration (asserted here, not just in the unit tests).
/// `--json <path>` writes the rows; `--quick` shrinks the corpus for CI.

#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <iostream>
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

/// Repeats `body` (one full pass over `nets` nets) until `min_seconds`
/// elapsed, warm-up pass excluded.
template <typename Body>
Measured time_pass(std::size_t nets, double min_seconds, const Body& body) {
  Measured m;
  m.checksum += body();  // warm-up
  std::size_t reps = 0;
  const auto t0 = Clock::now();
  double elapsed = 0.0;
  do {
    m.checksum += body();
    ++reps;
    elapsed = seconds_since(t0);
  } while (elapsed < min_seconds);
  m.ns_per_net = elapsed * 1e9 / static_cast<double>(reps * nets);
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--quick") quick = true;
  }
  const std::string json_path = benchio::json_path_from_args(argc, argv);
  const double min_seconds = quick ? 0.02 : 0.3;

  sta::SyntheticSpec spec;
  spec.nets = quick ? 200 : 2000;  // measured configuration: >= 1000 nets
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

  const auto add_row = [&](const std::string& name, const Measured& m, double baseline_ns) {
    checksum += m.checksum;
    const double speedup = baseline_ns / m.ns_per_net;
    table.add_row({name, std::to_string(nets), std::to_string(design.endpoint_count()),
                   util::Table::fmt(m.ns_per_net, 3),
                   util::Table::fmt(1e9 / m.ns_per_net, 4), util::Table::fmt(speedup, 2)});
    rows.push_back({name, nets, 1, m.ns_per_net, speedup});
  };

  // --- Phase 1: corpus load (parse -> resolve -> snapshot -> levelize) ----
  const Measured load = time_pass(nets, min_seconds, [&] {
    std::istringstream is(text);
    const util::Result<sta::Design> d = sta::read_design_checked(is);
    return d.is_ok() ? d.value().nets.front().total_cap : -1.0;
  });
  add_row("corpus load", load, load.ns_per_net);

  // --- Phase 2: full timing analysis at each thread count ----------------
  const util::Result<sta::TimingGraph> graph = sta::TimingGraph::build_checked(design);
  if (!graph.is_ok()) {
    std::cerr << "sta_throughput: " << graph.status().to_string() << "\n";
    return 1;
  }
  double t1_ns = 0.0;
  double reference_wns = 0.0;
  for (const unsigned threads : {1U, 0U}) {
    sta::AnalyzeOptions options;
    options.threads = threads;
    const Measured m = time_pass(nets, min_seconds, [&] {
      const util::Result<sta::TimingResult> r = graph.value().analyze_checked(options);
      if (!r.is_ok()) return -1.0;
      return r.value().summary.wns;
    });
    // The thread count must not move a single bit of the answer.
    const util::Result<sta::TimingResult> check = graph.value().analyze_checked(options);
    if (!check.is_ok()) {
      std::cerr << "sta_throughput: " << check.status().to_string() << "\n";
      return 1;
    }
    if (threads == 1) {
      reference_wns = check.value().summary.wns;
      t1_ns = m.ns_per_net;
    } else if (std::bit_cast<std::uint64_t>(check.value().summary.wns) !=
               std::bit_cast<std::uint64_t>(reference_wns)) {
      std::cerr << "sta_throughput: WNS drifted across thread counts\n";
      return 1;
    }
    add_row("timing t=" + std::to_string(threads), m, t1_ns);
  }

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
