/// \file sta_incremental.cpp
/// Full-vs-incremental re-timing latency on the chip-scale corpus: the
/// what-if loop the edit API exists for. For each corpus size the bench
/// measures
///
///   retime full        — one cold single-thread
///                        TimingGraph::analyze_checked pass (no corpus
///                        cache): what a non-incremental client pays per
///                        what-if query
///   retime edit f=F%   — one Timer::edit() transaction editing F% of the
///                        nets (wire value edits, the common what-if) and
///                        committing: staged values + re-snapshot + cache
///                        restamp + dirty-cone update_checked, in place
///
/// Rows reuse the shared BenchRow schema with n = nets in the corpus,
/// samples = edits per commit, ns_per_section = ns per net per pass, and
/// speedup = full-pass ns / incremental-commit ns — the number the
/// committed BENCH_sta_incremental.json baseline gates in CI. The edit
/// sequences are SplitMix64-deterministic, and every cell ends with a
/// bitwise WNS/TNS check of the in-place result against a from-scratch
/// analysis of the edited design (the exhaustive per-point check lives in
/// tests/sta/retime_property_test.cpp).
/// `--json <path>` writes the rows; `--quick` times each cell for less
/// long, for CI. Both run the same grid: 200 and 2000 nets at f = 0.1%,
/// 1% and 5%, and 20 000 nets at f = 0.01% only. Those two-edit cells —
/// f = 0.1% of 2000 nets and f = 0.01% of 20 000 — commit a cone of a few
/// nets, so any work a commit does per net of the design shows in them,
/// and ten times more plainly in the 20 000-net one.

#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "relmore/relmore.hpp"
#include "relmore/timer.hpp"

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

/// Repeats `body` (one full pass / one commit over an `nets`-net corpus)
/// until `min_seconds` elapsed, warm-up pass excluded.
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

/// SplitMix64: deterministic edit sequences across platforms and runs.
struct Rng {
  std::uint64_t state;
  std::uint64_t next() {
    state += 0x9E3779B97F4A7C15ULL;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  std::size_t below(std::size_t n) { return static_cast<std::size_t>(next() % n); }
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
};

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Records `edits` deterministic wire value edits on a fresh transaction
/// and commits it. Returns the in-place WNS, or NaN when the commit was
/// rejected or fell back to a full re-analysis (both are bench failures).
double commit_random_edits(Timer& timer, Rng& rng, std::size_t edits) {
  const sta::Design& design = *timer.design();
  Timer::Edit edit = timer.edit();
  for (std::size_t e = 0; e < edits; ++e) {
    const sta::Net& net = design.nets[rng.below(design.nets.size())];
    circuit::SectionValues wire;
    wire.resistance = 10.0 + 120.0 * rng.unit();
    wire.inductance = rng.below(2) == 0 ? 0.0 : 1e-12 * rng.unit();
    wire.capacitance = 4e-15 + 50e-15 * rng.unit();
    if (!edit.set_net_section_values(net.name, "s0", wire).is_ok()) {
      return std::numeric_limits<double>::quiet_NaN();
    }
  }
  const util::Result<Timer::EditOutcome> out = edit.commit();
  if (!out.is_ok() || !out.value().incremental) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  return timer.result()->summary.wns;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--quick") quick = true;
  }
  const std::string json_path = benchio::json_path_from_args(argc, argv);
  const double min_seconds = quick ? 0.02 : 0.3;

  // Quick and full runs share the grid, so a --quick CI run's keys all
  // exist in the committed baseline (bench_regress compares the
  // intersection). 2000 nets is the acceptance corpus; 20 000 nets runs
  // only its two-edit cell: its larger edits would re-time cones the
  // 2000-net cells already cover, at ten times the run time.
  struct Corpus {
    std::size_t nets;
    std::vector<double> fractions;
  };
  const Corpus grid[] = {
      {200, {0.001, 0.01, 0.05}},
      {2000, {0.001, 0.01, 0.05}},
      {20000, {0.0001}},
  };

  std::vector<benchio::BenchRow> rows;
  util::Table table({"config", "nets", "edits", "us/pass", "ns/net", "speedup"});
  double checksum = 0.0;
  bool checks_ok = true;

  for (const Corpus& corpus : grid) {
    const std::size_t nets = corpus.nets;
    sta::SyntheticSpec spec;
    spec.nets = nets;
    spec.seed = 1;
    spec.topo_classes = 8;
    spec.chain_depth = 4;
    util::Result<sta::Design> made = sta::make_synthetic_design_checked(spec);
    if (!made.is_ok()) {
      std::cerr << "sta_incremental: " << made.status().to_string() << "\n";
      return 1;
    }

    Timer timer;
    if (util::Status s = timer.load(std::move(made).value()); !s.is_ok()) {
      std::cerr << "sta_incremental: " << s.to_string() << "\n";
      return 1;
    }
    if (const util::Result<sta::TimingSummary> warm = timer.analyze(); !warm.is_ok()) {
      std::cerr << "sta_incremental: " << warm.status().to_string() << "\n";
      return 1;
    }

    // The graph is structure-only; value edits never invalidate it, and the
    // Timer keeps its Design at a stable address. No corpus cache = the
    // cold full pass a non-incremental client runs. One thread, like the
    // commit: a pool started per analyze call costs from ~0.1 to several ms
    // depending on the host, which would move every speedup cell with it.
    const util::Result<sta::TimingGraph> graph = sta::TimingGraph::build_checked(*timer.design());
    if (!graph.is_ok()) {
      std::cerr << "sta_incremental: " << graph.status().to_string() << "\n";
      return 1;
    }
    sta::AnalyzeOptions cold;
    cold.threads = 1;

    const auto add_row = [&](const std::string& name, std::size_t edits, const Measured& m,
                             double full_ns) {
      checksum += m.checksum;
      const double speedup = full_ns / m.ns_per_net;
      table.add_row({name, std::to_string(nets), std::to_string(edits),
                     util::Table::fmt(m.ns_per_net * static_cast<double>(nets) * 1e-3, 2),
                     util::Table::fmt(m.ns_per_net, 3), util::Table::fmt(speedup, 2)});
      rows.push_back({name, nets, edits == 0 ? 1 : edits, m.ns_per_net, speedup});
    };

    const Measured full = time_pass(nets, min_seconds, [&] {
      const util::Result<sta::TimingResult> r = graph.value().analyze_checked(cold);
      return r.is_ok() ? r.value().summary.wns : std::numeric_limits<double>::quiet_NaN();
    });
    add_row("retime full", 0, full, full.ns_per_net);

    Rng rng{0x1C0DE5EEDULL ^ nets};
    for (const double fraction : corpus.fractions) {
      const std::size_t edits = std::max<std::size_t>(
          1, static_cast<std::size_t>(std::llround(fraction * static_cast<double>(nets))));
      const Measured inc = time_pass(nets, min_seconds,
                                     [&] { return commit_random_edits(timer, rng, edits); });
      std::string label = "retime edit f=" + util::Table::fmt(fraction * 100.0, 1) + "%";
      add_row(label, edits, inc, full.ns_per_net);

      // Bitwise self-check: the in-place result after one more committed
      // edit must match a from-scratch analysis of the edited design.
      const double in_place = commit_random_edits(timer, rng, edits);
      const util::Result<sta::TimingResult> scratch = graph.value().analyze_checked(cold);
      if (std::isnan(in_place) || !scratch.is_ok() ||
          bits(in_place) != bits(scratch.value().summary.wns) ||
          bits(timer.result()->summary.tns) != bits(scratch.value().summary.tns)) {
        std::cerr << "sta_incremental: in-place result drifted from full analysis at n=" << nets
                  << " " << label << "\n";
        checks_ok = false;
      }
    }
  }

  table.print(std::cout, "incremental re-timing vs full analysis");
  std::cout << "\nchecksum " << checksum << "\n";
  if (!checks_ok || std::isnan(checksum)) {
    std::cerr << "sta_incremental: bitwise/commit self-check failed\n";
    return 1;
  }

  if (!json_path.empty()) {
    if (!benchio::write_bench_json(json_path, rows)) {
      std::cerr << "sta_incremental: cannot write " << json_path << "\n";
      return 1;
    }
    std::cout << "wrote " << json_path << "\n";
  }
  return 0;
}
