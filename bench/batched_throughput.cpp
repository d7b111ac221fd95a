/// \file batched_throughput.cpp
/// Throughput of the batched same-topology kernel vs S independent
/// scalar `eed::analyze` calls — the Monte-Carlo / candidate-sweep shape
/// (one topology, S value samples, one queried sink).
///
/// Layers are measured so each win is attributable:
///   scalar AoS      — S × eed::analyze(RlcTree)    (the pre-kernel cost)
///   scalar SoA      — S × eed::analyze_values      (layout only; fixed
///                     topology, reused result — the sweep-loop form)
///   batched W=…     — one BatchedAnalyzer sweep    (layout + lane blocks)
///   batched auto    — lane width and tile from util::KernelTuner
///   batched +pool   — lane-groups fanned across the WorkerPool
///
/// Throughput metric: section·samples per second; the table reports
/// ns per section·sample and the speedup over the scalar AoS baseline.
/// `--json <path>` additionally writes machine-readable rows (see
/// json_out.hpp); the checked-in baseline lives in BENCH_batched.json.
/// `--quick` shrinks reps and the size grid for CI smoke runs.

#include <chrono>
#include <cstring>
#include <iostream>
#include <string>

#include "relmore/relmore.hpp"

#include "json_out.hpp"

namespace {

using namespace relmore;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Per-sample values: the nominal tree mildly perturbed, deterministic in
/// the sample index (what the Monte-Carlo workload does, minus the RNG
/// cost, which both paths would pay identically).
void fill_sample(const circuit::FlatTree& flat, std::size_t s, std::vector<double>& r,
                 std::vector<double>& l, std::vector<double>& c) {
  const double f = 1.0 + 1e-3 * static_cast<double>(s % 97);
  for (std::size_t k = 0; k < flat.size(); ++k) {
    r[k] = flat.resistance()[k] * f;
    l[k] = flat.inductance()[k];
    c[k] = flat.capacitance()[k] * f;
  }
}

struct Measured {
  double ns_per_section = 0.0;
  double checksum = 0.0;
};

/// Repeats `body` (one full S-sample pass) until ~`min_seconds` elapsed.
template <typename Body>
Measured time_pass(std::size_t n, std::size_t samples, double min_seconds, const Body& body) {
  Measured m;
  m.checksum += body();  // warm-up (and first timed unit below re-runs it)
  std::size_t reps = 0;
  const auto t0 = Clock::now();
  double elapsed = 0.0;
  do {
    m.checksum += body();
    ++reps;
    elapsed = seconds_since(t0);
  } while (elapsed < min_seconds);
  m.ns_per_section = elapsed * 1e9 / static_cast<double>(reps * n * samples);
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = benchio::json_path_from_args(argc, argv);
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--quick") quick = true;
  }
  const double min_seconds = quick ? 0.02 : 0.2;
  std::vector<benchio::BenchRow> rows;
  util::Table table({"config", "sections", "samples", "ns/(section*sample)", "Msection*samples/s",
                     "speedup vs scalar AoS"});
  double checksum = 0.0;

  // n = 2^levels - 1 balanced binary trees; the acceptance point is
  // n=1023, S=256, and the n=16383 rows cover the beyond-L2 regime the
  // tiled sweeps target. The n sweep shows where the batched win saturates.
  const std::size_t kSamples = 256;
  for (const int levels : (quick ? std::vector<int>{8, 10} : std::vector<int>{8, 10, 12, 14})) {
    const circuit::RlcTree tree =
        circuit::make_balanced_tree(levels, 2, {10.0, 1e-9, 0.1e-12});
    const circuit::FlatTree flat(tree);
    const std::size_t n = tree.size();
    const circuit::SectionId sink = flat.leaves().front();

    // Pre-generate the S per-sample value sets once; every config below
    // consumes the same values, so only the execution plan differs.
    std::vector<std::vector<double>> rv(kSamples), lv(kSamples), cv(kSamples);
    for (std::size_t s = 0; s < kSamples; ++s) {
      rv[s].resize(n);
      lv[s].resize(n);
      cv[s].resize(n);
      fill_sample(flat, s, rv[s], lv[s], cv[s]);
    }
    // Mutable AoS copy for the scalar baseline (same values per sample).
    circuit::RlcTree scratch = tree;

    const auto add_row = [&](const std::string& name, const Measured& m, double baseline_ns) {
      checksum += m.checksum;
      const double speedup = baseline_ns / m.ns_per_section;
      table.add_row({name, std::to_string(n), std::to_string(kSamples),
                     util::Table::fmt(m.ns_per_section, 3),
                     util::Table::fmt(1e3 / m.ns_per_section, 1),
                     util::Table::fmt(speedup, 2)});
      rows.push_back({name, n, kSamples, m.ns_per_section, speedup});
    };

    // (a) Scalar AoS: S independent whole-tree analyses.
    const Measured scalar_aos = time_pass(n, kSamples, min_seconds, [&] {
      double acc = 0.0;
      for (std::size_t s = 0; s < kSamples; ++s) {
        for (std::size_t k = 0; k < n; ++k) {
          auto& v = scratch.values(static_cast<circuit::SectionId>(k));
          v.resistance = rv[s][k];
          v.inductance = lv[s][k];
          v.capacitance = cv[s][k];
        }
        acc += eed::analyze(scratch).at(sink).sum_rc;
      }
      return acc;
    });
    add_row("scalar AoS (S x eed::analyze)", scalar_aos, scalar_aos.ns_per_section);

    // (b) Scalar SoA: the same S analyses as sweep-loop re-analyses of
    // the fixed flat topology (eed::analyze_values) — the topology is
    // snapshotted once and the TreeModel is reused, so this measures the
    // SoA layout itself rather than per-call FlatTree construction.
    eed::TreeModel soa_model;
    const Measured scalar_soa = time_pass(n, kSamples, min_seconds, [&] {
      double acc = 0.0;
      for (std::size_t s = 0; s < kSamples; ++s) {
        eed::analyze_values(flat, rv[s].data(), lv[s].data(), cv[s].data(), soa_model);
        acc += soa_model.at(sink).sum_rc;
      }
      return acc;
    });
    add_row("scalar SoA (S x analyze_values)", scalar_soa, scalar_aos.ns_per_section);

    // (c) Batched kernel, single thread, lane widths 1/4/8.
    for (const std::size_t w :
         {std::size_t{0}, std::size_t{1}, std::size_t{4}, std::size_t{8}}) {
      engine::BatchedAnalyzer batch(flat, w);
      batch.resize(kSamples);
      const Measured m = time_pass(n, kSamples, min_seconds, [&] {
        for (std::size_t s = 0; s < kSamples; ++s) {
          batch.set_sample(s, rv[s].data(), lv[s].data(), cv[s].data());
        }
        const engine::BatchedModels models = batch.analyze_nodes({sink});
        double acc = 0.0;
        for (std::size_t s = 0; s < kSamples; ++s) acc += models.sum_rc(s, sink);
        return acc;
      });
      const std::string name = w == 0 ? "batched auto (W=" + std::to_string(batch.lane_width()) +
                                            ", tuner tile)"
                                      : "batched W=" + std::to_string(w);
      add_row(name, m, scalar_aos.ns_per_section);
    }

    // (d) Streaming batched kernel: the fill lands in the group's AoSoA
    // block and is analyzed while cache-hot, so sample values never
    // round-trip through memory (the Monte-Carlo execution plan).
    for (const std::size_t w : {std::size_t{4}, std::size_t{8}}) {
      engine::BatchedAnalyzer batch(flat, w);
      const Measured m = time_pass(n, kSamples, min_seconds, [&] {
        const engine::BatchedModels models = batch.analyze_stream(
            kSamples,
            [&](std::size_t s, double* r, double* l, double* c) {
              std::memcpy(r, rv[s].data(), n * sizeof(double));
              std::memcpy(l, lv[s].data(), n * sizeof(double));
              std::memcpy(c, cv[s].data(), n * sizeof(double));
            },
            {sink});
        double acc = 0.0;
        for (std::size_t s = 0; s < kSamples; ++s) acc += models.sum_rc(s, sink);
        return acc;
      });
      add_row("batched W=" + std::to_string(w) + " stream", m, scalar_aos.ns_per_section);
    }

    // (e) Batched W=8 with lane-groups fanned across the pool
    // (RELMORE_THREADS-respecting default).
    {
      engine::BatchedAnalyzer batch(flat, 8);
      batch.resize(kSamples);
      util::WorkerPool pool;
      const Measured m = time_pass(n, kSamples, min_seconds, [&] {
        pool.parallel_chunks(kSamples, [&](std::size_t begin, std::size_t end) {
          for (std::size_t s = begin; s < end; ++s) {
            batch.set_sample(s, rv[s].data(), lv[s].data(), cv[s].data());
          }
        });
        const engine::BatchedModels models = batch.analyze_nodes({sink}, &pool);
        double acc = 0.0;
        for (std::size_t s = 0; s < kSamples; ++s) acc += models.sum_rc(s, sink);
        return acc;
      });
      add_row("batched W=8 + pool(" + std::to_string(pool.thread_count()) + ")", m,
              scalar_aos.ns_per_section);
    }
  }

  table.print(std::cout,
              "Batched same-topology kernel vs S independent scalar analyses (S = 256)");
  std::cout << "\nCSV:\n";
  table.print_csv(std::cout);
  std::cout << "\nShape check: the SoA layout alone buys part of the win (no name\n"
               "strings in the sweep, no per-call result allocation); the lane\n"
               "blocks buy the rest (W samples advance per loop iteration), and\n"
               "the tiled downward sweep holds the win past L2 (n=16383). The\n"
               "acceptance point is >= 3x at n=1023, S=256 for the batched kernel.\n"
               "(checksum " << (checksum == checksum ? "ok" : "NAN") << ")\n";

  if (!json_path.empty()) {
    if (!benchio::write_bench_json(json_path, rows)) {
      std::cerr << "failed to write " << json_path << "\n";
      return 1;
    }
    std::cout << "wrote " << rows.size() << " rows to " << json_path << "\n";
  }
  return 0;
}
