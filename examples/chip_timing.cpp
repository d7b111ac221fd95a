/// \file chip_timing.cpp
/// The chip-scale flow through the relmore::Timer façade: load a small
/// design corpus (three nets, two gates), print the timing summary, the
/// worst path in report_timing style, and per-endpoint slack — then show
/// the same flow on a larger synthetic design where the corpus-sharded
/// analysis kicks in. Every call is Result-based; nothing here can throw.

#include <iostream>
#include <sstream>

#include "relmore/timer.hpp"

namespace {

// A three-stage corpus: input port -> wire -> inverter -> wire -> buffer
// -> wire -> output port. `cell` lines extend the generic library; values
// take SPICE SI suffixes. Format reference: docs/sta.md.
constexpr const char* kCorpus = R"(design demo
cell inv_d1 r=1k cap=10f intrinsic=1p slewgain=0.1
cell buf_d2 r=500 cap=12f intrinsic=4p slewgain=0.1
net n_in
section s0 - R=800 L=2n C=15f
section s1 s0 R=800 L=2n C=15f
end
net n_mid
section s0 - R=600 L=1n C=20f
end
net n_out
section s0 - R=400 L=0 C=30f
end
input clk n_in at=0 slew=5p
output q n_out:s0 required=300p
inst u_inv inv_d1 n_mid n_in:s1
inst u_buf buf_d2 n_out n_mid:s0
clock 1n
)";

}  // namespace

int main() {
  using namespace relmore;

  // --- Load + time the hand-written corpus -------------------------------
  Timer timer;
  std::istringstream corpus(kCorpus);
  util::DiagnosticsReport report;
  if (util::Status s = timer.load(corpus, sta::generic_library(), &report); !s.is_ok()) {
    std::cerr << "load failed: " << s.to_string() << "\n" << report.to_string();
    return 1;
  }

  // report_timing prints the summary plus the k worst paths; slack() is a
  // point query (both analyze lazily and share the cached result).
  if (util::Status s = timer.report_timing(std::cout, 1); !s.is_ok()) {
    std::cerr << s.to_string() << "\n";
    return 1;
  }
  const util::Result<double> q_slack = timer.slack("q");
  if (q_slack.is_ok()) {
    std::cout << "\nslack(q) = " << q_slack.value() * 1e12 << " ps\n";
  }

  // --- The same flow at corpus scale -------------------------------------
  // A seeded synthetic design, its nets analyzed across a worker pool.
  // Results are bitwise-identical whatever `options.threads` asks for —
  // the thread count only schedules the work.
  sta::SyntheticSpec spec;
  spec.nets = 512;
  spec.seed = 7;
  spec.topo_classes = 8;
  spec.chain_depth = 4;
  util::Result<sta::Design> synthetic = sta::make_synthetic_design_checked(spec);
  if (!synthetic.is_ok()) {
    std::cerr << synthetic.status().to_string() << "\n";
    return 1;
  }
  Timer big;
  if (util::Status s = big.load(std::move(synthetic).value()); !s.is_ok()) {
    std::cerr << s.to_string() << "\n";
    return 1;
  }
  sta::AnalyzeOptions options;
  options.threads = 2;
  const util::Result<sta::TimingSummary> summary = big.analyze(options);
  if (!summary.is_ok()) {
    std::cerr << summary.status().to_string() << "\n";
    return 1;
  }
  std::cout << "\n" << sta::format_summary(summary.value());
  std::cout << big.design()->nets.size() << " nets timed\n";
  return 0;
}
