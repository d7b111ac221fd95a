#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdlib>
#include <utility>
#include <vector>

#include "relmore/sta/corpus.hpp"
#include "relmore/sta/synthetic.hpp"
#include "relmore/sta/timing_graph.hpp"
#include "relmore/util/diagnostics.hpp"

namespace relmore::sta {
namespace {

using util::ErrorCode;

/// The corpus contract under test: the thread count (and its env
/// override) never changes a single output bit.
/// Doubles are compared through their bit patterns, not ==, so a -0.0/+0.0
/// or ULP drift would fail loudly.

Design synthetic_design() {
  SyntheticSpec spec;
  spec.nets = 64;
  spec.seed = 5;
  spec.topo_classes = 6;
  spec.chain_depth = 4;
  util::Result<Design> r = make_synthetic_design_checked(spec);
  EXPECT_TRUE(r.is_ok()) << r.status().to_string();
  return std::move(r).value();
}

void push(std::vector<std::uint64_t>& out, double v) {
  out.push_back(std::bit_cast<std::uint64_t>(v));
}

std::vector<std::uint64_t> bits_of(const CorpusModels& corpus) {
  std::vector<std::uint64_t> out;
  for (const NetModels& net : corpus.nets) {
    out.push_back(net.faulted ? 1 : 0);
    for (const eed::NodeModel& m : net.taps) {
      push(out, m.sum_rc);
      push(out, m.sum_lc);
      push(out, m.zeta);
      push(out, m.omega_n);
    }
  }
  return out;
}

std::vector<std::uint64_t> bits_of(const TimingResult& r) {
  std::vector<std::uint64_t> out;
  for (const NetTiming& nt : r.nets) {
    out.push_back(nt.faulted ? 1 : 0);
    push(out, nt.driver.arrival);
    push(out, nt.driver.slew);
    push(out, nt.driver.required);
  }
  for (const PointTiming& t : r.taps) {
    push(out, t.arrival);
    push(out, t.slew);
    push(out, t.required);
  }
  for (const double w : r.wire_delay) push(out, w);
  push(out, r.summary.wns);
  push(out, r.summary.tns);
  for (const EndpointSlack& e : r.summary.endpoints_by_slack) push(out, e.slack);
  return out;
}

CorpusModels run_corpus(const Design& d, const AnalyzeOptions& options) {
  util::Result<CorpusModels> r = analyze_corpus_checked(d, options);
  EXPECT_TRUE(r.is_ok()) << r.status().to_string();
  return std::move(r).value();
}

TimingResult run_timing(const Design& d, const AnalyzeOptions& options) {
  util::Result<TimingResult> r =
      TimingGraph::build_checked(d).value().analyze_checked(options);
  EXPECT_TRUE(r.is_ok()) << r.status().to_string();
  return std::move(r).value();
}

TEST(Determinism, CorpusBitwiseAcrossThreadsAndLaneWidths) {
  const Design d = synthetic_design();
  AnalyzeOptions base;
  base.threads = 1;
  const std::vector<std::uint64_t> reference = bits_of(run_corpus(d, base));
  ASSERT_FALSE(reference.empty());
  for (const unsigned threads : {2u, 4u}) {
    AnalyzeOptions o;
    o.threads = threads;
    EXPECT_EQ(bits_of(run_corpus(d, o)), reference) << "threads=" << threads;
  }
}

TEST(Determinism, TimingResultBitwiseAcrossExecutionKnobs) {
  const Design d = synthetic_design();
  AnalyzeOptions base;
  base.threads = 1;
  const TimingResult ref = run_timing(d, base);
  const std::vector<std::uint64_t> reference = bits_of(ref);
  EXPECT_EQ(ref.summary.untimed_endpoints, 0u);
  EXPECT_EQ(ref.summary.faulted_nets, 0u);
  for (const unsigned threads : {2u, 4u}) {
    AnalyzeOptions o;
    o.threads = threads;
    EXPECT_EQ(bits_of(run_timing(d, o)), reference) << "threads=" << threads;
  }
}

TEST(Determinism, EnvThreadOverrideDoesNotChangeResults) {
  const Design d = synthetic_design();
  AnalyzeOptions base;
  base.threads = 2;
  const std::vector<std::uint64_t> reference = bits_of(run_timing(d, base));

  ASSERT_EQ(setenv("RELMORE_THREADS", "4", 1), 0);
  AnalyzeOptions from_env;  // threads = 0: engine reads RELMORE_THREADS
  const std::vector<std::uint64_t> via_env = bits_of(run_timing(d, from_env));
  unsetenv("RELMORE_THREADS");
  EXPECT_EQ(via_env, reference);
}

// A tap node outside its net is that net's own data fault: the net comes
// back faulted with kInvalidArgument naming it and the node, is not a
// transient to retry or quarantine, and leaves every other net's bits as a
// clean run has them.
TEST(Corpus, TapNodeOutsideItsNetFaultsOnlyThatNet) {
  Design d = synthetic_design();
  const std::vector<std::uint64_t> clean = bits_of(run_corpus(d, AnalyzeOptions{}));
  constexpr std::size_t kBad = 5;
  ASSERT_FALSE(d.nets[kBad].taps.empty());
  d.nets[kBad].taps.back().node = 999;
  ASSERT_LT(d.nets[kBad].flat.size(), 999u);
  for (const unsigned threads : {1u, 2u}) {
    AnalyzeOptions o;
    o.threads = threads;
    CorpusModels corpus = run_corpus(d, o);
    EXPECT_EQ(corpus.faulted_nets, 1u) << threads;
    EXPECT_EQ(corpus.quarantined_nets, 0u) << threads;
    const NetModels& bad = corpus.nets[kBad];
    EXPECT_TRUE(bad.faulted);
    EXPECT_FALSE(bad.analyzed);
    EXPECT_EQ(bad.status.code(), ErrorCode::kInvalidArgument);
    EXPECT_EQ(bad.status.net(), d.nets[kBad].name);
    EXPECT_EQ(bad.status.node(), 999);
    for (const util::Diagnostic& diag : corpus.diagnostics.entries()) {
      EXPECT_FALSE(diag.warning) << diag.message;  // no ladder round caught anything
    }
    // Every other net keeps the clean run's bits: swap the clean verdict
    // back in for the bad net and compare the whole corpus.
    corpus.nets[kBad] = run_corpus(synthetic_design(), AnalyzeOptions{}).nets[kBad];
    EXPECT_EQ(bits_of(corpus), clean) << threads;
  }
}

}  // namespace
}  // namespace relmore::sta
