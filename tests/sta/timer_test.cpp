#include "relmore/timer.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>
#include <string>
#include <utility>

namespace relmore {
namespace {

using util::ErrorCode;

constexpr const char* kGolden = R"(design golden
cell g1 r=1k cap=10f intrinsic=1p slewgain=0 slewfactor=0
cell g2 r=2k cap=10f intrinsic=5p slewgain=0 slewfactor=0
net n0
section s0 - R=1k L=0 C=10f
section s1 s0 R=1k L=0 C=10f
end
net n1
section s0 - R=500 L=0 C=20f
end
net n2
section s0 - R=400 L=0 C=25f
end
input clk n0 at=0 slew=0
output out n2:s0 required=200p
inst u0 g1 n1 n0:s1
inst u1 g2 n2 n1:s0
clock 1n
)";

// Hand-computed in timing_graph_test.cpp: gate delays 31 + 55 ps, wire
// SRs 50 + 15 + 10 ps, all pure-RC step stages.
const double kEndpointArrival = 86e-12 + std::log(2.0) * 75e-12;

TEST(Timer, LoadAnalyzeQueryReport) {
  Timer timer;
  std::istringstream is(kGolden);
  ASSERT_TRUE(timer.load(is).is_ok());
  ASSERT_TRUE(timer.loaded());
  ASSERT_NE(timer.design(), nullptr);
  EXPECT_EQ(timer.design()->name, "golden");

  util::Result<sta::TimingSummary> summary = timer.analyze();
  ASSERT_TRUE(summary.is_ok()) << summary.status().to_string();
  EXPECT_EQ(summary.value().endpoints, 1u);
  EXPECT_NEAR(summary.value().wns, 200e-12 - kEndpointArrival, 1e-18);

  util::Result<double> slack = timer.slack("out");
  ASSERT_TRUE(slack.is_ok());
  EXPECT_NEAR(slack.value(), 200e-12 - kEndpointArrival, 1e-18);
  EXPECT_EQ(timer.slack("clk").status().code(), ErrorCode::kInvalidArgument);

  util::Result<std::vector<sta::PathReport>> paths = timer.report_worst_paths(4);
  ASSERT_TRUE(paths.is_ok());
  ASSERT_EQ(paths.value().size(), 1u);
  EXPECT_EQ(paths.value()[0].endpoint, "out");

  std::ostringstream os;
  ASSERT_TRUE(timer.report_timing(os, 1).is_ok());
  EXPECT_NE(os.str().find("endpoints: 1"), std::string::npos);
  EXPECT_NE(os.str().find("Path to endpoint 'out'"), std::string::npos);
}

TEST(Timer, QueriesAnalyzeLazily) {
  Timer timer;
  std::istringstream is(kGolden);
  ASSERT_TRUE(timer.load(is).is_ok());
  EXPECT_EQ(timer.result(), nullptr);  // not timed yet
  ASSERT_TRUE(timer.slack("out").is_ok());
  ASSERT_NE(timer.result(), nullptr);  // slack() triggered the analysis
  EXPECT_EQ(timer.result()->summary.endpoints, 1u);
}

TEST(Timer, UnloadedTimerReportsInvalidArgument) {
  Timer timer;
  EXPECT_FALSE(timer.loaded());
  EXPECT_EQ(timer.design(), nullptr);
  EXPECT_EQ(timer.result(), nullptr);
  EXPECT_EQ(timer.analyze().status().code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(timer.slack("out").status().code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(timer.report_worst_paths().status().code(), ErrorCode::kInvalidArgument);
  std::ostringstream os;
  EXPECT_FALSE(timer.report_timing(os).is_ok());
}

TEST(Timer, FailedLoadKeepsThePreviousDesign) {
  Timer timer;
  std::istringstream good(kGolden);
  ASSERT_TRUE(timer.load(good).is_ok());

  std::istringstream bad("net broken\nsection s0 - R=oops L=0 C=1f\nend\n");
  util::DiagnosticsReport report;
  EXPECT_FALSE(timer.load(bad, sta::generic_library(), &report).is_ok());
  EXPECT_GE(report.error_count(), 1u);

  // The golden design (and its answers) survived the rejected load.
  ASSERT_TRUE(timer.loaded());
  EXPECT_EQ(timer.design()->name, "golden");
  util::Result<double> slack = timer.slack("out");
  ASSERT_TRUE(slack.is_ok());
  EXPECT_NEAR(slack.value(), 200e-12 - kEndpointArrival, 1e-18);
}

TEST(Timer, AdoptsAPrebuiltDesign) {
  sta::SyntheticSpec spec;
  spec.nets = 16;
  spec.seed = 2;
  spec.topo_classes = 3;
  spec.chain_depth = 4;
  util::Result<sta::Design> d = sta::make_synthetic_design_checked(spec);
  ASSERT_TRUE(d.is_ok());

  Timer timer;
  ASSERT_TRUE(timer.load(std::move(d).value()).is_ok());
  util::Result<sta::TimingSummary> summary = timer.analyze();
  ASSERT_TRUE(summary.is_ok()) << summary.status().to_string();
  EXPECT_EQ(summary.value().endpoints, 4u);  // one endpoint per chain
  EXPECT_EQ(summary.value().untimed_endpoints, 0u);
  util::Result<std::vector<sta::PathReport>> paths = timer.report_worst_paths(2);
  ASSERT_TRUE(paths.is_ok());
  EXPECT_EQ(paths.value().size(), 2u);

  // Moving the Timer keeps the analysis valid (the Design address is stable).
  Timer moved = std::move(timer);
  ASSERT_TRUE(moved.loaded());
  EXPECT_TRUE(moved.report_worst_paths(1).is_ok());
}

TEST(Timer, RejectsAnUnfinalizedDesign) {
  Timer timer;
  EXPECT_FALSE(timer.load(sta::Design{}).is_ok());
  EXPECT_FALSE(timer.loaded());
}

TEST(Timer, ThreadCountAboveSixtyFourIsInvalidArgument) {
  Timer timer;
  std::istringstream is(kGolden);
  ASSERT_TRUE(timer.load(is).is_ok());
  // Without the bound, UINT_MAX would have the pool reserve ~4e9 threads.
  for (const unsigned threads : {65U, std::numeric_limits<unsigned>::max()}) {
    sta::AnalyzeOptions options;
    options.threads = threads;
    const util::Result<sta::CorpusModels> corpus =
        sta::analyze_corpus_checked(*timer.design(), options);
    ASSERT_FALSE(corpus.is_ok()) << threads;
    EXPECT_EQ(corpus.status().code(), ErrorCode::kInvalidArgument);
    const util::Result<sta::TimingSummary> summary = timer.analyze(options);
    ASSERT_FALSE(summary.is_ok()) << threads;
    EXPECT_EQ(summary.status().code(), ErrorCode::kInvalidArgument);
  }
  sta::AnalyzeOptions largest;
  largest.threads = 64;
  EXPECT_TRUE(timer.analyze(largest).is_ok());
}

}  // namespace
}  // namespace relmore
