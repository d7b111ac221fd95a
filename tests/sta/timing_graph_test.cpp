#include "relmore/sta/timing_graph.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "../util/exact_sum_reference.hpp"
#include "relmore/sta/design.hpp"
#include "relmore/timer.hpp"
#include "relmore/util/diagnostics.hpp"

namespace relmore::sta {
namespace {

using util::ErrorCode;

/// Every cell has slewgain=0 slewfactor=0, so each wire is driven by an
/// ideal step and both halves of every stage are closed forms we can
/// hand-compute:
///   wire (pure RC, step): delay = ln2 * SR(tap), slew out = ln9 * SR(tap)
///   gate (bilinear table): delay = intrinsic + drive_r * load (exact)
///
/// SR at the taps (pin caps folded): n0@s1: 1k*(10f+20f) + 1k*20f = 50 ps;
/// n1@s0: 500*(20f+10f) = 15 ps; n2@s0: 400*25f = 10 ps.
/// Gate delays: u0 = 1p + 1k*30f = 31 ps; u1 = 5p + 2k*25f = 55 ps.
/// Endpoint arrival = 86 ps + ln2 * 75 ps ~= 137.99 ps; required 200 ps.
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

constexpr double kTol = 1e-18;  // attosecond; everything above is closed-form

Design parse(const std::string& text) {
  std::istringstream is(text);
  return std::move(read_design_checked(is)).value();
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

TimingResult analyze(const Design& d, const AnalyzeOptions& options = {}) {
  util::Result<TimingGraph> g = TimingGraph::build_checked(d);
  EXPECT_TRUE(g.is_ok()) << g.status().to_string();
  util::Result<TimingResult> r = g.value().analyze_checked(options);
  EXPECT_TRUE(r.is_ok()) << r.status().to_string();
  return std::move(r).value();
}

TEST(TimingGraph, GoldenThreeStageArrivalsAndSlews) {
  const Design d = parse(kGolden);
  const TimingResult res = analyze(d);
  const double ln2 = std::log(2.0);
  const double ln9 = std::log(9.0);
  const auto n0 = static_cast<std::size_t>(d.find_net("n0"));
  const auto n1 = static_cast<std::size_t>(d.find_net("n1"));
  const auto n2 = static_cast<std::size_t>(d.find_net("n2"));
  // Each net here has one tap, at its own offset in the per-tap arrays.
  const std::size_t t0 = d.tap_offset[n0];
  const std::size_t t1 = d.tap_offset[n1];
  const std::size_t t2 = d.tap_offset[n2];

  // Stage 1: step launch at clk, wire to u0's pin.
  EXPECT_TRUE(res.nets[n0].driver.timed);
  EXPECT_NEAR(res.nets[n0].driver.arrival, 0.0, kTol);
  EXPECT_NEAR(res.wire_delay[t0], ln2 * 50e-12, kTol);
  EXPECT_NEAR(res.taps[t0].arrival, ln2 * 50e-12, kTol);
  EXPECT_NEAR(res.taps[t0].slew, ln9 * 50e-12, kTol);

  // Stage 2: u0 (31 ps, output slew 0), wire n1.
  EXPECT_NEAR(res.nets[n1].driver.arrival, ln2 * 50e-12 + 31e-12, kTol);
  EXPECT_NEAR(res.nets[n1].driver.slew, 0.0, kTol);
  EXPECT_NEAR(res.wire_delay[t1], ln2 * 15e-12, kTol);

  // Stage 3: u1 (55 ps), wire n2 to the endpoint.
  EXPECT_NEAR(res.nets[n2].driver.arrival, 86e-12 + ln2 * 65e-12, kTol);
  EXPECT_NEAR(res.wire_delay[t2], ln2 * 10e-12, kTol);
  const double endpoint_arrival = 86e-12 + ln2 * 75e-12;
  EXPECT_NEAR(res.taps[t2].arrival, endpoint_arrival, kTol);

  // Required times back-propagate through the same stage delays.
  EXPECT_NEAR(res.taps[t2].required, 200e-12, kTol);
  EXPECT_NEAR(res.nets[n2].driver.required, 200e-12 - ln2 * 10e-12, kTol);
  EXPECT_NEAR(res.taps[t1].required, 200e-12 - ln2 * 10e-12 - 55e-12, kTol);
  EXPECT_TRUE(res.nets[n0].driver.constrained);

  // Summary.
  const TimingSummary& s = res.summary;
  EXPECT_EQ(s.endpoints, 1u);
  EXPECT_EQ(s.constrained_endpoints, 1u);
  EXPECT_EQ(s.untimed_endpoints, 0u);
  EXPECT_EQ(s.faulted_nets, 0u);
  ASSERT_EQ(s.endpoints_by_slack.size(), 1u);
  const EndpointSlack& row = s.endpoints_by_slack[0];
  EXPECT_EQ(d.ports[static_cast<std::size_t>(row.port)].name, "out");
  EXPECT_TRUE(row.timed);
  EXPECT_TRUE(row.constrained);
  EXPECT_NEAR(row.arrival, endpoint_arrival, kTol);
  EXPECT_NEAR(row.slack, 200e-12 - endpoint_arrival, kTol);
  EXPECT_NEAR(s.wns, row.slack, kTol);  // met design: WNS = min (positive) slack
  EXPECT_NEAR(s.tns, 0.0, kTol);
}

TEST(TimingGraph, EndpointSlackQueries) {
  const Design d = parse(kGolden);
  const TimingResult res = analyze(d);
  util::Result<double> s = endpoint_slack_checked(d, res, "out");
  ASSERT_TRUE(s.is_ok());
  EXPECT_NEAR(s.value(), 200e-12 - (86e-12 + std::log(2.0) * 75e-12), kTol);
  EXPECT_EQ(endpoint_slack_checked(d, res, "clk").status().code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(endpoint_slack_checked(d, res, "zz").status().code(), ErrorCode::kInvalidArgument);
}

TEST(TimingGraph, WorstPathBacktracksLaunchToEndpoint) {
  const Design d = parse(kGolden);
  const TimingResult res = analyze(d);
  util::Result<std::vector<PathReport>> r = worst_paths_checked(d, res, 3);
  ASSERT_TRUE(r.is_ok());
  ASSERT_EQ(r.value().size(), 1u);  // only one endpoint exists
  const PathReport& path = r.value()[0];
  EXPECT_EQ(path.endpoint, "out");
  EXPECT_TRUE(path.constrained);
  ASSERT_EQ(path.points.size(), 6u);  // port, wire, gate, wire, gate, wire
  EXPECT_EQ(path.points.front().point, "port clk");
  EXPECT_EQ(path.points[1].point, "net n0 @ s1");
  EXPECT_EQ(path.points[2].point, "u0 (g1)");
  EXPECT_EQ(path.points[4].point, "u1 (g2)");
  EXPECT_EQ(path.points.back().point, "net n2 @ s0");
  // Increments along the path sum to the endpoint arrival (launch at 0).
  double sum = 0.0;
  for (const PathPoint& p : path.points) sum += p.incr;
  EXPECT_NEAR(sum, path.arrival, kTol);
  EXPECT_NEAR(path.points.back().arrival, path.arrival, kTol);

  const std::string text = format_path(path);
  EXPECT_NE(text.find("Path to endpoint 'out'"), std::string::npos);
  EXPECT_NE(text.find("slack"), std::string::npos);
  EXPECT_EQ(text.find("(VIOLATED)"), std::string::npos);  // slack is positive
  EXPECT_FALSE(format_summary(res.summary).empty());
}

// The slack and path readers check the result they are handed by the four
// lengths update_checked checks, and bound every port index they read, so
// an empty, hollow or foreign result is rejected, never read out of bounds.
TEST(TimingGraph, ReadersRejectResultsOfAnotherShape) {
  const Design d = parse(kGolden);
  const TimingResult res = analyze(d);

  // Another design with the same nets and instances and one tap more.
  std::string text = kGolden;
  text.replace(text.find("clock 1n\n"), 9, "output out2 n1:s0 required=300p\nclock 1n\n");
  const Design other_design = parse(text);
  ASSERT_EQ(other_design.nets.size(), d.nets.size());
  ASSERT_NE(other_design.tap_offset.back(), d.tap_offset.back());
  const TimingResult other = analyze(other_design);
  const TimingResult empty;
  const TimingResult hollow = [&res] {  // every tap timing dropped
    TimingResult r = res;
    r.taps.clear();
    r.wire_delay.clear();
    return r;
  }();

  for (const TimingResult* bad : {&empty, &other, &hollow}) {
    EXPECT_EQ(endpoint_slack_checked(d, *bad, "out").status().code(),
              ErrorCode::kInvalidArgument);
    EXPECT_EQ(worst_paths_checked(d, *bad, 3).status().code(), ErrorCode::kInvalidArgument);
  }

  // A name no port has; a port index one past the last port, or an input
  // port, named by an endpoint row; a winning pin past the instance's pins.
  const int past = static_cast<int>(d.ports.size());
  EXPECT_EQ(endpoint_slack_checked(d, res, "past").status().code(), ErrorCode::kInvalidArgument);
  for (const int port : {past, d.find_port("clk")}) {
    TimingResult bad_row = res;
    bad_row.summary.endpoints_by_slack[0].port = port;
    EXPECT_EQ(worst_paths_checked(d, bad_row, 3).status().code(), ErrorCode::kInvalidArgument)
        << port;
  }
  TimingResult bad_pin = res;
  bad_pin.winning_input[0] = 1;  // u0 has one input pin
  EXPECT_EQ(worst_paths_checked(d, bad_pin, 3).status().code(), ErrorCode::kInvalidArgument);

  // The checked result itself still reads.
  EXPECT_TRUE(endpoint_slack_checked(d, res, "out").is_ok());
  EXPECT_TRUE(worst_paths_checked(d, res, 3).is_ok());
}

TEST(TimingGraph, UnconstrainedEndpointsAreExcludedFromWnsTns) {
  // Same design, no required= and no clock: the endpoint still times but
  // does not constrain anything.
  std::string text = kGolden;
  text.replace(text.find(" required=200p"), 14, "");
  text.replace(text.find("clock 1n\n"), 9, "");
  const Design d = parse(text);
  const TimingResult res = analyze(d);
  EXPECT_EQ(res.summary.endpoints, 1u);
  EXPECT_EQ(res.summary.constrained_endpoints, 0u);
  EXPECT_EQ(res.summary.untimed_endpoints, 0u);
  EXPECT_NEAR(res.summary.wns, 0.0, kTol);
  EXPECT_NEAR(res.summary.tns, 0.0, kTol);
  ASSERT_EQ(res.summary.endpoints_by_slack.size(), 1u);
  EXPECT_TRUE(res.summary.endpoints_by_slack[0].timed);
  EXPECT_FALSE(res.summary.endpoints_by_slack[0].constrained);
  // The slack query still answers: required is +inf.
  util::Result<double> s = endpoint_slack_checked(d, res, "out");
  ASSERT_TRUE(s.is_ok());
  EXPECT_TRUE(std::isinf(s.value()));
}

TEST(TimingGraph, ViolatedEndpointShowsNegativeSlack) {
  std::string text = kGolden;
  text.replace(text.find("required=200p"), 13, "required=100p");
  const Design d = parse(text);
  const TimingResult res = analyze(d);
  const double endpoint_arrival = 86e-12 + std::log(2.0) * 75e-12;  // ~138 ps
  EXPECT_NEAR(res.summary.wns, 100e-12 - endpoint_arrival, kTol);
  EXPECT_NEAR(res.summary.tns, 100e-12 - endpoint_arrival, kTol);
  util::Result<std::vector<PathReport>> r = worst_paths_checked(d, res, 1);
  ASSERT_TRUE(r.is_ok());
  ASSERT_EQ(r.value().size(), 1u);
  EXPECT_NE(format_path(r.value()[0]).find("(VIOLATED)"), std::string::npos);
}

// TNS is the correctly rounded sum of its terms, in no order. One
// endpoint here misses by ~22 ps, and three more by one ulp of their
// ~7 ps arrival each: a quarter of an ulp of the large slack. A
// left-to-right sum in port order drops each small term and stays on the
// large slack; the exact sum lies three quarters of an ulp beyond it and
// rounds one ulp further. An update that moves the large term reads the
// same bits as a from-scratch analysis.
TEST(TimingGraph, TnsIsTheCorrectlyRoundedSumOfItsTerms) {
  Design d = parse(R"(design tns
net n0
section s0 - R=1k L=0 C=10f
end
input in n0 at=0 slew=0
output o0 n0:s0
output o1 n0:s0
output o2 n0:s0
output o3 n0:s0
)");
  const double arrival = analyze(d).taps[d.tap_offset[0]].arrival;  // ln2 * 10 ps
  for (DesignPort& port : d.ports) {
    port.has_required = !port.is_input;
    port.required = std::nextafter(arrival, 0.0);
  }
  const auto big = static_cast<std::size_t>(d.find_port("o0"));
  d.ports[big].required = arrival - 0x1.8p-36;
  TimingResult res = analyze(d);

  const auto terms_of = [&](const TimingResult& r) {
    std::vector<double> by_port(d.ports.size(), 0.0);
    for (const EndpointSlack& row : r.summary.endpoints_by_slack) {
      EXPECT_TRUE(row.timed && row.constrained && row.slack < 0.0);
      by_port[static_cast<std::size_t>(row.port)] = row.slack;
    }
    return by_port;
  };
  const std::vector<double> terms = terms_of(res);
  double port_order = 0.0;
  for (const double term : terms) port_order += term;
  const double exact = util::reference::exact_sum(terms);
  ASSERT_NE(bits(port_order), bits(exact));  // the design tells the two sums apart
  EXPECT_EQ(bits(res.summary.tns), bits(exact));

  util::Result<TimingGraph> graph = TimingGraph::build_checked(d);
  ASSERT_TRUE(graph.is_ok());
  d.ports[big].required = arrival - 0x1.9p-36;
  UpdateSeeds seeds;
  seeds.backward_nets.push_back(d.ports[big].net);
  CorpusCache cache;  // a backward-only update reads no models
  ASSERT_TRUE(graph.value().update_checked(res, cache, seeds).is_ok());
  const TimingResult fresh = analyze(d);
  EXPECT_EQ(bits(res.summary.tns), bits(fresh.summary.tns));
  EXPECT_EQ(bits(res.summary.tns), bits(util::reference::exact_sum(terms_of(fresh))));
  EXPECT_EQ(bits(res.summary.wns), bits(fresh.summary.wns));
}

TEST(TimingGraph, FaultedNetPoisonsOnlyItsOwnCone) {
  // Two independent port->net->port paths; nb's moments overflow to inf
  // (R*C ~ 1e330), so ob must come back untimed while oa stays timed.
  const char* text =
      "net na\nsection s0 - R=100 L=0 C=10f\nend\n"
      "net nb\nsection s0 - R=1e300 L=0 C=1e30\nend\n"
      "input a na at=0 slew=0\n"
      "input b nb at=0 slew=0\n"
      "output oa na:s0 required=1n\n"
      "output ob nb:s0 required=1n\n";
  const Design d = parse(text);
  const TimingResult res = analyze(d);  // default kSkipAndFlag
  EXPECT_EQ(res.summary.endpoints, 2u);
  EXPECT_EQ(res.summary.untimed_endpoints, 1u);
  EXPECT_EQ(res.summary.faulted_nets, 1u);
  EXPECT_TRUE(res.nets[static_cast<std::size_t>(d.find_net("nb"))].faulted);
  EXPECT_FALSE(res.nets[static_cast<std::size_t>(d.find_net("na"))].faulted);

  util::Result<double> ok = endpoint_slack_checked(d, res, "oa");
  ASSERT_TRUE(ok.is_ok());
  EXPECT_NEAR(ok.value(), 1e-9 - std::log(2.0) * 1e-12, kTol);  // SR = 100 * 10f = 1 ps
  util::Result<double> bad = endpoint_slack_checked(d, res, "ob");
  ASSERT_FALSE(bad.is_ok());
  EXPECT_EQ(bad.status().code(), ErrorCode::kNonFiniteMoment);
  EXPECT_EQ(bad.status().net(), "nb");

  // Under kThrow the corpus join surfaces the faulted net as a Status
  // (never an exception across workers).
  AnalyzeOptions strict;
  strict.fault_policy = util::FaultPolicy::kThrow;
  util::Result<TimingGraph> g = TimingGraph::build_checked(d);
  ASSERT_TRUE(g.is_ok());
  util::Result<TimingResult> thrown = g.value().analyze_checked(strict);
  ASSERT_FALSE(thrown.is_ok());
  EXPECT_EQ(thrown.status().net(), "nb");
}

/// Bitwise equality of net `ni`'s timings in two results of `design`'s
/// shape: fault flag, every point, every wire delay.
void expect_same_net(const Design& design, const TimingResult& got, const TimingResult& want,
                     std::size_t ni) {
  const auto same = [](const PointTiming& a, const PointTiming& b) {
    return a.timed == b.timed && a.constrained == b.constrained &&
           bits(a.arrival) == bits(b.arrival) && bits(a.slew) == bits(b.slew) &&
           bits(a.required) == bits(b.required);
  };
  const std::string& net = design.nets[ni].name;
  EXPECT_EQ(got.nets[ni].faulted, want.nets[ni].faulted) << net;
  EXPECT_TRUE(same(got.nets[ni].driver, want.nets[ni].driver)) << net;
  ASSERT_EQ(got.taps.size(), want.taps.size()) << net;
  ASSERT_EQ(got.wire_delay.size(), want.wire_delay.size()) << net;
  for (std::size_t t = design.tap_offset[ni]; t < design.tap_offset[ni + 1]; ++t) {
    EXPECT_TRUE(same(got.taps[t], want.taps[t])) << net << " tap slot " << t;
    EXPECT_EQ(bits(got.wire_delay[t]), bits(want.wire_delay[t])) << net << " tap slot " << t;
  }
}

// A wire stage with no crossing (here an infinite input slew, which the
// reader cannot produce, set on the parsed design) faults its net in the
// sweep: every tap of it and its fanout cone come back untimed, the
// neighbouring path keeps its bits, and an incremental update after an
// edit elsewhere still equals a from-scratch analyze.
TEST(TimingGraph, WireStageWithNoCrossingPoisonsOnlyItsOwnCone) {
  const char* text =
      "net na\nsection s0 - R=100 L=1n C=10f\nsection s1 s0 R=80 L=1n C=12f\nend\n"
      "net nb\nsection s0 - R=100 L=1n C=10f\nsection s1 s0 R=80 L=1n C=12f\nend\n"
      "net nc\nsection s0 - R=200 L=0 C=20f\nend\n"
      "net nd\nsection s0 - R=200 L=0 C=20f\nend\n"
      "input a na at=0 slew=20p\n"
      "input b nb at=0 slew=20p\n"
      "output oa nc:s0 required=1n\n"
      "output ob nd:s0 required=1n\n"
      "output pb nb:s0 required=1n\n"
      "inst u0 buf_x1 nc na:s1\n"
      "inst u1 buf_x1 nd nb:s1\n";
  const Design clean = parse(text);
  Design d = parse(text);
  d.ports[static_cast<std::size_t>(d.find_port("b"))].slew =
      std::numeric_limits<double>::infinity();
  const TimingResult want = analyze(clean);
  const TimingResult res = analyze(d);
  const auto net = [&d](const char* name) { return static_cast<std::size_t>(d.find_net(name)); };

  // The faulted net and its cone: nb's taps, u1's output nd, and both of
  // their endpoints.
  EXPECT_TRUE(res.nets[net("nb")].faulted);
  EXPECT_TRUE(res.nets[net("nb")].driver.timed);  // the launch itself is timed
  EXPECT_FALSE(res.nets[net("nd")].driver.timed);
  for (const char* name : {"nb", "nd"}) {
    for (std::size_t t = d.tap_offset[net(name)]; t < d.tap_offset[net(name) + 1]; ++t) {
      EXPECT_FALSE(res.taps[t].timed) << name << " tap slot " << t;
    }
  }
  EXPECT_EQ(res.summary.untimed_endpoints, 2u);
  EXPECT_EQ(endpoint_slack_checked(d, res, "ob").status().code(), ErrorCode::kNonFiniteMoment);
  EXPECT_EQ(endpoint_slack_checked(d, res, "pb").status().code(), ErrorCode::kNonFiniteMoment);

  // The neighbouring path a -> na -> u0 -> nc -> oa keeps its bits.
  for (const char* name : {"na", "nc"}) expect_same_net(d, res, want, net(name));
  EXPECT_TRUE(res.taps[d.tap_offset[net("nc")]].timed);

  // An incremental commit on the clean path, with the faulted cone
  // standing, matches a from-scratch analyze of the edited design.
  Timer timer;
  ASSERT_TRUE(timer.load(std::move(d)).is_ok());
  ASSERT_TRUE(timer.analyze().is_ok());
  Timer::Edit edit = timer.edit();
  ASSERT_TRUE(edit.set_net_section_values("na", "s1", {90.0, 1e-9, 15e-15}).is_ok());
  util::Result<Timer::EditOutcome> outcome = edit.commit();
  ASSERT_TRUE(outcome.is_ok()) << outcome.status().to_string();
  EXPECT_TRUE(outcome.value().incremental);
  const TimingResult fresh = analyze(*timer.design());
  const TimingResult& updated = *timer.result();
  ASSERT_EQ(updated.nets.size(), fresh.nets.size());
  for (std::size_t ni = 0; ni < fresh.nets.size(); ++ni) {
    expect_same_net(*timer.design(), updated, fresh, ni);
  }
  EXPECT_EQ(bits(updated.summary.wns), bits(fresh.summary.wns));
  EXPECT_EQ(bits(updated.summary.tns), bits(fresh.summary.tns));
  EXPECT_EQ(updated.summary.untimed_endpoints, fresh.summary.untimed_endpoints);
  ASSERT_EQ(updated.summary.endpoints_by_slack.size(), fresh.summary.endpoints_by_slack.size());
  for (std::size_t i = 0; i < fresh.summary.endpoints_by_slack.size(); ++i) {
    const EndpointSlack& got = updated.summary.endpoints_by_slack[i];
    const EndpointSlack& ref = fresh.summary.endpoints_by_slack[i];
    EXPECT_EQ(got.port, ref.port) << i;
    EXPECT_EQ(got.timed, ref.timed) << i;
    EXPECT_EQ(bits(got.slack), bits(ref.slack)) << i;
  }
}

TEST(TimingGraph, BuildRejectsUnfinalizedDesigns) {
  Design empty;
  EXPECT_EQ(TimingGraph::build_checked(empty).status().code(), ErrorCode::kEmptyTree);

  Design d = parse(kGolden);
  d.nets[0].tree.add_section(circuit::kInput, 1.0, 0.0, 1e-15, "stale");
  util::Result<TimingGraph> g = TimingGraph::build_checked(d);
  ASSERT_FALSE(g.is_ok());  // flat snapshot no longer matches the tree
  EXPECT_EQ(g.status().code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(g.status().net(), "n0");
}

// Results lay out their per-tap arrays by Design::tap_offset, and the
// result guards compare only the tap total, so build_checked holds the
// offsets to the nets' tap counts once per load.
TEST(TimingGraph, BuildRejectsTapOffsetsThatDoNotMatchTheTaps) {
  const Design d = parse(kGolden);
  ASSERT_EQ(d.tap_offset, (std::vector<std::size_t>{0, 1, 2, 3}));  // n0, n1, n2: one tap each
  ASSERT_TRUE(TimingGraph::build_checked(d).is_ok());

  Design missing = d;
  missing.tap_offset.clear();
  util::Result<TimingGraph> g = TimingGraph::build_checked(missing);
  ASSERT_FALSE(g.is_ok());
  EXPECT_EQ(g.status().code(), ErrorCode::kInvalidArgument);

  Design off = d;
  off.tap_offset[2] += 1;  // n1 now claims two taps
  g = TimingGraph::build_checked(off);
  ASSERT_FALSE(g.is_ok());
  EXPECT_EQ(g.status().code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(g.status().net(), "n1");
}

// The corpus phase evaluates each net's models at its tap nodes only, so
// build_checked holds every tap node to its net's sections.
TEST(TimingGraph, BuildRejectsTapNodesOutsideTheirNet) {
  const Design d = parse(kGolden);
  ASSERT_TRUE(TimingGraph::build_checked(d).is_ok());
  for (const circuit::SectionId outside : {circuit::SectionId{1}, circuit::SectionId{999},
                                           circuit::kInput}) {
    Design bad = d;
    bad.nets[1].taps[0].node = outside;  // n1 has one section
    util::Result<TimingGraph> g = TimingGraph::build_checked(bad);
    ASSERT_FALSE(g.is_ok()) << outside;
    EXPECT_EQ(g.status().code(), ErrorCode::kInvalidArgument);
    EXPECT_EQ(g.status().net(), "n1");
    EXPECT_EQ(g.status().node(), outside);
  }
}

// update_checked visits nets in (level, index) order, which is only
// topological when levels rise through every instance.
TEST(TimingGraph, BuildRejectsLevelsThatDoNotRise) {
  Design d = parse(kGolden);
  ASSERT_TRUE(TimingGraph::build_checked(d).is_ok());
  d.nets[2].level = d.nets[1].level;  // u1: n1 -> n2
  util::Result<TimingGraph> g = TimingGraph::build_checked(d);
  ASSERT_FALSE(g.is_ok());
  EXPECT_EQ(g.status().code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(g.status().net(), "u1");
}

}  // namespace
}  // namespace relmore::sta
