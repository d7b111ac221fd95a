// Incremental re-timing: Timer::edit() transactions, the per-net corpus
// cache, and TimingGraph::update_checked — the dirty-cone machinery must
// be bitwise-invisible (same result bits as a from-scratch analyze of the
// edited design) and the cache counters must surface its work.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "relmore/timer.hpp"
#include "relmore/util/fault_injector.hpp"

namespace relmore {
namespace {

using util::ErrorCode;

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

sta::Design synthetic(std::size_t nets, std::uint64_t seed) {
  sta::SyntheticSpec spec;
  spec.nets = nets;
  spec.seed = seed;
  spec.topo_classes = 4;
  spec.chain_depth = 4;
  util::Result<sta::Design> design = sta::make_synthetic_design_checked(spec);
  EXPECT_TRUE(design.is_ok()) << design.status().to_string();
  return std::move(design).value();
}

// Fresh full analysis of `design`, no cache: the oracle every edit
// sequence must match bitwise.
sta::TimingResult oracle(const sta::Design& design) {
  util::Result<sta::TimingGraph> graph = sta::TimingGraph::build_checked(design);
  EXPECT_TRUE(graph.is_ok());
  util::Result<sta::TimingResult> result = graph.value().analyze_checked();
  EXPECT_TRUE(result.is_ok()) << result.status().to_string();
  return std::move(result).value();
}

void expect_bitwise_equal(const sta::TimingResult& got, const sta::TimingResult& want) {
  EXPECT_EQ(bits(got.summary.wns), bits(want.summary.wns));
  EXPECT_EQ(bits(got.summary.tns), bits(want.summary.tns));
  EXPECT_EQ(got.summary.endpoints, want.summary.endpoints);
  EXPECT_EQ(got.summary.constrained_endpoints, want.summary.constrained_endpoints);
  EXPECT_EQ(got.summary.untimed_endpoints, want.summary.untimed_endpoints);
  const auto same_point = [&](const sta::PointTiming& a, const sta::PointTiming& b) {
    return a.timed == b.timed && a.constrained == b.constrained &&
           bits(a.arrival) == bits(b.arrival) && bits(a.slew) == bits(b.slew) &&
           bits(a.required) == bits(b.required);
  };
  ASSERT_EQ(got.nets.size(), want.nets.size());
  for (std::size_t ni = 0; ni < want.nets.size(); ++ni) {
    const sta::NetTiming& g = got.nets[ni];
    const sta::NetTiming& w = want.nets[ni];
    EXPECT_EQ(g.faulted, w.faulted) << "net " << ni;
    EXPECT_TRUE(same_point(g.driver, w.driver)) << "net " << ni << " driver";
  }
  ASSERT_EQ(got.taps.size(), want.taps.size());
  ASSERT_EQ(got.wire_delay.size(), want.wire_delay.size());
  for (std::size_t t = 0; t < want.taps.size(); ++t) {
    EXPECT_TRUE(same_point(got.taps[t], want.taps[t])) << "tap slot " << t;
    EXPECT_EQ(bits(got.wire_delay[t]), bits(want.wire_delay[t])) << "tap slot " << t;
  }
  EXPECT_EQ(got.winning_input, want.winning_input);
  ASSERT_EQ(got.summary.endpoints_by_slack.size(), want.summary.endpoints_by_slack.size());
  for (std::size_t i = 0; i < want.summary.endpoints_by_slack.size(); ++i) {
    const sta::EndpointSlack& g = got.summary.endpoints_by_slack[i];
    const sta::EndpointSlack& w = want.summary.endpoints_by_slack[i];
    EXPECT_EQ(g.port, w.port) << "row " << i;
    EXPECT_EQ(g.timed, w.timed) << "row " << i;
    EXPECT_EQ(g.constrained, w.constrained) << "row " << i;
    EXPECT_EQ(bits(g.arrival), bits(w.arrival)) << "row " << i;
    EXPECT_EQ(bits(g.required), bits(w.required)) << "row " << i;
    EXPECT_EQ(bits(g.slack), bits(w.slack)) << "row " << i;
  }
}

sta::Design parse(const std::string& text) {
  std::istringstream is(text);
  util::Result<sta::Design> design = sta::read_design_checked(is);
  EXPECT_TRUE(design.is_ok()) << design.status().to_string();
  return std::move(design).value();
}

util::Result<Timer::EditOutcome> commit_clock(Timer& timer, double period) {
  Timer::Edit edit = timer.edit();
  EXPECT_TRUE(edit.set_clock_period(period).is_ok());
  return edit.commit();
}

// Two copies of one stage, a/u0/c and b/u1/d: the endpoints on them reach
// bitwise-equal slacks, which only the port index orders. `ox` carries its
// own constraint, so it stays constrained without a clock.
constexpr const char* kTwins = R"(design twins
net a
section s0 - R=100 L=0 C=10f
section s1 s0 R=80 L=0 C=12f
end
net b
section s0 - R=100 L=0 C=10f
section s1 s0 R=80 L=0 C=12f
end
net c
section s0 - R=200 L=0 C=20f
end
net d
section s0 - R=200 L=0 C=20f
end
input ia a at=0 slew=20p
input ib b at=0 slew=20p
output oa a:s1
output ob b:s1
output oc c:s0
output od d:s0
output ox c:s0 required=90p
inst u0 buf_x1 c a:s1
inst u1 buf_x1 d b:s1
clock 1n
)";

TEST(CorpusCache, SecondAnalyzeIsAllHitsAndBitwiseEqual) {
  Timer timer;
  ASSERT_TRUE(timer.load(synthetic(40, 3)).is_ok());

  util::Result<sta::TimingSummary> first = timer.analyze();
  ASSERT_TRUE(first.is_ok());
  EXPECT_EQ(first.value().cache_hits, 0u);
  EXPECT_EQ(first.value().cache_misses, 40u);

  util::Result<sta::TimingSummary> second = timer.analyze();
  ASSERT_TRUE(second.is_ok());
  EXPECT_EQ(second.value().cache_hits, 40u);
  EXPECT_EQ(second.value().cache_misses, 0u);
  // A cache-served run is the same run, bit for bit.
  EXPECT_EQ(bits(first.value().wns), bits(second.value().wns));
  EXPECT_EQ(bits(first.value().tns), bits(second.value().tns));
  EXPECT_EQ(timer.cache().counters().hits, 40u);
  EXPECT_EQ(timer.cache().counters().stores, 40u);

  // The counts live in the summary, not in the diagnostics: a healthy
  // cache-served run has nothing to warn about.
  EXPECT_EQ(timer.result()->diagnostics.warning_count(), 0u);
}

TEST(TimerEdit, WireEditRetimesInPlaceBitwiseEqual) {
  Timer timer;
  ASSERT_TRUE(timer.load(synthetic(32, 7)).is_ok());
  ASSERT_TRUE(timer.analyze().is_ok());

  Timer::Edit edit = timer.edit();
  ASSERT_TRUE(edit.set_net_section_values("n0_1", "s2", {55.0, 0.0, 30e-15}).is_ok());
  ASSERT_TRUE(edit.set_net_section_values("n1_2", "s0", {80.0, 0.5e-12, 12e-15}).is_ok());
  EXPECT_EQ(edit.pending(), 2u);

  util::Result<Timer::EditOutcome> outcome = edit.commit();
  ASSERT_TRUE(outcome.is_ok()) << outcome.status().to_string();
  EXPECT_TRUE(outcome.value().incremental);
  EXPECT_GT(outcome.value().stats.forward_retimed, 0u);
  ASSERT_NE(timer.result(), nullptr);
  expect_bitwise_equal(*timer.result(), oracle(*timer.design()));
}

TEST(TimerEdit, CellSwapPortRequiredAndClockRetimeBitwiseEqual) {
  Timer timer;
  ASSERT_TRUE(timer.load(synthetic(32, 11)).is_ok());
  ASSERT_TRUE(timer.analyze().is_ok());

  Timer::Edit edit = timer.edit();
  ASSERT_TRUE(edit.set_cell("u0_1", "buf_x4").is_ok());
  ASSERT_TRUE(edit.set_port_required("out0", 1.1e-9).is_ok());
  ASSERT_TRUE(edit.set_clock_period(1.7e-9).is_ok());
  util::Result<Timer::EditOutcome> outcome = edit.commit();
  ASSERT_TRUE(outcome.is_ok()) << outcome.status().to_string();
  EXPECT_TRUE(outcome.value().incremental);
  ASSERT_NE(timer.result(), nullptr);
  expect_bitwise_equal(*timer.result(), oracle(*timer.design()));

  const sta::Design& design = *timer.design();
  EXPECT_EQ(design.clock_period, 1.7e-9);
  const int pi = design.find_port("out0");
  ASSERT_GE(pi, 0);
  EXPECT_TRUE(design.ports[static_cast<std::size_t>(pi)].has_required);
}

TEST(TimerEdit, IdenticalValuesCutOffAtTheFrontier) {
  Timer timer;
  ASSERT_TRUE(timer.load(synthetic(24, 5)).is_ok());
  ASSERT_TRUE(timer.analyze().is_ok());

  // Re-write a section with its existing raw wire values: the recomputed
  // forward half is bitwise-identical, so propagation stops at the net.
  const sta::Design& design = *timer.design();
  const int ni = design.find_net("n0_0");
  ASSERT_GE(ni, 0);
  const sta::Net& net = design.nets[static_cast<std::size_t>(ni)];
  const circuit::SectionId sid = net.tree.find_by_name("s1");
  ASSERT_GE(sid, 0);
  circuit::SectionValues wire = net.tree.section(sid).v;
  // section(sid).v holds the FOLDED capacitance; undo the pin-cap fold so
  // the edit's re-fold lands on the same bits.
  for (const sta::Net::Tap& tap : net.taps) {
    if (tap.node == sid && !tap.is_port) {
      const sta::Instance& inst = design.instances[static_cast<std::size_t>(tap.index)];
      wire.capacitance -= design.library.cell(static_cast<std::size_t>(inst.cell)).input_cap;
    }
  }

  Timer::Edit edit = timer.edit();
  ASSERT_TRUE(edit.set_net_section_values("n0_0", "s1", wire).is_ok());
  util::Result<Timer::EditOutcome> outcome = edit.commit();
  ASSERT_TRUE(outcome.is_ok()) << outcome.status().to_string();
  EXPECT_TRUE(outcome.value().incremental);
  EXPECT_EQ(outcome.value().stats.forward_retimed, 0u);
  EXPECT_GE(outcome.value().stats.frontier_cutoffs, 1u);
  expect_bitwise_equal(*timer.result(), oracle(*timer.design()));
}

// Commits that move rows between ranks and break and re-create slack ties:
// the in-place summary must land on the rows, counts and order a
// from-scratch analyze sorts into.
TEST(TimerEdit, EndpointsMoveBetweenRanksAndTiesKeepPortOrder) {
  Timer timer;
  ASSERT_TRUE(timer.load(parse(kTwins)).is_ok());
  ASSERT_TRUE(timer.analyze().is_ok());
  const sta::Design& design = *timer.design();
  const auto row_of = [&](const std::string& name) {
    const std::vector<sta::EndpointSlack>& rows = timer.result()->summary.endpoints_by_slack;
    for (std::size_t i = 0; i < rows.size(); ++i) {
      if (design.ports[static_cast<std::size_t>(rows[i].port)].name == name) return i;
    }
    return rows.size();
  };
  const auto expect_tie = [&](const char* first, const char* second) {
    const std::vector<sta::EndpointSlack>& rows = timer.result()->summary.endpoints_by_slack;
    const std::size_t i = row_of(first);
    const std::size_t j = row_of(second);
    ASSERT_LT(i, rows.size());
    ASSERT_LT(j, rows.size());
    EXPECT_EQ(bits(rows[i].slack), bits(rows[j].slack)) << first << " vs " << second;
    EXPECT_EQ(j, i + 1) << first << " vs " << second;  // port order breaks the tie
  };
  expect_tie("oa", "ob");
  expect_tie("oc", "od");
  EXPECT_EQ(timer.result()->summary.constrained_endpoints, 5u);

  // No clock: the four fallback endpoints drop to the unconstrained rank.
  util::Result<Timer::EditOutcome> outcome = commit_clock(timer, 0.0);
  ASSERT_TRUE(outcome.is_ok()) << outcome.status().to_string();
  EXPECT_TRUE(outcome.value().incremental);
  EXPECT_EQ(timer.result()->summary.constrained_endpoints, 1u);
  expect_bitwise_equal(*timer.result(), oracle(design));

  // A clock again: they come back.
  outcome = commit_clock(timer, 1e-9);
  ASSERT_TRUE(outcome.is_ok());
  EXPECT_TRUE(outcome.value().incremental);
  EXPECT_EQ(timer.result()->summary.constrained_endpoints, 5u);
  expect_bitwise_equal(*timer.result(), oracle(design));
  expect_tie("oa", "ob");

  // Break the ties, then restore the exact values: the rows that moved
  // apart meet again, and only the port tie-break orders them.
  const int b = design.find_net("b");
  ASSERT_GE(b, 0);
  const circuit::SectionValues original =
      design.nets[static_cast<std::size_t>(b)].tree.section(0).v;  // no pin on s0
  for (const circuit::SectionValues v : {circuit::SectionValues{160.0, 0.0, 25e-15}, original}) {
    Timer::Edit edit = timer.edit();
    ASSERT_TRUE(edit.set_net_section_values("b", "s0", v).is_ok());
    outcome = edit.commit();
    ASSERT_TRUE(outcome.is_ok()) << outcome.status().to_string();
    EXPECT_TRUE(outcome.value().incremental);
    expect_bitwise_equal(*timer.result(), oracle(design));
  }
  expect_tie("oa", "ob");
  expect_tie("oc", "od");

  // The same walk with the ties in place: drop and restore the clock.
  for (const double period : {0.0, 1e-9}) {
    outcome = commit_clock(timer, period);
    ASSERT_TRUE(outcome.is_ok());
    EXPECT_TRUE(outcome.value().incremental);
    expect_bitwise_equal(*timer.result(), oracle(design));
  }
}

// A pin cap of 1e308 on a:s0: any wire C above ~0.8e308 folds to +inf.
constexpr const char* kHugePin = R"(design huge
cell huge r=1k cap=1e308 intrinsic=1p
net a
section s0 - R=1m L=0 C=1f
end
net b
section s0 - R=100 L=0 C=10f
end
net c
section s0 - R=100 L=0 C=10f
end
net d
section s0 - R=100 L=0 C=10f
end
input ia a at=0 slew=20p
input ic c at=0 slew=20p
output ob b:s0
output od d:s0
inst u0 huge b a:s0
inst u1 buf_x1 d c:s0
clock 1n
)";

TEST(TimerEdit, OverflowingFoldFailsAndChangesNothing) {
  Timer timer;
  ASSERT_TRUE(timer.load(parse(kHugePin)).is_ok());
  ASSERT_TRUE(timer.analyze().is_ok());
  const sta::Design& design = *timer.design();
  const sta::TimingResult before = *timer.result();
  const std::uint64_t epoch = design.epoch;
  const sta::CorpusCache::Counters counters = timer.cache().counters();
  const auto values = [&](const char* net) {
    return design.nets[static_cast<std::size_t>(design.find_net(net))].tree.section(0).v;
  };
  const circuit::SectionValues a0 = values("a");
  const circuit::SectionValues c0 = values("c");
  const int u1_cell = design.instances[1].cell;

  // Two valid ops first: the failing third must take them down with it.
  Timer::Edit edit = timer.edit();
  ASSERT_TRUE(edit.set_cell("u1", "buf_x4").is_ok());
  ASSERT_TRUE(edit.set_net_section_values("c", "s0", {150.0, 0.0, 30e-15}).is_ok());
  ASSERT_TRUE(edit.set_net_section_values("a", "s0", {1e-3, 0.0, 1.7e308}).is_ok());
  util::Result<Timer::EditOutcome> failed = edit.commit();
  ASSERT_FALSE(failed.is_ok());
  EXPECT_EQ(failed.status().code(), ErrorCode::kNonFiniteValue);
  EXPECT_EQ(failed.status().net(), "a");

  EXPECT_EQ(design.epoch, epoch);
  for (const auto& [net, want] : {std::pair{"a", a0}, std::pair{"c", c0}}) {
    const circuit::SectionValues got = values(net);
    EXPECT_EQ(bits(got.resistance), bits(want.resistance)) << net;
    EXPECT_EQ(bits(got.inductance), bits(want.inductance)) << net;
    EXPECT_EQ(bits(got.capacitance), bits(want.capacitance)) << net;
  }
  EXPECT_EQ(design.instances[1].cell, u1_cell);
  ASSERT_NE(timer.result(), nullptr);
  expect_bitwise_equal(*timer.result(), before);
  EXPECT_EQ(timer.cache().counters().hits, counters.hits);
  EXPECT_EQ(timer.cache().counters().misses, counters.misses);
  EXPECT_EQ(timer.cache().counters().stores, counters.stores);

  // The Timer is still in step: a valid commit re-times in place.
  Timer::Edit next = timer.edit();
  ASSERT_TRUE(next.set_net_section_values("c", "s0", {150.0, 0.0, 30e-15}).is_ok());
  util::Result<Timer::EditOutcome> outcome = next.commit();
  ASSERT_TRUE(outcome.is_ok()) << outcome.status().to_string();
  EXPECT_TRUE(outcome.value().incremental);
  expect_bitwise_equal(*timer.result(), oracle(design));
}

// Timer::slack times the design on demand, then answers, for every name,
// with endpoint_slack_checked's value, code and message.
TEST(TimerEdit, SlackAnswersLikeEndpointSlackChecked) {
  Timer timer;
  ASSERT_TRUE(timer.load(synthetic(24, 8)).is_ok());
  ASSERT_TRUE(timer.analyze().is_ok());
  const sta::Design& design = *timer.design();
  std::vector<std::string> names = {"nope", "", "out"};
  for (const sta::DesignPort& port : design.ports) names.push_back(port.name);
  for (const std::string& name : names) {
    const util::Result<double> got = timer.slack(name);
    const util::Result<double> want = sta::endpoint_slack_checked(design, *timer.result(), name);
    ASSERT_EQ(got.is_ok(), want.is_ok()) << name;
    if (want.is_ok()) {
      EXPECT_EQ(bits(got.value()), bits(want.value())) << name;
    } else {
      EXPECT_EQ(got.status().code(), want.status().code()) << name;
      EXPECT_EQ(got.status().message(), want.status().message()) << name;
      EXPECT_EQ(got.status().net(), want.status().net()) << name;
    }
  }
}

TEST(TimerEdit, CommitWithoutPriorAnalysisIsNotIncremental) {
  Timer timer;
  ASSERT_TRUE(timer.load(synthetic(16, 2)).is_ok());
  Timer::Edit edit = timer.edit();
  ASSERT_TRUE(edit.set_net_section_values("n0_0", "s0", {42.0, 0.0, 10e-15}).is_ok());
  util::Result<Timer::EditOutcome> outcome = edit.commit();
  ASSERT_TRUE(outcome.is_ok());
  EXPECT_FALSE(outcome.value().incremental);
  EXPECT_EQ(timer.result(), nullptr);
  // The commit restamped the edited net, so the follow-up full analyze
  // serves it (and everything else untouched-but-never-analyzed misses).
  util::Result<sta::TimingSummary> summary = timer.analyze();
  ASSERT_TRUE(summary.is_ok());
  EXPECT_EQ(summary.value().cache_hits, 1u);
}

TEST(TimerEdit, OpsValidateAtRecordTime) {
  Timer timer;
  ASSERT_TRUE(timer.load(synthetic(16, 2)).is_ok());
  Timer::Edit edit = timer.edit();
  EXPECT_EQ(edit.set_net_section_values("nope", "s0", {}).code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(edit.set_net_section_values("n0_0", "nope", {}).code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(edit.set_net_section_values("n0_0", "s0", {-1.0, 0.0, 0.0}).code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(edit.set_cell("nope", "buf_x1").code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(edit.set_cell("u0_0", "nope").code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(edit.set_port_required("nope", 1e-9).code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(edit.set_port_required("in0", 1e-9).code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(edit.set_clock_period(-1.0).code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(edit.pending(), 0u);  // nothing recorded by rejected ops

  // A rejected op sequence commits cleanly as a no-op transaction.
  util::Result<Timer::EditOutcome> outcome = edit.commit();
  ASSERT_TRUE(outcome.is_ok());

  // The handle is consumed: further ops and commits fail.
  EXPECT_EQ(edit.set_clock_period(1e-9).code(), ErrorCode::kTransactionState);
  EXPECT_EQ(edit.commit().status().code(), ErrorCode::kTransactionState);
}

TEST(TimerEdit, StaleHandleFailsAfterReload) {
  Timer timer;
  ASSERT_TRUE(timer.load(synthetic(16, 2)).is_ok());
  Timer::Edit edit = timer.edit();
  ASSERT_TRUE(edit.set_clock_period(1e-9).is_ok());
  ASSERT_TRUE(timer.load(synthetic(16, 3)).is_ok());  // swaps the design
  EXPECT_EQ(edit.commit().status().code(), ErrorCode::kInvalidArgument);
}

TEST(TimerEdit, UnknownNamesKeepTheirMessages) {
  Timer timer;
  ASSERT_TRUE(timer.load(synthetic(16, 2)).is_ok());
  Timer::Edit edit = timer.edit();
  const util::Status net = edit.set_net_section_values("nope", "s0", {});
  EXPECT_EQ(net.code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(net.message(), "edit: unknown net");
  EXPECT_EQ(net.net(), "nope");
  const util::Status inst = edit.set_cell("u9_9", "buf_x1");
  EXPECT_EQ(inst.code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(inst.message(), "edit: unknown instance");
  EXPECT_EQ(inst.net(), "u9_9");
  const util::Status port = edit.set_port_required("out9", 1e-9);
  EXPECT_EQ(port.code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(port.message(), "edit: unknown port");
  EXPECT_EQ(port.net(), "out9");
  // Names that sort next to real ones are still unknown, not neighbours.
  EXPECT_FALSE(edit.set_net_section_values("n0_", "s0", {}).is_ok());
  EXPECT_FALSE(edit.set_net_section_values("n0_00", "s0", {}).is_ok());
  EXPECT_FALSE(edit.set_cell("", "buf_x1").is_ok());
  EXPECT_EQ(edit.pending(), 0u);
}

// Every name of the corpus resolves to the index a front-to-back scan of
// the Design finds.
TEST(TimerEdit, EveryNameResolves) {
  Timer timer;
  ASSERT_TRUE(timer.load(synthetic(40, 5)).is_ok());
  const sta::Design& design = *timer.design();
  Timer::Edit edit = timer.edit();
  for (const sta::Net& net : design.nets) {
    EXPECT_TRUE(edit.set_net_section_values(net.name, "s0", {1.0, 0.0, 1e-15}).is_ok())
        << net.name;
  }
  for (const sta::Instance& inst : design.instances) {
    const std::string& cell = design.library.cell(static_cast<std::size_t>(inst.cell)).name;
    EXPECT_TRUE(edit.set_cell(inst.name, cell).is_ok()) << inst.name;
  }
  for (const sta::DesignPort& port : design.ports) {
    EXPECT_EQ(edit.set_port_required(port.name, 1e-9).is_ok(), !port.is_input) << port.name;
  }
  EXPECT_EQ(edit.pending(), design.nets.size() + design.instances.size() +
                                design.endpoint_count());
}

// The index belongs to the loaded design: a reload replaces it whole.
TEST(TimerEdit, NamesResolveAgainstTheCurrentLoad) {
  const std::string a = "net na\nsection s0 - R=1 L=0 C=1f\nend\n"
                        "net nb\nsection s0 - R=1 L=0 C=1f\nend\n"
                        "input ia na\noutput oa nb:s0\ninst ua buf_x1 nb na:s0\n";
  const std::string b = "net ma\nsection s0 - R=1 L=0 C=1f\nend\n"
                        "net mb\nsection s0 - R=1 L=0 C=1f\nend\n"
                        "input ib ma\noutput ob mb:s0\ninst ub buf_x1 mb ma:s0\n";
  Timer timer;
  std::istringstream in_a(a);
  ASSERT_TRUE(timer.load(in_a).is_ok());
  {
    Timer::Edit edit = timer.edit();
    EXPECT_TRUE(edit.set_net_section_values("nb", "s0", {2.0, 0.0, 1e-15}).is_ok());
    EXPECT_TRUE(edit.set_cell("ua", "buf_x4").is_ok());
    EXPECT_TRUE(edit.set_port_required("oa", 1e-9).is_ok());
    EXPECT_FALSE(edit.set_net_section_values("mb", "s0", {}).is_ok());
  }
  std::istringstream in_b(b);
  ASSERT_TRUE(timer.load(in_b).is_ok());
  Timer::Edit edit = timer.edit();
  EXPECT_EQ(edit.set_net_section_values("nb", "s0", {}).code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(edit.set_cell("ua", "buf_x4").code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(edit.set_port_required("oa", 1e-9).code(), ErrorCode::kInvalidArgument);
  EXPECT_TRUE(edit.set_net_section_values("mb", "s0", {2.0, 0.0, 1e-15}).is_ok());
  EXPECT_TRUE(edit.set_cell("ub", "buf_x4").is_ok());
  EXPECT_TRUE(edit.set_port_required("ob", 1e-9).is_ok());
  ASSERT_TRUE(edit.commit().is_ok());
  EXPECT_EQ(timer.design()->instances[0].cell, timer.design()->library.find("buf_x4"));
}

// The index lives with the heap-held design, so it moves with the Timer.
TEST(TimerEdit, MovedTimerStillEdits) {
  Timer timer;
  ASSERT_TRUE(timer.load(synthetic(16, 6)).is_ok());
  ASSERT_TRUE(timer.analyze().is_ok());
  Timer moved = std::move(timer);
  Timer::Edit edit = moved.edit();
  ASSERT_TRUE(edit.set_net_section_values("n1_2", "s0", {75.0, 0.0, 30e-15}).is_ok());
  ASSERT_TRUE(edit.set_cell("u0_1", "buf_x4").is_ok());
  ASSERT_TRUE(edit.set_port_required("out2", 1.5e-9).is_ok());
  util::Result<Timer::EditOutcome> outcome = edit.commit();
  ASSERT_TRUE(outcome.is_ok()) << outcome.status().to_string();
  EXPECT_TRUE(outcome.value().incremental);
  expect_bitwise_equal(*moved.result(), oracle(*moved.design()));
}

TEST(TimerEdit, AbandonedHandleAppliesNothing) {
  Timer timer;
  ASSERT_TRUE(timer.load(synthetic(16, 4)).is_ok());
  ASSERT_TRUE(timer.analyze().is_ok());
  const sta::TimingResult before = *timer.result();
  const std::uint64_t epoch = timer.design()->epoch;
  {
    Timer::Edit edit = timer.edit();
    ASSERT_TRUE(edit.set_net_section_values("n0_0", "s0", {99.0, 0.0, 40e-15}).is_ok());
    // no commit
  }
  EXPECT_EQ(timer.design()->epoch, epoch);
  expect_bitwise_equal(*timer.result(), before);
}

TEST(UpdateChecked, CacheMissFailsWithInvalidArgument) {
  sta::Design design = synthetic(16, 6);
  util::Result<sta::TimingGraph> graph = sta::TimingGraph::build_checked(design);
  ASSERT_TRUE(graph.is_ok());
  util::Result<sta::TimingResult> result = graph.value().analyze_checked();
  ASSERT_TRUE(result.is_ok());

  sta::CorpusCache empty;  // covers nothing
  sta::UpdateSeeds seeds;
  seeds.forward_nets.push_back(0);
  sta::TimingResult updated = result.value();
  util::Result<sta::UpdateStats> stats = graph.value().update_checked(updated, empty, seeds);
  EXPECT_EQ(stats.status().code(), ErrorCode::kInvalidArgument);
}

TEST(UpdateChecked, SeedOutOfRangeIsRejected) {
  sta::Design design = synthetic(16, 6);
  util::Result<sta::TimingGraph> graph = sta::TimingGraph::build_checked(design);
  ASSERT_TRUE(graph.is_ok());
  sta::AnalyzeOptions options;
  sta::CorpusCache cache;
  options.cache = &cache;
  util::Result<sta::TimingResult> result = graph.value().analyze_checked(options);
  ASSERT_TRUE(result.is_ok());

  sta::TimingResult updated = result.value();
  sta::UpdateSeeds seeds;
  seeds.forward_nets.push_back(999);
  EXPECT_EQ(graph.value().update_checked(updated, cache, seeds).status().code(),
            ErrorCode::kInvalidArgument);
  seeds.forward_nets.assign(1, 0);
  seeds.backward_nets.push_back(-3);
  EXPECT_EQ(graph.value().update_checked(updated, cache, seeds).status().code(),
            ErrorCode::kInvalidArgument);
}

TEST(UpdateChecked, ResultOfAnotherShapeIsRejectedUntouched) {
  sta::Design design = synthetic(16, 6);
  util::Result<sta::TimingGraph> graph = sta::TimingGraph::build_checked(design);
  ASSERT_TRUE(graph.is_ok());
  sta::AnalyzeOptions options;
  sta::CorpusCache cache;
  options.cache = &cache;
  util::Result<sta::TimingResult> result = graph.value().analyze_checked(options);
  ASSERT_TRUE(result.is_ok());
  sta::UpdateSeeds seeds;
  seeds.forward_nets.push_back(0);

  // Another design's result: another net count.
  sta::TimingResult other = oracle(synthetic(20, 6));
  const sta::TimingResult other_before = other;
  util::Result<sta::UpdateStats> stats = graph.value().update_checked(other, cache, seeds);
  EXPECT_EQ(stats.status().code(), ErrorCode::kInvalidArgument);
  expect_bitwise_equal(other, other_before);

  // This design's result with its tap array resized. The shape is four
  // lengths, so the status has no net to name.
  sta::TimingResult stale = result.value();
  ASSERT_FALSE(stale.taps.empty());
  stale.taps.pop_back();
  const sta::TimingResult stale_before = stale;
  stats = graph.value().update_checked(stale, cache, seeds);
  EXPECT_EQ(stats.status().code(), ErrorCode::kInvalidArgument);
  expect_bitwise_equal(stale, stale_before);
}

// The update's workspace comes from the thread arena; a grab that fails
// (injected) is a kResourceExhausted before anything is written, and the
// Timer falls back to dropping its analysis.
TEST(UpdateChecked, WorkspaceAllocationFailureLeavesTheResultUntouched) {
  util::FaultInjector& faults = util::FaultInjector::instance();
  faults.disarm_all();
  sta::Design design = synthetic(16, 6);
  util::Result<sta::TimingGraph> graph = sta::TimingGraph::build_checked(design);
  ASSERT_TRUE(graph.is_ok());
  sta::AnalyzeOptions options;
  sta::CorpusCache cache;
  options.cache = &cache;
  util::Result<sta::TimingResult> result = graph.value().analyze_checked(options);
  ASSERT_TRUE(result.is_ok());
  sta::UpdateSeeds seeds;
  seeds.forward_nets.push_back(0);

  sta::TimingResult updated = result.value();
  ASSERT_TRUE(faults.arm_spec("arena-alloc:every=1:limit=1").is_ok());
  util::Result<sta::UpdateStats> stats = graph.value().update_checked(updated, cache, seeds);
  faults.disarm_all();
  EXPECT_EQ(stats.status().code(), ErrorCode::kResourceExhausted);
  expect_bitwise_equal(updated, result.value());
  EXPECT_TRUE(graph.value().update_checked(updated, cache, seeds).is_ok());

  Timer timer;
  ASSERT_TRUE(timer.load(synthetic(16, 6)).is_ok());
  ASSERT_TRUE(timer.analyze().is_ok());
  Timer::Edit edit = timer.edit();
  ASSERT_TRUE(edit.set_net_section_values("n0_1", "s0", {70.0, 0.0, 20e-15}).is_ok());
  ASSERT_TRUE(faults.arm_spec("arena-alloc:every=1:limit=1").is_ok());
  util::Result<Timer::EditOutcome> outcome = edit.commit();
  faults.disarm_all();
  ASSERT_TRUE(outcome.is_ok()) << outcome.status().to_string();
  EXPECT_FALSE(outcome.value().incremental);
  EXPECT_EQ(timer.result(), nullptr);
  util::Result<sta::TimingSummary> summary = timer.analyze();
  ASSERT_TRUE(summary.is_ok());
  expect_bitwise_equal(*timer.result(), oracle(*timer.design()));
}

// A commit restamps each edited net's cache slot with sta::analyze_net,
// whose workspace comes from the thread arena too. A grab that fails
// there takes the same fallback: the commit succeeds, the analysis is
// dropped, and the edited net is not cached, so the next analyze
// recomputes it and equals the oracle.
TEST(TimerEdit, RestampAllocationFailureDropsTheAnalysis) {
  util::FaultInjector& faults = util::FaultInjector::instance();
  faults.disarm_all();
  Timer timer;
  ASSERT_TRUE(timer.load(synthetic(16, 6)).is_ok());
  ASSERT_TRUE(timer.analyze().is_ok());
  Timer::Edit edit = timer.edit();
  ASSERT_TRUE(edit.set_net_section_values("n0_1", "s0", {70.0, 0.0, 20e-15}).is_ok());
  ASSERT_TRUE(faults.arm_spec("arena-alloc:every=1:limit=1").is_ok());
  util::Result<Timer::EditOutcome> outcome = edit.commit();
  const std::uint64_t fired = faults.fire_count(util::FaultSite::kArenaAlloc);
  faults.disarm_all();
  EXPECT_EQ(fired, 1u);
  ASSERT_TRUE(outcome.is_ok()) << outcome.status().to_string();
  EXPECT_FALSE(outcome.value().incremental);
  EXPECT_EQ(timer.result(), nullptr);
  util::Result<sta::TimingSummary> summary = timer.analyze();
  ASSERT_TRUE(summary.is_ok()) << summary.status().to_string();
  EXPECT_EQ(summary.value().cache_misses, 1u);  // the restamp stored nothing
  expect_bitwise_equal(*timer.result(), oracle(*timer.design()));
}

// A constraint edit restamps no net, so its commit's first grab is
// update_checked's; that failure drops the analysis as well, while every
// net stays cached.
TEST(TimerEdit, UpdateAllocationFailureDropsTheAnalysis) {
  util::FaultInjector& faults = util::FaultInjector::instance();
  faults.disarm_all();
  Timer timer;
  ASSERT_TRUE(timer.load(synthetic(16, 6)).is_ok());
  ASSERT_TRUE(timer.analyze().is_ok());
  Timer::Edit edit = timer.edit();
  ASSERT_TRUE(edit.set_port_required("out0", 1.1e-9).is_ok());
  ASSERT_TRUE(faults.arm_spec("arena-alloc:every=1:limit=1").is_ok());
  util::Result<Timer::EditOutcome> outcome = edit.commit();
  const std::uint64_t fired = faults.fire_count(util::FaultSite::kArenaAlloc);
  faults.disarm_all();
  EXPECT_EQ(fired, 1u);
  ASSERT_TRUE(outcome.is_ok()) << outcome.status().to_string();
  EXPECT_FALSE(outcome.value().incremental);
  EXPECT_EQ(timer.result(), nullptr);
  util::Result<sta::TimingSummary> summary = timer.analyze();
  ASSERT_TRUE(summary.is_ok()) << summary.status().to_string();
  EXPECT_EQ(summary.value().cache_misses, 0u);
  expect_bitwise_equal(*timer.result(), oracle(*timer.design()));
}

// Summary rows that are not the result's own (here: none at all) cannot
// be updated in place; the update derives them again.
TEST(UpdateChecked, ForeignSummaryRowsAreRebuilt) {
  sta::Design design = synthetic(16, 6);
  util::Result<sta::TimingGraph> graph = sta::TimingGraph::build_checked(design);
  ASSERT_TRUE(graph.is_ok());
  sta::AnalyzeOptions options;
  sta::CorpusCache cache;
  options.cache = &cache;
  util::Result<sta::TimingResult> result = graph.value().analyze_checked(options);
  ASSERT_TRUE(result.is_ok());
  sta::TimingResult updated = result.value();
  updated.summary.endpoints_by_slack.clear();
  sta::UpdateSeeds seeds;
  seeds.clock_changed = true;  // every endpoint re-derives
  design.clock_period *= 0.5;
  ASSERT_TRUE(graph.value().update_checked(updated, cache, seeds).is_ok());
  expect_bitwise_equal(updated, oracle(design));
}

// A port-driven chain n0 -> u0 -> n1 -> u1 -> n2 -> u2 -> n3 whose nets
// carry an endpoint each beside the next instance's pin.
constexpr const char* kChain = R"(design chain
net n0
section s0 - R=100 L=0 C=10f
section s1 s0 R=80 L=0.5n C=12f
end
net n1
section s0 - R=120 L=0 C=15f
section s1 s0 R=90 L=0 C=10f
section s2 s0 R=60 L=0.2n C=8f
end
net n2
section s0 - R=150 L=1n C=20f
section s1 s0 R=70 L=0 C=9f
end
net n3
section s0 - R=200 L=0 C=20f
end
input i0 n0 at=0 slew=20p
inst u0 buf_x1 n1 n0:s1
inst u1 buf_x4 n2 n1:s1
inst u2 buf_x1 n3 n2:s1
output o1 n1:s2
output o2 n2:s0
output o3 n3:s0
clock 1n
)";

// A wire edit on the chain's first net moves every arrival behind it. Its
// linear cells give output slews that depend on the load alone, so the
// driver slews of n1..n3 keep their bits: those nets keep their wire
// stages, only the seeded n0 solves its own, and the result still equals
// a from-scratch analysis.
TEST(UpdateChecked, WireEditOnTheFirstNetReusesTheChainsWireStages) {
  sta::Design design = parse(kChain);
  util::Result<sta::TimingGraph> graph = sta::TimingGraph::build_checked(design);
  ASSERT_TRUE(graph.is_ok());
  sta::AnalyzeOptions options;
  sta::CorpusCache cache;
  options.cache = &cache;
  util::Result<sta::TimingResult> result = graph.value().analyze_checked(options);
  ASSERT_TRUE(result.is_ok());

  // The commit's write and restamp, by hand: new values on n0, its
  // snapshot re-taken, its cache slot stored at the new epoch.
  const int n0 = design.find_net("n0");
  ASSERT_GE(n0, 0);
  sta::Net& net = design.nets[static_cast<std::size_t>(n0)];
  net.tree.values(0) = {160.0, 0.3e-9, 10e-15};
  net.flat.assign(net.tree);
  design.epoch += 1;
  net.epoch = design.epoch;
  cache.store(static_cast<std::size_t>(n0), net.epoch, sta::options_fingerprint(options),
              sta::analyze_net(net, options));

  sta::TimingResult updated = result.value();
  sta::UpdateSeeds seeds;
  seeds.forward_nets.push_back(n0);
  util::Result<sta::UpdateStats> stats = graph.value().update_checked(updated, cache, seeds);
  ASSERT_TRUE(stats.is_ok()) << stats.status().to_string();
  expect_bitwise_equal(updated, oracle(design));

  std::size_t downstream_taps = 0;
  for (const char* name : {"n1", "n2", "n3"}) {
    const int ni = design.find_net(name);
    ASSERT_GE(ni, 0);
    downstream_taps += design.nets[static_cast<std::size_t>(ni)].taps.size();
    EXPECT_EQ(bits(updated.nets[static_cast<std::size_t>(ni)].driver.slew),
              bits(result.value().nets[static_cast<std::size_t>(ni)].driver.slew))
        << name;
  }
  EXPECT_EQ(downstream_taps, 5u);
  EXPECT_EQ(stats.value().forward_retimed, 4u);
  EXPECT_EQ(stats.value().reused_wire_stages, downstream_taps);
}

// A cell whose output slew is 1e300 s at every input slew and load: the
// net it drives has a timed driver whose wire stage never crosses, so the
// net is faulted with its taps untimed.
sta::CellLibrary library_with_endless_slew() {
  sta::CellLibrary library = sta::generic_library();
  sta::Cell cell = library.cell(static_cast<std::size_t>(library.find("buf_x1")));
  cell.name = "endless";
  util::Result<sta::TimingTable> slew =
      sta::TimingTable::create_checked({0.0, 1e-9}, {0.0, 1e-12}, {1e300, 1e300, 1e300, 1e300});
  EXPECT_TRUE(slew.is_ok());
  cell.output_slew = std::move(slew).value();
  library.add(std::move(cell));
  return library;
}

// A faulted net in the forward cone is solved again, not carried over:
// its driver slew keeps its bits (the table is flat), but its stored taps
// are untimed and its stages did not all cross.
TEST(TimerEdit, FaultedNetIsSolvedAgainNotCarriedOver) {
  const char* text =
      "net na\nsection s0 - R=100 L=0 C=10f\nsection s1 s0 R=80 L=0 C=12f\nend\n"
      "net nc\nsection s0 - R=200 L=0 C=20f\nsection s1 s0 R=50 L=0 C=5f\nend\n"
      "input a na at=0 slew=20p\n"
      "output pa na:s1 required=1n\n"
      "output oc nc:s1 required=1n\n"
      "inst u0 endless nc na:s1\n";
  std::istringstream is(text);
  util::Result<sta::Design> design = sta::read_design_checked(is, library_with_endless_slew());
  ASSERT_TRUE(design.is_ok()) << design.status().to_string();
  Timer timer;
  ASSERT_TRUE(timer.load(std::move(design).value()).is_ok());
  ASSERT_TRUE(timer.analyze().is_ok());
  const auto nc = static_cast<std::size_t>(timer.design()->find_net("nc"));
  ASSERT_TRUE(timer.result()->nets[nc].driver.timed);
  ASSERT_TRUE(timer.result()->nets[nc].faulted);

  Timer::Edit edit = timer.edit();
  ASSERT_TRUE(edit.set_net_section_values("na", "s0", {150.0, 0.0, 14e-15}).is_ok());
  util::Result<Timer::EditOutcome> outcome = edit.commit();
  ASSERT_TRUE(outcome.is_ok()) << outcome.status().to_string();
  EXPECT_TRUE(outcome.value().incremental);
  EXPECT_EQ(outcome.value().stats.reused_wire_stages, 0u);
  EXPECT_TRUE(timer.result()->nets[nc].faulted);
  expect_bitwise_equal(*timer.result(), oracle(*timer.design()));
}

// Bitwise equality of every field of two snapshots.
void expect_same_flat(const circuit::FlatTree& got, const circuit::FlatTree& want,
                      const std::string& net) {
  ASSERT_EQ(got.size(), want.size()) << net;
  EXPECT_EQ(got.parent(), want.parent()) << net;
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(bits(got.resistance()[i]), bits(want.resistance()[i])) << net << " section " << i;
    EXPECT_EQ(bits(got.inductance()[i]), bits(want.inductance()[i])) << net << " section " << i;
    EXPECT_EQ(bits(got.capacitance()[i]), bits(want.capacitance()[i]))
        << net << " section " << i;
  }
  EXPECT_EQ(got.child_count(), want.child_count()) << net;
  EXPECT_EQ(got.level(), want.level()) << net;
  EXPECT_EQ(got.depth(), want.depth()) << net;
  EXPECT_EQ(got.names(), want.names()) << net;
}

// A commit re-takes each edited net's snapshot in place: after several
// commits of value edits and cell swaps, every net's `flat` equals a
// fresh snapshot of its tree, field by field.
TEST(TimerEdit, CommitsReSnapshotEditedNetsInPlace) {
  Timer timer;
  ASSERT_TRUE(timer.load(synthetic(32, 7)).is_ok());
  ASSERT_TRUE(timer.analyze().is_ok());
  const sta::Design& design = *timer.design();
  const std::uint64_t loaded_epoch = design.epoch;

  const auto commit = [&](const auto& record) {
    Timer::Edit edit = timer.edit();
    record(edit);
    util::Result<Timer::EditOutcome> outcome = edit.commit();
    ASSERT_TRUE(outcome.is_ok()) << outcome.status().to_string();
    EXPECT_TRUE(outcome.value().incremental);
  };
  commit([](Timer::Edit& edit) {
    ASSERT_TRUE(edit.set_net_section_values("n0_1", "s2", {55.0, 0.0, 30e-15}).is_ok());
    ASSERT_TRUE(edit.set_net_section_values("n1_2", "s0", {80.0, 0.5e-12, 12e-15}).is_ok());
  });
  commit([](Timer::Edit& edit) { ASSERT_TRUE(edit.set_cell("u0_1", "buf_x4").is_ok()); });
  commit([](Timer::Edit& edit) {
    ASSERT_TRUE(edit.set_net_section_values("n0_1", "s0", {70.0, 1e-12, 20e-15}).is_ok());
    ASSERT_TRUE(edit.set_cell("u1_1", "buf_x4").is_ok());
    ASSERT_TRUE(edit.set_net_section_values("n2_0", "s1", {40.0, 0.0, 9e-15}).is_ok());
  });

  std::size_t restamped = 0;
  for (const sta::Net& net : design.nets) {
    expect_same_flat(net.flat, circuit::FlatTree(net.tree), net.name);
    if (net.epoch != loaded_epoch) ++restamped;
  }
  EXPECT_GE(restamped, 4u);
  expect_bitwise_equal(*timer.result(), oracle(design));
}

TEST(UpdateChecked, EmptySeedsAreANoOp) {
  sta::Design design = synthetic(16, 9);
  util::Result<sta::TimingGraph> graph = sta::TimingGraph::build_checked(design);
  ASSERT_TRUE(graph.is_ok());
  sta::AnalyzeOptions options;
  sta::CorpusCache cache;
  options.cache = &cache;
  util::Result<sta::TimingResult> result = graph.value().analyze_checked(options);
  ASSERT_TRUE(result.is_ok());

  sta::TimingResult updated = result.value();
  util::Result<sta::UpdateStats> stats = graph.value().update_checked(updated, cache, {});
  ASSERT_TRUE(stats.is_ok()) << stats.status().to_string();
  EXPECT_TRUE(stats.value().stop_status.is_ok());
  EXPECT_EQ(stats.value().forward_retimed, 0u);
  EXPECT_EQ(stats.value().backward_retimed, 0u);
  expect_bitwise_equal(updated, result.value());
}

}  // namespace
}  // namespace relmore
