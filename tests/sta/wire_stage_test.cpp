// The exact wire stage inside the STA: every tap of a synthetic design is
// timed with converged crossings, every arrival, slew and slack scales
// exactly with time, and a net with a vanishing inductance is timed like
// its RC limit instead of faulted.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "../eed/ramp_reference.hpp"
#include "relmore/eed/model.hpp"
#include "relmore/eed/response.hpp"
#include "relmore/sta/design.hpp"
#include "relmore/sta/liberty.hpp"
#include "relmore/sta/synthetic.hpp"
#include "relmore/sta/timing_graph.hpp"

namespace relmore::sta {
namespace {

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

Design read(const std::string& text, CellLibrary base = generic_library()) {
  std::istringstream is(text);
  util::Result<Design> d = read_design_checked(is, std::move(base));
  EXPECT_TRUE(d.is_ok()) << d.status().to_string();
  return std::move(d).value();
}

TimingResult analyze(const Design& d) {
  util::Result<TimingGraph> g = TimingGraph::build_checked(d);
  EXPECT_TRUE(g.is_ok()) << g.status().to_string();
  util::Result<TimingResult> r = g.value().analyze_checked({});
  EXPECT_TRUE(r.is_ok()) << r.status().to_string();
  return std::move(r).value();
}

TEST(WireStage, EveryTapOfASyntheticDesignConverges) {
  if (!eed::reference::long_double_is_wider()) {
    GTEST_SKIP() << "long double has 53 bits here: no wider reference";
  }
  SyntheticSpec spec;
  spec.nets = 200;
  const Design d = read(make_synthetic_design_text(spec));
  const TimingResult res = analyze(d);
  std::size_t checked = 0;
  for (std::size_t ni = 0; ni < d.nets.size(); ++ni) {
    const Net& net = d.nets[ni];
    ASSERT_FALSE(res.nets[ni].faulted);
    const double slew = res.nets[ni].driver.slew;
    const eed::TreeModel model = eed::analyze(net.flat);
    for (std::size_t t = 0; t < net.taps.size(); ++t) {
      const eed::NodeModel& node = model.at(net.taps[t].node);
      const std::size_t slot = d.tap_offset[ni] + t;
      EXPECT_EQ(bits(res.wire_delay[slot]),
                bits(eed::ramp_stage_checked(node, slew).value().delay));
      for (const double level : {0.1, 0.5, 0.9}) {
        const double got = eed::ramp_crossing(node, slew, level);
        const double want = static_cast<double>(eed::reference::crossing(node, slew, level));
        EXPECT_NEAR(got, want, 1e-14 * want) << net.name << " tap " << t << " level " << level;
      }
      ++checked;
    }
  }
  EXPECT_GT(checked, 200u);
}

/// `v` as a hex float, which the reader parses exactly.
std::string hex(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

/// A table over (slew, load) axes scaled by 2^k, of the linear model
/// intrinsic + r·load + gain·slew, scaled by 2^k too.
TimingTable scaled_table(int k, double intrinsic, double r, double gain) {
  const std::vector<double> slews{0.0, 50e-12, 200e-12, 800e-12};
  const std::vector<double> loads{0.0, 20e-15, 100e-15, 400e-15};
  std::vector<double> values;
  for (const double s : slews) {
    for (const double c : loads) values.push_back(std::ldexp(intrinsic + r * c + gain * s, k));
  }
  std::vector<double> ks;
  std::vector<double> kc;
  for (const double s : slews) ks.push_back(std::ldexp(s, k));
  for (const double c : loads) kc.push_back(std::ldexp(c, k));
  return TimingTable::create_checked(ks, kc, values).value();
}

CellLibrary scaled_library(int k) {
  CellLibrary lib;
  lib.add(Cell{"buf", std::ldexp(4e-15, k), scaled_table(k, 18e-12, 450.0, 0.1),
               scaled_table(k, 0.0, 2.2 * 450.0, 0.05)});
  lib.add(Cell{"nand", std::ldexp(6e-15, k), scaled_table(k, 22e-12, 600.0, 0.12),
               scaled_table(k, 3e-12, 2.2 * 600.0, 0.07)});
  return lib;
}

/// Three nets — overdamped RLC, RC, underdamped RLC — through a buffer and
/// a two-input gate to two endpoints, with every capacitance, inductance
/// and time scaled by 2^k (resistances are not).
std::string scaled_design(int k) {
  const auto sec = [k](const char* name, const char* parent, double r, double l, double c) {
    return std::string("  section ") + name + " " + parent + " R=" + hex(r) +
           " L=" + hex(std::ldexp(l, k)) + " C=" + hex(std::ldexp(c, k)) + "\n";
  };
  std::string t = "design scaled\n";
  t += "net a\n" + sec("s0", "-", 40.0, 20e-12, 30e-15) + sec("s1", "s0", 55.0, 15e-12, 25e-15) +
       sec("s2", "s1", 35.0, 10e-12, 40e-15) + sec("s3", "s1", 60.0, 20e-12, 20e-15) + "end\n";
  t += "net b\n" + sec("s0", "-", 80.0, 0.0, 35e-15) + sec("s1", "s0", 120.0, 0.0, 15e-15) +
       sec("s2", "s0", 90.0, 0.0, 45e-15) + "end\n";
  t += "net c\n" + sec("s0", "-", 2.0, 3e-9, 40e-15) + sec("s1", "s0", 3.0, 4e-9, 30e-15) +
       sec("s2", "s1", 2.5, 2e-9, 50e-15) + "end\n";
  t += "input in a at=" + hex(std::ldexp(5e-12, k)) + " slew=" + hex(std::ldexp(30e-12, k)) + "\n";
  t += "inst u0 buf b a:s2\n";
  t += "inst u1 nand c b:s1 a:s3\n";
  t += "output o1 c:s2 required=" + hex(std::ldexp(300e-12, k)) + "\n";
  t += "output o2 b:s2\n";
  t += "clock " + hex(std::ldexp(1e-9, k)) + "\n";
  return t;
}

TEST(WireStage, ArrivalsSlewsAndSlacksScaleExactlyWithTime) {
  const Design base_design = read(scaled_design(0), scaled_library(0));
  const TimingResult base = analyze(base_design);
  ASSERT_EQ(base.summary.faulted_nets, 0u);
  // The three nets span the kernel's branches: overdamped, RC, underdamped.
  const auto zeta_at = [&](const char* net, circuit::SectionId node) {
    return eed::analyze(base_design.nets[static_cast<std::size_t>(base_design.find_net(net))].flat)
        .at(node)
        .zeta;
  };
  EXPECT_GT(zeta_at("a", 2), 1.25);
  EXPECT_TRUE(std::isinf(zeta_at("b", 2)));
  EXPECT_LT(zeta_at("c", 2), 1.0);
  for (const int k : {-20, -1, 1, 20}) {
    const TimingResult got = analyze(read(scaled_design(k), scaled_library(k)));
    ASSERT_EQ(got.taps.size(), base.taps.size());
    for (std::size_t i = 0; i < base.nets.size(); ++i) {
      const PointTiming& want = base.nets[i].driver;
      const PointTiming& have = got.nets[i].driver;
      EXPECT_EQ(bits(have.arrival), bits(std::ldexp(want.arrival, k))) << "net " << i << " k=" << k;
      EXPECT_EQ(bits(have.slew), bits(std::ldexp(want.slew, k))) << "net " << i << " k=" << k;
      EXPECT_EQ(bits(have.required), bits(std::ldexp(want.required, k))) << "net " << i;
    }
    for (std::size_t i = 0; i < base.taps.size(); ++i) {
      EXPECT_EQ(bits(got.taps[i].arrival), bits(std::ldexp(base.taps[i].arrival, k))) << i;
      EXPECT_EQ(bits(got.taps[i].slew), bits(std::ldexp(base.taps[i].slew, k))) << i;
      EXPECT_EQ(bits(got.taps[i].required), bits(std::ldexp(base.taps[i].required, k))) << i;
      EXPECT_EQ(bits(got.wire_delay[i]), bits(std::ldexp(base.wire_delay[i], k))) << i;
    }
    ASSERT_EQ(got.summary.endpoints_by_slack.size(), base.summary.endpoints_by_slack.size());
    for (std::size_t i = 0; i < base.summary.endpoints_by_slack.size(); ++i) {
      const EndpointSlack& want = base.summary.endpoints_by_slack[i];
      const EndpointSlack& have = got.summary.endpoints_by_slack[i];
      const std::string& name = base_design.ports[static_cast<std::size_t>(want.port)].name;
      EXPECT_EQ(have.port, want.port) << name;
      EXPECT_EQ(bits(have.slack), bits(std::ldexp(want.slack, k))) << name << " k=" << k;
    }
    EXPECT_EQ(bits(got.summary.wns), bits(std::ldexp(base.summary.wns, k)));
    EXPECT_EQ(bits(got.summary.tns), bits(std::ldexp(base.summary.tns, k)));
  }
}

TEST(WireStage, TinyInductanceIsTimedLikeRc) {
  // L = 1e-25 H puts zeta near 1e9 (net w) and 1.6e7 (net v): both are
  // timed, not faulted, and match the same nets at L = 0 within 1e-9.
  const auto design = [](const char* l) {
    const std::string L = std::string(" L=") + l;
    return "net w\n  section s0 - R=1k" + L + " C=50f\n  section s1 s0 R=1k" + L +
           " C=50f\n  section s2 s1 R=1k" + L + " C=50f\nend\n" +
           "net v\n  section s0 - R=100" + L + " C=10f\nend\n" +
           "input i1 w slew=10p\ninput i2 v slew=10p\n"
           "output o1 w:s2 required=1n\noutput o2 v:s0 required=1n\n";
  };
  const Design tiny = read(design("1e-25"));
  const Design rc = read(design("0"));
  const TimingResult got = analyze(tiny);
  const TimingResult want = analyze(rc);
  EXPECT_EQ(got.summary.faulted_nets, 0u);
  EXPECT_EQ(got.summary.untimed_endpoints, 0u);
  ASSERT_EQ(got.taps.size(), want.taps.size());
  for (std::size_t i = 0; i < want.taps.size(); ++i) {
    ASSERT_TRUE(got.taps[i].timed) << i;
    EXPECT_NEAR(got.taps[i].arrival, want.taps[i].arrival, 1e-9 * want.taps[i].arrival) << i;
    EXPECT_NEAR(got.taps[i].slew, want.taps[i].slew, 1e-9 * want.taps[i].slew) << i;
  }
  for (std::size_t i = 0; i < want.summary.endpoints_by_slack.size(); ++i) {
    const double slack = want.summary.endpoints_by_slack[i].slack;
    EXPECT_NEAR(got.summary.endpoints_by_slack[i].slack, slack, 1e-9 * std::abs(slack)) << i;
  }
}

}  // namespace
}  // namespace relmore::sta
