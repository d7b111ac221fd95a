// Fault-injection suite: every public entry point of the analysis pipeline
// fed NaN/Inf/negative values and malformed decks, asserting the documented
// Status/exception surface — and, for the incremental engine, that a
// throwing edit leaves the engine bitwise-identical to its prior state.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "relmore/circuit/builders.hpp"
#include "relmore/circuit/flat_tree.hpp"
#include "relmore/circuit/netlist.hpp"
#include "relmore/circuit/rlc_tree.hpp"
#include "relmore/eed/model.hpp"
#include "relmore/engine/batched.hpp"
#include "relmore/engine/timing_engine.hpp"
#include "relmore/util/diagnostics.hpp"
#include "relmore/util/worker_pool.hpp"

namespace rc = relmore::circuit;
namespace ru = relmore::util;
namespace eed = relmore::eed;
namespace eng = relmore::engine;

namespace {

const double kNaN = std::nan("");
const double kInf = std::numeric_limits<double>::infinity();

rc::RlcTree two_root_forest() {
  // Root 0 carries a small subtree (sections 0 and 2); section 1 is an
  // independent root whose values never influence sections 0/2 — poisoning
  // it must leave their results bitwise-untouched.
  rc::RlcTree t;
  const rc::SectionId a = t.add_section(rc::kInput, {10.0, 1e-9, 1e-13}, "a");
  t.add_section(rc::kInput, {5.0, 2e-9, 2e-13}, "b");
  t.add_section(a, {20.0, 3e-9, 3e-13}, "a1");
  return t;
}

void expect_node_equal(const eed::NodeModel& x, const eed::NodeModel& y) {
  EXPECT_EQ(x.sum_rc, y.sum_rc);
  EXPECT_EQ(x.sum_lc, y.sum_lc);
  EXPECT_EQ(x.zeta, y.zeta);
  EXPECT_EQ(x.omega_n, y.omega_n);
}

void expect_model_equal(const eed::TreeModel& x, const eed::TreeModel& y) {
  ASSERT_EQ(x.nodes.size(), y.nodes.size());
  for (std::size_t i = 0; i < x.nodes.size(); ++i) {
    expect_node_equal(x.nodes[i], y.nodes[i]);
    EXPECT_EQ(x.load_capacitance[i], y.load_capacitance[i]);
  }
}

/// Every node the engine answers equals the same node of `model`.
void expect_engine_matches(const eng::TimingEngine& engine, const eed::TreeModel& model) {
  ASSERT_EQ(engine.size(), model.nodes.size());
  for (std::size_t i = 0; i < model.nodes.size(); ++i) {
    expect_node_equal(engine.node(static_cast<rc::SectionId>(i)), model.nodes[i]);
  }
}

}  // namespace

// --- parse_spice_value -------------------------------------------------------

TEST(ParseSpiceValue, AcceptsScaledValuesAndUnits) {
  EXPECT_DOUBLE_EQ(rc::parse_spice_value("2n"), 2e-9);
  EXPECT_DOUBLE_EQ(rc::parse_spice_value("1meg"), 1e6);
  EXPECT_DOUBLE_EQ(rc::parse_spice_value("10k"), 1e4);
  EXPECT_DOUBLE_EQ(rc::parse_spice_value("5pF"), 5e-12);
  EXPECT_DOUBLE_EQ(rc::parse_spice_value("4.7uH"), 4.7e-6);
  EXPECT_DOUBLE_EQ(rc::parse_spice_value("3mohm"), 3e-3);
  EXPECT_DOUBLE_EQ(rc::parse_spice_value("-1.5"), -1.5);  // sign is the caller's problem
}

TEST(ParseSpiceValue, RejectsTrailingGarbage) {
  // ("0xff" is absent: strtod accepts hex floats, so it parses as 255.)
  for (const char* bad : {"2nq", "1e", "3..5", "1x", "12 34"}) {
    const ru::Result<double> res = rc::parse_spice_value_checked(bad);
    ASSERT_FALSE(res.is_ok()) << bad;
    EXPECT_EQ(res.status().code(), ru::ErrorCode::kParseError) << bad;
    EXPECT_THROW((void)rc::parse_spice_value(bad), std::invalid_argument) << bad;
  }
}

TEST(ParseSpiceValue, RejectsEmptyAndNonNumeric) {
  for (const char* bad : {"", "abc", "=", "--1"}) {
    const ru::Result<double> res = rc::parse_spice_value_checked(bad);
    ASSERT_FALSE(res.is_ok()) << bad;
    EXPECT_EQ(res.status().code(), ru::ErrorCode::kParseError) << bad;
  }
}

TEST(ParseSpiceValue, RejectsNonFiniteSpellings) {
  for (const char* bad : {"nan", "NaN", "inf", "INF", "infinity"}) {
    const ru::Result<double> res = rc::parse_spice_value_checked(bad);
    ASSERT_FALSE(res.is_ok()) << bad;
    EXPECT_EQ(res.status().code(), ru::ErrorCode::kParseError) << bad;
  }
}

TEST(ParseSpiceValue, RejectsOutOfRangeMagnitudes) {
  for (const char* bad : {"1e999", "-1e999", "9e307k"}) {
    const ru::Result<double> res = rc::parse_spice_value_checked(bad);
    ASSERT_FALSE(res.is_ok()) << bad;
    EXPECT_EQ(res.status().code(), ru::ErrorCode::kValueOutOfRange) << bad;
  }
  // Underflow to subnormal/zero is not an error.
  EXPECT_TRUE(rc::parse_spice_value_checked("1e-999").is_ok());
}

// --- tree netlist reader -----------------------------------------------------

TEST(TreeNetlistFaults, RoundTripStillWorks) {
  const rc::RlcTree t = rc::make_fig8_tree();
  std::ostringstream os;
  rc::write_tree_netlist(t, os);
  std::istringstream is(os.str());
  const rc::RlcTree back = rc::read_tree_netlist(is);
  ASSERT_EQ(back.size(), t.size());
  expect_model_equal(eed::analyze(back), eed::analyze(t));
}

TEST(TreeNetlistFaults, ReportsLineContext) {
  std::istringstream is("section a - R=1 L=0 C=1p\nsectoin b a R=1 L=0 C=1p\n");
  const ru::Result<rc::RlcTree> res = rc::read_tree_netlist_checked(is);
  ASSERT_FALSE(res.is_ok());
  EXPECT_EQ(res.status().code(), ru::ErrorCode::kParseError);
  EXPECT_EQ(res.status().line(), 2);
}

/// A deck the readers reject, the code they report and its line.
struct BadDeck {
  const char* text;
  ru::ErrorCode code;
  int line;
};

TEST(TreeNetlistFaults, RejectsBadValuesWithLine) {
  // A value keeps the code parse_spice_value_checked gives it, and a
  // negative element is kNegativeValue and a duplicate section
  // kDuplicateName, as circuit::validate names them.
  const BadDeck decks[] = {
      {"section a - R=2nq L=0 C=1p\n", ru::ErrorCode::kParseError, 1},        // trailing garbage
      {"section a - R=1e L=0 C=1p\n", ru::ErrorCode::kParseError, 1},         // dangling exponent
      {"section a - R=nan L=0 C=1p\n", ru::ErrorCode::kParseError, 1},        // non-finite literal
      {"section a - R=1e999 L=0 C=1p\n", ru::ErrorCode::kValueOutOfRange, 1}, // out of range
      {"section a - R=1 L=9e307k C=1p\n", ru::ErrorCode::kValueOutOfRange, 1},  // scaled out
      {"section a - R=-5 L=0 C=1p\n", ru::ErrorCode::kNegativeValue, 1},      // negative element
      {"section a - R=1 L=0 C=1p\nsection b a R=1 L=-1n C=1p\n", ru::ErrorCode::kNegativeValue,
       2},
      {"section a - R=1 L=0\n", ru::ErrorCode::kParseError, 1},               // missing field
      {"section a b R=1 L=0 C=1p\n", ru::ErrorCode::kParseError, 1},          // unknown parent
      {"section a - R=1 L=0 C=1p\nsection a - R=1 L=0 C=1p\n", ru::ErrorCode::kDuplicateName,
       2},  // duplicate
  };
  for (const BadDeck& deck : decks) {
    std::istringstream is(deck.text);
    const ru::Result<rc::RlcTree> res = rc::read_tree_netlist_checked(is);
    ASSERT_FALSE(res.is_ok()) << deck.text;
    EXPECT_EQ(res.status().code(), deck.code) << deck.text << res.status().message();
    EXPECT_EQ(res.status().line(), deck.line) << deck.text;
    std::istringstream is2(deck.text);
    EXPECT_THROW((void)rc::read_tree_netlist(is2), std::invalid_argument) << deck.text;
  }
}

TEST(TreeNetlistFaults, EmptyDeckIsAnError) {
  std::istringstream is("# only a comment\n");
  const ru::Result<rc::RlcTree> res = rc::read_tree_netlist_checked(is);
  ASSERT_FALSE(res.is_ok());
  EXPECT_EQ(res.status().code(), ru::ErrorCode::kEmptyTree);
}

// --- spice reader ------------------------------------------------------------

TEST(SpiceFaults, RoundTripStillWorks) {
  const rc::RlcTree t = rc::make_fig8_tree();
  std::ostringstream os;
  rc::write_spice(t, os);
  std::istringstream is(os.str());
  const rc::RlcTree back = rc::read_spice(is);
  EXPECT_GT(back.size(), 0u);
}

TEST(SpiceFaults, RejectsMalformedCards) {
  const BadDeck decks[] = {
      {"R1 in n1\n", ru::ErrorCode::kParseError, 1},                         // missing value
      {"X1 in n1 5\n", ru::ErrorCode::kParseError, 1},                       // unsupported element
      {"R1 in in 5\nC1 in 0 1p\n", ru::ErrorCode::kParseError, 1},           // self-short
      {"R1 in n1 -5\nC1 n1 0 1p\n", ru::ErrorCode::kNegativeValue, 1},       // negative value
      {"R1 in n1 5\nC1 n1 0 -1p\n", ru::ErrorCode::kNegativeValue, 2},       // negative C
      {"R1 in n1 2nq\nC1 n1 0 1p\n", ru::ErrorCode::kParseError, 1},         // trailing garbage
      {"R1 in n1 1e999\nC1 n1 0 1p\n", ru::ErrorCode::kValueOutOfRange, 1},  // out of range
      {"C1 n1 n2 1p\nR1 in n1 5\n", ru::ErrorCode::kParseError, 1},          // floating capacitor
  };
  for (const BadDeck& deck : decks) {
    std::istringstream is(deck.text);
    const ru::Result<rc::RlcTree> res = rc::read_spice_checked(is);
    ASSERT_FALSE(res.is_ok()) << deck.text;
    EXPECT_EQ(res.status().code(), deck.code) << deck.text << res.status().message();
    EXPECT_EQ(res.status().line(), deck.line) << deck.text;
    std::istringstream is2(deck.text);
    EXPECT_THROW((void)rc::read_spice(is2), std::invalid_argument) << deck.text;
  }
}

TEST(SpiceFaults, RejectsResistorLoop) {
  std::istringstream is(
      "R1 in n1 5\nR2 n1 n2 5\nR3 n2 in 5\nC1 n1 0 1p\nC2 n2 0 1p\n");
  const ru::Result<rc::RlcTree> res = rc::read_spice_checked(is);
  ASSERT_FALSE(res.is_ok());
  EXPECT_EQ(res.status().code(), ru::ErrorCode::kCycle);
}

// --- eed::analyze guardrails -------------------------------------------------

TEST(AnalyzeGuards, ThrowPolicyNamesTheNode) {
  rc::RlcTree t = two_root_forest();
  t.values(1).capacitance = kNaN;
  try {
    (void)eed::analyze(t);
    FAIL() << "expected FaultError";
  } catch (const ru::FaultError& e) {
    EXPECT_EQ(e.code(), ru::ErrorCode::kNonFiniteMoment);
    EXPECT_EQ(e.node(), 1);
  }
}

TEST(AnalyzeGuards, NegativeMomentClassified) {
  rc::RlcTree t = two_root_forest();
  t.values(1).inductance = -1e-9;  // SL_1 goes negative
  try {
    (void)eed::analyze(t);
    FAIL() << "expected FaultError";
  } catch (const ru::FaultError& e) {
    EXPECT_EQ(e.code(), ru::ErrorCode::kNegativeMoment);
  }
}

TEST(AnalyzeGuards, SkipAndFlagKeepsHealthyNodesBitwise) {
  const rc::RlcTree clean = two_root_forest();
  const eed::TreeModel reference = eed::analyze(clean);

  rc::RlcTree poisoned = clean;
  poisoned.values(1).capacitance = kNaN;
  eed::AnalyzeOptions opts;
  opts.fault_policy = ru::FaultPolicy::kSkipAndFlag;
  const eed::TreeModel model = eed::analyze(poisoned, opts);

  EXPECT_FALSE(model.fault_free());
  EXPECT_EQ(model.fault_count, 1u);
  EXPECT_TRUE(model.faulted(1));
  EXPECT_TRUE(std::isnan(model.nodes[1].sum_rc));  // skip keeps the poison
  // Nodes 0 and 2 live in the other root's subtree: bitwise-identical.
  expect_node_equal(model.nodes[0], reference.nodes[0]);
  expect_node_equal(model.nodes[2], reference.nodes[2]);
  EXPECT_EQ(model.load_capacitance[0], reference.load_capacitance[0]);
  EXPECT_EQ(model.load_capacitance[2], reference.load_capacitance[2]);
}

TEST(AnalyzeGuards, ClampAndFlagProducesFiniteDegenerateModel) {
  rc::RlcTree t = two_root_forest();
  t.values(1).capacitance = kInf;
  eed::AnalyzeOptions opts;
  opts.fault_policy = ru::FaultPolicy::kClampAndFlag;
  const eed::TreeModel model = eed::analyze(t, opts);
  ASSERT_TRUE(model.faulted(1));
  EXPECT_EQ(model.nodes[1].sum_rc, 0.0);  // clamped to the RC-degenerate limit
  EXPECT_EQ(model.nodes[1].sum_lc, 0.0);
  EXPECT_TRUE(std::isinf(model.nodes[1].zeta));
  EXPECT_EQ(model.load_capacitance[1], 0.0);
}

TEST(AnalyzeGuards, FlatTreeOverloadGuardsToo) {
  rc::RlcTree t = two_root_forest();
  t.values(0).resistance = kNaN;
  const rc::FlatTree flat(t);
  EXPECT_THROW((void)eed::analyze(flat), ru::FaultError);
  eed::AnalyzeOptions opts;
  opts.fault_policy = ru::FaultPolicy::kSkipAndFlag;
  const eed::TreeModel model = eed::analyze(flat, opts);
  EXPECT_TRUE(model.faulted(0));
  EXPECT_TRUE(model.faulted(2));  // poison propagates down the path
  EXPECT_FALSE(model.faulted(1));
}

TEST(AnalyzeGuards, OverflowToNonFiniteMomentIsCaught) {
  // Finite inputs can still overflow the moment sums; that must be a
  // structured fault, not a silent Inf.
  rc::RlcTree t;
  t.add_section(rc::kInput, {1e308, 0.0, 1e308}, "huge");
  eed::AnalyzeOptions opts;
  opts.fault_policy = ru::FaultPolicy::kSkipAndFlag;
  const eed::TreeModel model = eed::analyze(t, opts);
  EXPECT_TRUE(model.faulted(0));
  EXPECT_THROW((void)eed::analyze(t), ru::FaultError);
}

TEST(AnalyzeGuards, CountingVariantReportsFaultedNodes) {
  rc::RlcTree t = two_root_forest();
  t.values(1).resistance = kNaN;
  eed::AnalyzeOptions opts;
  opts.fault_policy = ru::FaultPolicy::kSkipAndFlag;
  const eed::CountedAnalysis counted = eed::analyze_counting(t, opts);
  EXPECT_EQ(counted.stats.faulted_nodes, 1u);
  EXPECT_EQ(counted.stats.nodes, 3u);
}

// --- TimingEngine ------------------------------------------------------------

TEST(EngineFaults, ConstructorValidates) {
  rc::RlcTree t = two_root_forest();
  t.values(2).inductance = kNaN;
  try {
    const eng::TimingEngine engine(t);
    FAIL() << "expected FaultError";
  } catch (const ru::FaultError& e) {
    EXPECT_EQ(e.code(), ru::ErrorCode::kNonFiniteValue);
    EXPECT_EQ(e.node(), 2);
  }
}

TEST(EngineFaults, PoisonedEditThrowsAndChangesNothing) {
  eng::TimingEngine engine(rc::make_fig8_tree());
  const eed::TreeModel before = eed::analyze(engine.tree());
  const std::size_t size_before = engine.size();

  EXPECT_THROW(engine.set_section_values(0, {kNaN, 0.0, 1e-13}), ru::FaultError);
  EXPECT_THROW(engine.set_section_values(1, {1.0, kInf, 1e-13}), ru::FaultError);
  EXPECT_THROW(engine.set_section_values(2, {1.0, 0.0, -1e-13}), ru::FaultError);
  EXPECT_THROW(engine.set_section_values(-1, {1.0, 0.0, 1e-13}), std::out_of_range);

  EXPECT_EQ(engine.size(), size_before);
  expect_engine_matches(engine, before);
  expect_model_equal(eed::analyze(engine.tree()), before);
}

// --- BatchedAnalyzer ---------------------------------------------------------

namespace {

/// Scalar reference: the tree with sample `vals` applied, analyzed fresh.
eed::TreeModel scalar_reference(const rc::RlcTree& base, const std::vector<double>& r,
                                const std::vector<double>& l, const std::vector<double>& c) {
  rc::RlcTree t = base;
  for (std::size_t i = 0; i < t.size(); ++i) {
    t.values(static_cast<rc::SectionId>(i)) = {r[i], l[i], c[i]};
  }
  eed::AnalyzeOptions opts;
  opts.fault_policy = ru::FaultPolicy::kSkipAndFlag;
  return eed::analyze(t, opts);
}

}  // namespace

TEST(BatchedFaults, ConstructorValidatesTopology) {
  rc::RlcTree t = two_root_forest();
  t.values(1).resistance = kNaN;
  EXPECT_THROW(eng::BatchedAnalyzer(rc::FlatTree(t)), ru::FaultError);
}

TEST(BatchedFaults, SetSampleThrowPolicyCatchesNaNAndNegative) {
  const rc::RlcTree base = rc::make_balanced_tree(3, 2, {10.0, 1e-9, 1e-13});
  eng::BatchedAnalyzer batch{rc::FlatTree(base), 4};
  batch.resize(4);
  const std::size_t n = batch.sections();
  std::vector<double> r(n, 1.0), l(n, 1e-9), c(n, 1e-13);
  r[n / 2] = kNaN;
  EXPECT_THROW(batch.set_sample(1, r.data(), l.data(), c.data()), ru::FaultError);
  r[n / 2] = kInf;
  EXPECT_THROW(batch.set_sample(1, r.data(), l.data(), c.data()), ru::FaultError);
  r[n / 2] = -1.0;
  EXPECT_THROW(batch.set_sample(1, r.data(), l.data(), c.data()), std::invalid_argument);
  EXPECT_THROW(batch.set_section(0, 0, {1.0, kNaN, 1e-13}), ru::FaultError);
}

TEST(BatchedFaults, OverflowingMomentsFlagTheSample) {
  rc::RlcTree base;
  base.add_section(rc::kInput, {1.0, 0.0, 1e-13}, "x");
  eng::BatchedAnalyzer batch{rc::FlatTree(base), 2};
  batch.resize(2);
  const double r_ok = 1.0, l_ok = 0.0, c_ok = 1e-13;
  const double r_huge = 1e308, l_huge = 0.0, c_huge = 1e308;  // finite inputs, Inf moment
  batch.set_sample(0, &r_ok, &l_ok, &c_ok);
  batch.set_sample(1, &r_huge, &l_huge, &c_huge);
  try {
    (void)batch.analyze_nodes({0});
    FAIL() << "expected FaultError";
  } catch (const ru::FaultError& e) {
    EXPECT_EQ(e.code(), ru::ErrorCode::kNonFiniteMoment);
    EXPECT_EQ(e.status().message(),
              "BatchedAnalyzer::analyze: non-finite moments in sample 1 (1 faulted of 2 samples)");
  }
}

TEST(BatchedFaults, StreamFillFaultsFollowThePolicy) {
  const rc::RlcTree base = rc::make_balanced_tree(3, 2, {10.0, 1e-9, 1e-13});
  const std::size_t n = base.size();
  std::vector<rc::SectionId> every(n);
  for (std::size_t i = 0; i < n; ++i) every[i] = static_cast<rc::SectionId>(i);
  bool poison = true;
  const auto fill = [&](std::size_t s, double* r, double* l, double* c) {
    for (std::size_t i = 0; i < n; ++i) {
      r[i] = 10.0 + static_cast<double>(s);
      l[i] = 1e-9;
      c[i] = 1e-13;
    }
    if (poison && s == 1) l[0] = kNaN;
  };

  eng::BatchedAnalyzer batch{rc::FlatTree(base), 4};
  try {
    (void)batch.analyze_stream(3, fill, every);
    FAIL() << "expected FaultError";
  } catch (const ru::FaultError& e) {
    EXPECT_EQ(e.code(), ru::ErrorCode::kInvalidArgument);
    EXPECT_EQ(e.status().message(),
              "BatchedAnalyzer::analyze_stream: invalid element values in sample 1 "
              "(1 faulted of 3 samples)");
  }
  // The same fill without the poison: streamed lanes bitwise-match the
  // scalar analysis.
  poison = false;
  const eng::BatchedModels models = batch.analyze_stream(3, fill, every);
  std::vector<double> r(n), l(n), c(n);
  fill(2, r.data(), l.data(), c.data());
  const eed::TreeModel ref = scalar_reference(base, r, l, c);
  for (std::size_t i = 0; i < n; ++i) {
    const auto id = static_cast<rc::SectionId>(i);
    EXPECT_EQ(models.sum_rc(2, id), ref.nodes[i].sum_rc);
    EXPECT_EQ(models.node(2, id).sum_lc, ref.nodes[i].sum_lc);
  }
}

TEST(BatchedFaults, PooledAnalyzeAgreesOnFaults) {
  // Samples 5 and 7 overflow (finite inputs, Inf moments) in different
  // lane-groups; serial and pooled sweeps name the same first one.
  const rc::RlcTree base = rc::make_balanced_tree(4, 2, {10.0, 1e-9, 1e-13});
  const std::size_t n = base.size();
  std::vector<rc::SectionId> every(n);
  for (std::size_t i = 0; i < n; ++i) every[i] = static_cast<rc::SectionId>(i);
  eng::BatchedAnalyzer batch{rc::FlatTree(base), 2};
  const std::size_t samples = 9;
  batch.resize(samples);
  std::vector<double> r(n, 1.0), l(n, 1e-9), c(n, 1e-13);
  std::vector<double> huge_r(n, 1e308), huge_c(n, 1e308);
  for (std::size_t s = 0; s < samples; ++s) {
    if (s == 5 || s == 7) {
      batch.set_sample(s, huge_r.data(), l.data(), huge_c.data());
    } else {
      batch.set_sample(s, r.data(), l.data(), c.data());
    }
  }
  ru::WorkerPool pool(4);
  for (ru::WorkerPool* p : {static_cast<ru::WorkerPool*>(nullptr), &pool}) {
    try {
      (void)batch.analyze_nodes(every, p);
      FAIL() << "expected FaultError";
    } catch (const ru::FaultError& e) {
      EXPECT_EQ(e.code(), ru::ErrorCode::kNonFiniteMoment);
      EXPECT_EQ(e.status().message(),
                "BatchedAnalyzer::analyze: non-finite moments in sample 5 "
                "(2 faulted of 9 samples)");
    }
  }
}
