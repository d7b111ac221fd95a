// Fault-injection suite: every public entry point of the analysis pipeline
// fed NaN/Inf/negative values and malformed decks, asserting the documented
// Status/exception surface — and, for the transactional engine, that a
// rolled-back (or throwing) edit leaves the engine bitwise-identical to its
// prior state.

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
#include "relmore/engine/worker_pool.hpp"
#include "relmore/util/diagnostics.hpp"

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
  const eed::TreeModel before = engine.model();
  const std::size_t size_before = engine.size();

  EXPECT_THROW(engine.set_section_values(0, {kNaN, 0.0, 1e-13}), ru::FaultError);
  EXPECT_THROW(engine.set_section_values(1, {1.0, kInf, 1e-13}), ru::FaultError);
  EXPECT_THROW(engine.set_section_values(2, {1.0, 0.0, -1e-13}), ru::FaultError);
  EXPECT_THROW(engine.set_section_values(-1, {1.0, 0.0, 1e-13}), std::out_of_range);

  EXPECT_EQ(engine.size(), size_before);
  expect_model_equal(engine.model(), before);
  expect_model_equal(engine.model(), eed::analyze(engine.tree()));
}

TEST(EngineFaults, BatchWithOnePoisonedEditAppliesNothing) {
  eng::TimingEngine engine(rc::make_fig8_tree());
  const eed::TreeModel before = engine.model();
  std::vector<eng::Edit> edits;
  edits.push_back({0, {2.0, 1e-9, 1e-13}});
  edits.push_back({1, {3.0, kNaN, 2e-13}});  // poisoned mid-batch
  edits.push_back({2, {4.0, 2e-9, 3e-13}});
  EXPECT_THROW(engine.apply_edits(edits), ru::FaultError);
  // Strong guarantee: the valid edits before the poisoned one must not
  // have landed either.
  expect_model_equal(engine.model(), before);
}

TEST(EngineFaults, GraftValidatesTheWholeSubtree) {
  eng::TimingEngine engine(rc::make_fig8_tree());
  const std::size_t size_before = engine.size();
  rc::RlcTree sub;
  const rc::SectionId a = sub.add_section(rc::kInput, {1.0, 0.0, 1e-13});
  sub.add_section(a, {1.0, 0.0, 1e-13});
  sub.values(1).capacitance = kNaN;
  EXPECT_THROW((void)engine.graft(0, sub), ru::FaultError);
  EXPECT_EQ(engine.size(), size_before);
  expect_model_equal(engine.model(), eed::analyze(engine.tree()));
}

TEST(EngineTransactions, StateMachineErrors) {
  eng::TimingEngine engine(two_root_forest());
  try {
    engine.commit();
    FAIL() << "expected FaultError";
  } catch (const ru::FaultError& e) {
    EXPECT_EQ(e.code(), ru::ErrorCode::kTransactionState);
  }
  EXPECT_THROW(engine.rollback(), ru::FaultError);
  engine.begin_transaction();
  EXPECT_TRUE(engine.in_transaction());
  EXPECT_THROW(engine.begin_transaction(), ru::FaultError);  // no nesting
  engine.commit();
  EXPECT_FALSE(engine.in_transaction());
}

TEST(EngineTransactions, CommitKeepsEdits) {
  eng::TimingEngine engine(two_root_forest());
  engine.begin_transaction();
  engine.set_section_values(0, {42.0, 1e-9, 5e-13});
  engine.commit();
  EXPECT_EQ(engine.tree().section(0).v.resistance, 42.0);
  expect_model_equal(engine.model(), eed::analyze(engine.tree()));
}

TEST(EngineTransactions, RollbackRestoresValuesGraftsAndPrunes) {
  const rc::RlcTree base = rc::make_fig8_tree();
  eng::TimingEngine engine(base);
  const eed::TreeModel before = engine.model();
  const std::size_t size_before = engine.size();

  engine.begin_transaction();
  engine.set_section_values(0, {99.0, 9e-9, 9e-13});
  rc::RlcTree sub;
  sub.add_section(rc::kInput, {1.0, 1e-10, 1e-13}, "grafted");
  const std::vector<rc::SectionId> added = engine.graft(2, sub);
  ASSERT_EQ(added.size(), 1u);
  engine.prune(added[0]);
  engine.prune(static_cast<rc::SectionId>(size_before - 1));
  engine.rollback();

  EXPECT_FALSE(engine.in_transaction());
  EXPECT_EQ(engine.size(), size_before);
  EXPECT_TRUE(engine.alive(static_cast<rc::SectionId>(size_before - 1)));
  expect_model_equal(engine.model(), before);
  expect_model_equal(engine.model(), eed::analyze(engine.tree()));
}

TEST(EngineTransactions, RandomizedInterleavedFaultsRollBackBitwise) {
  // Property test: a transaction mixing valid edits, poisoned edits (which
  // throw and must change nothing), grafts, and prunes — after rollback the
  // engine must be bitwise-identical to its pre-transaction self.
  std::mt19937 rng(20260806u);
  std::uniform_real_distribution<double> unit(0.1, 2.0);
  for (int round = 0; round < 8; ++round) {
    eng::TimingEngine engine(rc::make_balanced_tree(4, 2, {10.0, 1e-9, 1e-13}));
    const std::size_t size_before = engine.size();
    const eed::TreeModel before = engine.model();

    engine.begin_transaction();
    for (int op = 0; op < 40; ++op) {
      const auto id = static_cast<rc::SectionId>(rng() % size_before);
      switch (rng() % 6) {
        case 0:
          if (engine.alive(id)) {
            engine.set_section_values(id, {unit(rng) * 10.0, unit(rng) * 1e-9,
                                           unit(rng) * 1e-13});
          }
          break;
        case 1:
          if (engine.alive(id)) {
            EXPECT_THROW(engine.set_section_values(id, {kNaN, 1e-9, 1e-13}),
                         ru::FaultError);
          }
          break;
        case 2: {
          std::vector<eng::Edit> edits;
          for (int k = 0; k < 3; ++k) {
            const auto eid = static_cast<rc::SectionId>(rng() % size_before);
            if (!engine.alive(eid)) continue;
            edits.push_back({eid, {unit(rng) * 5.0, unit(rng) * 2e-9, unit(rng) * 2e-13}});
          }
          engine.apply_edits(edits);
          break;
        }
        case 3: {
          std::vector<eng::Edit> edits;
          edits.push_back({0, {1.0, 1e-9, 1e-13}});
          edits.push_back({1, {1.0, -1e-9, 1e-13}});  // poisoned
          // FaultError when both ids are alive; the plain dead-section
          // invalid_argument (its base) when an earlier prune got id 0 or 1.
          EXPECT_THROW(engine.apply_edits(edits), std::invalid_argument);
          break;
        }
        case 4: {
          rc::RlcTree sub;
          const rc::SectionId s0 = sub.add_section(rc::kInput, {unit(rng), 0.0, 1e-13});
          sub.add_section(s0, {unit(rng), 0.0, 1e-13});
          if (engine.alive(id)) (void)engine.graft(id, sub);
          break;
        }
        default:
          if (engine.alive(id)) engine.prune(id);
          break;
      }
    }
    engine.rollback();

    EXPECT_EQ(engine.size(), size_before);
    for (std::size_t i = 0; i < size_before; ++i) {
      EXPECT_TRUE(engine.alive(static_cast<rc::SectionId>(i)));
    }
    expect_model_equal(engine.model(), before);
    expect_model_equal(engine.model(), eed::analyze(engine.tree()));
    // The engine must stay fully usable after the rollback.
    engine.set_section_values(0, {1.0, 1e-9, 1e-13});
    expect_model_equal(engine.model(), eed::analyze(engine.tree()));
  }
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

TEST(BatchedFaults, OneBadSampleFlagsOnlyThatLane) {
  const rc::RlcTree base = rc::make_balanced_tree(3, 2, {10.0, 1e-9, 1e-13});
  const std::size_t n = base.size();
  eng::BatchedAnalyzer batch{rc::FlatTree(base), 4};
  batch.set_fault_policy(ru::FaultPolicy::kSkipAndFlag);
  const std::size_t samples = 6;  // two lane-groups, one spanning a fault
  batch.resize(samples);

  std::vector<std::vector<double>> rs(samples), ls(samples), cs(samples);
  for (std::size_t s = 0; s < samples; ++s) {
    rs[s].assign(n, 10.0 * (1.0 + 0.01 * static_cast<double>(s)));
    ls[s].assign(n, 1e-9 * (1.0 + 0.02 * static_cast<double>(s)));
    cs[s].assign(n, 1e-13 * (1.0 + 0.03 * static_cast<double>(s)));
  }
  cs[2][n - 1] = kNaN;  // poison one entry of sample 2
  for (std::size_t s = 0; s < samples; ++s) {
    batch.set_sample(s, rs[s].data(), ls[s].data(), cs[s].data());
  }

  const eng::BatchedModels models = batch.analyze();
  EXPECT_FALSE(models.fault_free());
  EXPECT_EQ(models.fault_count(), 1u);
  ASSERT_EQ(models.faulted_samples(), std::vector<std::size_t>{2});
  EXPECT_NE(models.fault_flags(2) & eed::kFaultBadInput, 0);

  // Every healthy lane is bitwise-equal to a scalar analysis of its tree.
  for (std::size_t s = 0; s < samples; ++s) {
    if (s == 2) continue;
    const eed::TreeModel ref = scalar_reference(base, rs[s], ls[s], cs[s]);
    for (std::size_t i = 0; i < n; ++i) {
      const auto id = static_cast<rc::SectionId>(i);
      EXPECT_EQ(models.sum_rc(s, id), ref.nodes[i].sum_rc) << "s=" << s << " i=" << i;
      EXPECT_EQ(models.sum_lc(s, id), ref.nodes[i].sum_lc);
      EXPECT_EQ(models.load_capacitance(s, id), ref.load_capacitance[i]);
    }
  }
}

TEST(BatchedFaults, ThrowPolicySurfacesRecordedFaultsAtAnalyze) {
  const rc::RlcTree base = rc::make_balanced_tree(3, 2, {10.0, 1e-9, 1e-13});
  const std::size_t n = base.size();
  eng::BatchedAnalyzer batch{rc::FlatTree(base), 2};
  batch.set_fault_policy(ru::FaultPolicy::kSkipAndFlag);
  batch.resize(3);
  std::vector<double> r(n, 1.0), l(n, 1e-9), c(n, 1e-13);
  l[0] = kNaN;
  batch.set_sample(2, r.data(), l.data(), c.data());  // recorded, not thrown
  batch.set_fault_policy(ru::FaultPolicy::kThrow);
  try {
    (void)batch.analyze();
    FAIL() << "expected FaultError";
  } catch (const ru::FaultError& e) {
    EXPECT_NE(std::string(e.what()).find("sample 2"), std::string::npos);
  }
}

TEST(BatchedFaults, ClampPolicyMatchesScalarOfClampedTree) {
  const rc::RlcTree base = rc::make_balanced_tree(3, 2, {10.0, 1e-9, 1e-13});
  const std::size_t n = base.size();
  eng::BatchedAnalyzer batch{rc::FlatTree(base), 4};
  batch.set_fault_policy(ru::FaultPolicy::kClampAndFlag);
  batch.resize(2);
  std::vector<double> r(n, 2.0), l(n, 1e-9), c(n, 1e-13);
  std::vector<double> rb = r, lb = l, cb = c;
  rb[1] = kInf;
  batch.set_sample(0, r.data(), l.data(), c.data());
  batch.set_sample(1, rb.data(), lb.data(), cb.data());
  const eng::BatchedModels models = batch.analyze();
  EXPECT_TRUE(models.faulted(1));
  EXPECT_FALSE(models.faulted(0));
  // Clamped input (Inf -> 0) analyzed like any other sample.
  std::vector<double> r_clamped = rb;
  r_clamped[1] = 0.0;
  const eed::TreeModel ref = scalar_reference(base, r_clamped, lb, cb);
  for (std::size_t i = 0; i < n; ++i) {
    const auto id = static_cast<rc::SectionId>(i);
    EXPECT_EQ(models.sum_rc(1, id), ref.nodes[i].sum_rc);
    EXPECT_EQ(models.sum_lc(1, id), ref.nodes[i].sum_lc);
  }
}

TEST(BatchedFaults, OverflowingMomentsFlagTheSample) {
  rc::RlcTree base;
  base.add_section(rc::kInput, {1.0, 0.0, 1e-13}, "x");
  eng::BatchedAnalyzer batch{rc::FlatTree(base), 2};
  batch.set_fault_policy(ru::FaultPolicy::kSkipAndFlag);
  batch.resize(2);
  const double r_ok = 1.0, l_ok = 0.0, c_ok = 1e-13;
  const double r_huge = 1e308, l_huge = 0.0, c_huge = 1e308;  // finite inputs, Inf moment
  batch.set_sample(0, &r_ok, &l_ok, &c_ok);
  batch.set_sample(1, &r_huge, &l_huge, &c_huge);
  const eng::BatchedModels models = batch.analyze();
  EXPECT_FALSE(models.faulted(0));
  ASSERT_TRUE(models.faulted(1));
  EXPECT_NE(models.fault_flags(1) & eed::kFaultNonFiniteMoment, 0);
}

TEST(BatchedFaults, StreamFillFaultsFollowThePolicy) {
  const rc::RlcTree base = rc::make_balanced_tree(3, 2, {10.0, 1e-9, 1e-13});
  const std::size_t n = base.size();
  const auto fill = [&](std::size_t s, double* r, double* l, double* c) {
    for (std::size_t i = 0; i < n; ++i) {
      r[i] = 10.0 + static_cast<double>(s);
      l[i] = 1e-9;
      c[i] = 1e-13;
    }
    if (s == 1) l[0] = kNaN;
  };

  eng::BatchedAnalyzer batch{rc::FlatTree(base), 4};
  EXPECT_THROW((void)batch.analyze_stream(3, fill, {}), std::invalid_argument);

  batch.set_fault_policy(ru::FaultPolicy::kSkipAndFlag);
  const eng::BatchedModels models = batch.analyze_stream(3, fill, {});
  EXPECT_EQ(models.fault_count(), 1u);
  EXPECT_TRUE(models.faulted(1));
  EXPECT_FALSE(models.faulted(0));
  EXPECT_FALSE(models.faulted(2));
  // Healthy streamed lanes bitwise-match the scalar analysis.
  std::vector<double> r(n), l(n), c(n);
  fill(2, r.data(), l.data(), c.data());
  const eed::TreeModel ref = scalar_reference(base, r, l, c);
  for (std::size_t i = 0; i < n; ++i) {
    const auto id = static_cast<rc::SectionId>(i);
    EXPECT_EQ(models.sum_rc(2, id), ref.nodes[i].sum_rc);
    EXPECT_EQ(models.sum_lc(2, id), ref.nodes[i].sum_lc);
  }
}

TEST(BatchedFaults, PooledAnalyzeAgreesOnFaults) {
  const rc::RlcTree base = rc::make_balanced_tree(4, 2, {10.0, 1e-9, 1e-13});
  const std::size_t n = base.size();
  eng::BatchedAnalyzer batch{rc::FlatTree(base), 2};
  batch.set_fault_policy(ru::FaultPolicy::kSkipAndFlag);
  const std::size_t samples = 9;
  batch.resize(samples);
  std::vector<double> r(n, 1.0), l(n, 1e-9), c(n, 1e-13);
  for (std::size_t s = 0; s < samples; ++s) {
    if (s == 5) {
      std::vector<double> bad = c;
      bad[0] = kNaN;
      batch.set_sample(s, r.data(), l.data(), bad.data());
    } else {
      batch.set_sample(s, r.data(), l.data(), c.data());
    }
  }
  eng::WorkerPool pool(4);
  const eng::BatchedModels serial = batch.analyze();
  const eng::BatchedModels pooled = batch.analyze(&pool);
  EXPECT_EQ(serial.fault_count(), 1u);
  EXPECT_EQ(pooled.fault_count(), 1u);
  EXPECT_EQ(serial.faulted_samples(), pooled.faulted_samples());
  for (std::size_t s = 0; s < samples; ++s) {
    if (s == 5) continue;
    for (std::size_t i = 0; i < n; ++i) {
      const auto id = static_cast<rc::SectionId>(i);
      EXPECT_EQ(serial.sum_rc(s, id), pooled.sum_rc(s, id));
    }
  }
}
