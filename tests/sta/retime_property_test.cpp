// Property: for ANY (design, edit-sequence) draw, the incrementally
// re-timed result is bitwise-equal to a from-scratch analysis of the
// edited design — WNS/TNS, endpoint counts, every PointTiming, every wire
// delay, every endpoint row — and stays so across thread counts.
// 100+ random draws, several commits each, all four edit-op kinds, with
// constraints drawn around the endpoint arrivals so endpoints violate,
// recover and lose their constraint. The draws run twice: over the
// generic library, whose linear cells give an output slew that depends
// on the load alone, and over cells whose output slew depends on the
// input slew too, so a commit moves the driver slew of nets it never
// edited and the update must solve their wire stages again.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "../util/exact_sum_reference.hpp"
#include "relmore/timer.hpp"

namespace relmore {
namespace {

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// SplitMix64: deterministic across platforms, no banned Date/random.
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

void expect_bitwise_equal(const sta::TimingResult& got, const sta::TimingResult& want,
                          std::uint64_t draw) {
  ASSERT_EQ(got.nets.size(), want.nets.size());
  EXPECT_EQ(bits(got.summary.wns), bits(want.summary.wns)) << "draw " << draw;
  EXPECT_EQ(bits(got.summary.tns), bits(want.summary.tns)) << "draw " << draw;
  EXPECT_EQ(got.summary.endpoints, want.summary.endpoints) << "draw " << draw;
  EXPECT_EQ(got.summary.constrained_endpoints, want.summary.constrained_endpoints)
      << "draw " << draw;
  EXPECT_EQ(got.summary.untimed_endpoints, want.summary.untimed_endpoints) << "draw " << draw;
  const auto same_point = [](const sta::PointTiming& a, const sta::PointTiming& b) {
    return a.timed == b.timed && a.constrained == b.constrained &&
           bits(a.arrival) == bits(b.arrival) && bits(a.slew) == bits(b.slew) &&
           bits(a.required) == bits(b.required);
  };
  for (std::size_t ni = 0; ni < want.nets.size(); ++ni) {
    const sta::NetTiming& g = got.nets[ni];
    const sta::NetTiming& w = want.nets[ni];
    ASSERT_TRUE(same_point(g.driver, w.driver)) << "draw " << draw << " net " << ni;
    ASSERT_EQ(g.faulted, w.faulted) << "draw " << draw << " net " << ni;
  }
  ASSERT_EQ(got.taps.size(), want.taps.size());
  ASSERT_EQ(got.wire_delay.size(), want.wire_delay.size());
  for (std::size_t t = 0; t < want.taps.size(); ++t) {
    ASSERT_TRUE(same_point(got.taps[t], want.taps[t])) << "draw " << draw << " tap slot " << t;
    ASSERT_EQ(bits(got.wire_delay[t]), bits(want.wire_delay[t]))
        << "draw " << draw << " tap slot " << t;
  }
  ASSERT_EQ(got.winning_input, want.winning_input) << "draw " << draw;
  ASSERT_EQ(got.summary.endpoints_by_slack.size(), want.summary.endpoints_by_slack.size());
  for (std::size_t i = 0; i < want.summary.endpoints_by_slack.size(); ++i) {
    const sta::EndpointSlack& g = got.summary.endpoints_by_slack[i];
    const sta::EndpointSlack& w = want.summary.endpoints_by_slack[i];
    ASSERT_EQ(g.port, w.port) << "draw " << draw << " row " << i;
    ASSERT_EQ(g.timed, w.timed) << "draw " << draw << " row " << i;
    ASSERT_EQ(g.constrained, w.constrained) << "draw " << draw << " row " << i;
    ASSERT_EQ(bits(g.arrival), bits(w.arrival)) << "draw " << draw << " row " << i;
    ASSERT_EQ(bits(g.required), bits(w.required)) << "draw " << draw << " row " << i;
    ASSERT_EQ(bits(g.slack), bits(w.slack)) << "draw " << draw << " row " << i;
  }
}

/// WNS and TNS by their definitions, apart from the library's own
/// bookkeeping: WNS the smallest constrained slack (0 without one), TNS
/// the correctly rounded sum of the negative constrained slacks, from the
/// reference that shares no code with util::ExactSum.
void expect_summary_definition(const sta::TimingResult& result, std::uint64_t draw) {
  double wns = 0.0;
  std::vector<double> terms;
  bool constrained = false;
  for (const sta::EndpointSlack& row : result.summary.endpoints_by_slack) {
    if (!row.timed || !row.constrained) continue;
    if (!constrained || row.slack < wns) wns = row.slack;
    constrained = true;
    if (row.slack < 0.0) terms.push_back(row.slack);
  }
  EXPECT_EQ(bits(result.summary.wns), bits(wns)) << "draw " << draw;
  EXPECT_EQ(bits(result.summary.tns), bits(util::reference::exact_sum(terms))) << "draw " << draw;
}

/// The median arrival over the timed endpoints: constraints drawn around
/// it leave about half the endpoints violated, so TNS has terms to move.
double median_arrival(const sta::TimingResult& result) {
  std::vector<double> arrivals;
  for (const sta::EndpointSlack& row : result.summary.endpoints_by_slack) {
    if (row.timed) arrivals.push_back(row.arrival);
  }
  if (arrivals.empty()) return 1e-9;
  std::nth_element(arrivals.begin(), arrivals.begin() + arrivals.size() / 2, arrivals.end());
  return arrivals[arrivals.size() / 2];
}

/// One random edit recorded on `edit`; every op kind reachable. Required
/// times and clock periods are drawn around `pivot`, and one clock draw in
/// four removes the clock, unconstraining every endpoint without its own
/// required time.
void record_random_op(Rng& rng, const sta::Design& design, double pivot, Timer::Edit& edit) {
  switch (rng.below(6)) {
    case 0:
    case 1:
    case 2: {  // wire value edit (the common what-if), weighted up
      const sta::Net& net = design.nets[rng.below(design.nets.size())];
      const circuit::Section& sec =
          net.tree.section(static_cast<circuit::SectionId>(rng.below(net.tree.size())));
      circuit::SectionValues wire;
      wire.resistance = 10.0 + 120.0 * rng.unit();
      wire.inductance = rng.below(2) == 0 ? 0.0 : 1e-12 * rng.unit();
      wire.capacitance = 4e-15 + 50e-15 * rng.unit();
      ASSERT_TRUE(edit.set_net_section_values(net.name, sec.name, wire).is_ok());
      break;
    }
    case 3: {  // cell swap
      if (design.instances.empty()) return;
      const sta::Instance& inst = design.instances[rng.below(design.instances.size())];
      // Swap between the two buffer strengths; nand2 instances keep a
      // 2-input-compatible arc either way (the subset shares one arc).
      const char* cell = rng.below(2) == 0 ? "buf_x1" : "buf_x4";
      ASSERT_TRUE(edit.set_cell(inst.name, cell).is_ok());
      break;
    }
    case 4: {  // endpoint constraint
      std::vector<int> outputs;
      for (std::size_t p = 0; p < design.ports.size(); ++p) {
        if (!design.ports[p].is_input) outputs.push_back(static_cast<int>(p));
      }
      if (outputs.empty()) return;
      const sta::DesignPort& port =
          design.ports[static_cast<std::size_t>(outputs[rng.below(outputs.size())])];
      ASSERT_TRUE(edit.set_port_required(port.name, (0.6 + 0.8 * rng.unit()) * pivot).is_ok());
      break;
    }
    default: {  // clock retarget
      const double period = rng.below(4) == 0 ? 0.0 : (0.6 + 0.8 * rng.unit()) * pivot;
      ASSERT_TRUE(edit.set_clock_period(period).is_ok());
      break;
    }
  }
}

/// What sets each net's driver slew — the slew itself, the net's load and
/// each instance's cell — taken before and after a commit to find the
/// nets whose driver slew moved by their input slew alone.
struct DriverInputs {
  std::vector<double> slew;       ///< per net
  std::vector<double> total_cap;  ///< per net
  std::vector<int> cell;          ///< per instance
};

DriverInputs driver_inputs(const sta::Design& design, const sta::TimingResult& result) {
  DriverInputs in;
  for (std::size_t ni = 0; ni < design.nets.size(); ++ni) {
    in.slew.push_back(result.nets[ni].driver.slew);
    in.total_cap.push_back(design.nets[ni].total_cap);
  }
  for (const sta::Instance& inst : design.instances) in.cell.push_back(inst.cell);
  return in;
}

/// The instance-driven nets whose driver slew moved while their load and
/// their driving cell did not: nets whose input slew alone moved it.
std::size_t slew_only_moves(const sta::Design& design, const DriverInputs& before,
                            const DriverInputs& after) {
  std::size_t moved = 0;
  for (std::size_t ni = 0; ni < design.nets.size(); ++ni) {
    const sta::Net& net = design.nets[ni];
    if (net.driver_kind != sta::DriverKind::kInstance) continue;
    const auto inst = static_cast<std::size_t>(net.driver_index);
    if (bits(before.slew[ni]) != bits(after.slew[ni]) &&
        bits(before.total_cap[ni]) == bits(after.total_cap[ni]) &&
        before.cell[inst] == after.cell[inst]) {
      ++moved;
    }
  }
  return moved;
}

/// Runs the property's draws over designs built by `make(spec)`: a full
/// analysis, then random commits, each bitwise-equal to a from-scratch
/// analysis of the edited design. Adds to `slew_moves` how many times a
/// commit moved a driver slew by its input slew alone (slew_only_moves).
template <typename Make>
void check_random_edit_sequences(const Make& make, std::size_t* slew_moves) {
  constexpr std::uint64_t kDraws = 100;
  constexpr std::size_t kCommitsPerDraw = 3;
  for (std::uint64_t draw = 0; draw < kDraws; ++draw) {
    Rng rng{0xC0FFEE ^ (draw * 0x9E3779B97F4A7C15ULL)};
    sta::SyntheticSpec spec;
    spec.nets = 16 + 4 * rng.below(12);
    spec.seed = draw + 1;
    spec.topo_classes = 2 + rng.below(4);
    spec.chain_depth = 2 + rng.below(4);
    util::Result<sta::Design> design = make(spec);
    ASSERT_TRUE(design.is_ok()) << design.status().to_string();

    Timer timer;
    ASSERT_TRUE(timer.load(std::move(design).value()).is_ok());
    // The thread count rotates per draw; it may not move a bit.
    sta::AnalyzeOptions options;
    options.threads = 1u + static_cast<unsigned>(rng.below(4));
    ASSERT_TRUE(timer.analyze(options).is_ok());
    const double pivot = median_arrival(*timer.result());

    for (std::size_t commit = 0; commit < kCommitsPerDraw; ++commit) {
      const DriverInputs before = driver_inputs(*timer.design(), *timer.result());
      Timer::Edit edit = timer.edit();
      const std::size_t ops = 1 + rng.below(5);
      for (std::size_t op = 0; op < ops; ++op) {
        record_random_op(rng, *timer.design(), pivot, edit);
      }
      util::Result<Timer::EditOutcome> outcome = edit.commit();
      ASSERT_TRUE(outcome.is_ok()) << outcome.status().to_string() << " draw " << draw;
      ASSERT_TRUE(outcome.value().incremental) << "draw " << draw << " commit " << commit;
      ASSERT_NE(timer.result(), nullptr);
      *slew_moves += slew_only_moves(*timer.design(), before,
                                     driver_inputs(*timer.design(), *timer.result()));

      // Oracle: an uncached from-scratch analysis of the edited design.
      util::Result<sta::TimingGraph> graph = sta::TimingGraph::build_checked(*timer.design());
      ASSERT_TRUE(graph.is_ok());
      util::Result<sta::TimingResult> fresh = graph.value().analyze_checked();
      ASSERT_TRUE(fresh.is_ok()) << fresh.status().to_string();
      expect_bitwise_equal(*timer.result(), fresh.value(), draw);
      expect_summary_definition(fresh.value(), draw);

      // Spot-check knob independence: a differently-threaded fresh run
      // lands on the same bits (every 8th draw to keep the soak quick).
      if (draw % 8 == 0) {
        sta::AnalyzeOptions wide;
        wide.threads = 4;
        util::Result<sta::TimingResult> alt = graph.value().analyze_checked(wide);
        ASSERT_TRUE(alt.is_ok());
        expect_bitwise_equal(alt.value(), fresh.value(), draw);
      }
    }
  }
}

TEST(RetimeProperty, RandomEditSequencesMatchFullAnalysisBitwise) {
  std::size_t slew_moves = 0;
  check_random_edit_sequences(
      [](const sta::SyntheticSpec& spec) { return sta::make_synthetic_design_checked(spec); },
      &slew_moves);
  // Linear cells give an output slew that depends on the load alone, so
  // no commit moves the driver slew of a net whose load and cell stayed.
  EXPECT_EQ(slew_moves, 0u);
}

/// The generic library with the synthetic designs' three cells (buf_x1,
/// buf_x4, nand2_x1) given output-slew tables that rise with the input
/// slew as well as the load.
sta::CellLibrary slew_dependent_library() {
  sta::CellLibrary library = sta::generic_library();
  const std::vector<double> slews = {0.0, 50e-12, 500e-12, 5e-9};
  const std::vector<double> loads = {0.0, 50e-15, 500e-15, 5e-12};
  for (const char* name : {"buf_x1", "buf_x4", "nand2_x1"}) {
    const int index = library.find(name);
    EXPECT_GE(index, 0) << name;
    sta::Cell cell = library.cell(static_cast<std::size_t>(index));
    std::vector<double> values;
    for (const double slew : slews) {
      for (const double load : loads) {
        values.push_back(cell.arc_slew(0.0, load) * (1.0 + slew / (slew + 100e-12)) +
                         0.25 * slew);
      }
    }
    util::Result<sta::TimingTable> table =
        sta::TimingTable::create_checked(slews, loads, std::move(values));
    EXPECT_TRUE(table.is_ok()) << table.status().to_string();
    cell.output_slew = std::move(table).value();
    library.add(std::move(cell));
  }
  return library;
}

TEST(RetimeProperty, SlewDependentCellsMatchFullAnalysisBitwise) {
  const sta::CellLibrary library = slew_dependent_library();
  std::size_t slew_moves = 0;
  check_random_edit_sequences(
      [&](const sta::SyntheticSpec& spec) {
        std::istringstream is(sta::make_synthetic_design_text(spec));
        return sta::read_design_checked(is, library);
      },
      &slew_moves);
  // The draws move driver slews of nets whose load and cell stayed: the
  // nets whose stored wire stages a commit must not keep.
  EXPECT_GT(slew_moves, 0u);
}

}  // namespace
}  // namespace relmore
