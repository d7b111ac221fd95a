#include "relmore/opt/buffer_insertion.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <string>

#include "relmore/circuit/flat_tree.hpp"
#include "relmore/eed/eed.hpp"
#include "relmore/engine/batched.hpp"
#include "relmore/sim/flat_stepper.hpp"
#include "relmore/sim/tree_transient.hpp"
#include "relmore/util/worker_pool.hpp"

namespace relmore::opt {

using circuit::RlcTree;
using circuit::SectionId;

namespace {

void check_problem(const BufferInsertionProblem& p) {
  if (p.slots < 1 || p.slots > 20) {
    throw std::invalid_argument("buffer insertion: slots must be in [1, 20]");
  }
  if (p.segments_per_span < 1) {
    throw std::invalid_argument("buffer insertion: segments_per_span must be >= 1");
  }
  if (p.wire.length_m <= 0.0) {
    throw std::invalid_argument("buffer insertion: wire length must be positive");
  }
}

/// One stage: spans consecutive unbuffered slots. Described by its driver
/// resistance, number of inter-slot spans of wire, and the load cap at the
/// far end (next buffer's input or the sink).
struct Stage {
  double driver_resistance = 0.0;
  int spans = 0;
  double load_capacitance = 0.0;
  bool ends_in_buffer = false;
  bool buffer_driven = false;  ///< driven by an inserted buffer, not the source
};

std::vector<Stage> decompose(const BufferInsertionProblem& p,
                             const std::vector<bool>& buffered) {
  if (buffered.size() != static_cast<std::size_t>(p.slots)) {
    throw std::invalid_argument("buffer insertion: candidate size mismatch");
  }
  std::vector<Stage> stages;
  Stage cur;
  cur.driver_resistance = p.source_resistance;
  cur.spans = 0;
  // Slot i sits after span i (spans = slots + 1 total, last span ends at
  // the sink).
  for (int slot = 0; slot < p.slots; ++slot) {
    ++cur.spans;
    if (buffered[static_cast<std::size_t>(slot)]) {
      cur.load_capacitance = p.buffer.input_capacitance;
      cur.ends_in_buffer = true;
      stages.push_back(cur);
      cur = Stage{};
      cur.driver_resistance = p.buffer.output_resistance;
      cur.buffer_driven = true;
    }
  }
  ++cur.spans;  // final span to the sink
  cur.load_capacitance = p.sink_capacitance;
  cur.ends_in_buffer = false;
  stages.push_back(cur);
  return stages;
}

/// Builds the RLC tree of one stage; returns (tree, sink id).
RlcTree stage_tree(const BufferInsertionProblem& p, const Stage& st, SectionId* sink) {
  const int total_spans = p.slots + 1;
  circuit::WireSpec span = p.wire;
  span.length_m = p.wire.length_m * static_cast<double>(st.spans) /
                  static_cast<double>(total_spans);
  RlcTree tree;
  const SectionId drv =
      tree.add_section(circuit::kInput, {st.driver_resistance, 0.0, 0.0}, "drv");
  const SectionId far =
      circuit::append_wire(tree, drv, span, p.segments_per_span * st.spans, "w");
  const SectionId load = tree.add_section(far, {1.0, 1e-14, st.load_capacitance}, "load");
  if (sink != nullptr) *sink = load;
  return tree;
}

double stage_delay_model(const BufferInsertionProblem& p, const Stage& st, DelayModel model) {
  SectionId sink = circuit::kInput;
  const RlcTree tree = stage_tree(p, st, &sink);
  const eed::TreeModel tm = eed::analyze(tree);
  const eed::NodeModel& nm = tm.at(sink);
  const double wire_delay = model == DelayModel::kWyattRc ? eed::wyatt_delay_50(nm.sum_rc)
                                                          : eed::delay_50(nm);
  return wire_delay + (st.ends_in_buffer ? p.buffer.intrinsic_delay : 0.0);
}

double stage_delay_simulated(const BufferInsertionProblem& p, const Stage& st) {
  SectionId sink = circuit::kInput;
  const RlcTree tree = stage_tree(p, st, &sink);
  const eed::TreeModel tm = eed::analyze(tree);
  // Explicit horizon from the stage's Elmore-based delay estimate; the
  // streaming crossing probe replaces full n x steps recording (the delay
  // value is bit-identical to the old measure_rising(waveform).delay_50).
  const double horizon = 20.0 * std::max(eed::delay_50(tm.at(sink)), 1e-12);
  sim::TransientOptions opts;
  opts.t_stop = horizon;
  opts.dt = horizon / 20000.0;
  const double d =
      sim::simulate_first_crossings(circuit::FlatTree(tree), sim::StepSource{1.0}, opts, {sink},
                                    0.5)
          .front();
  if (d < 0.0) throw std::runtime_error("stage_delay_simulated: no 50% crossing in horizon");
  return d + (st.ends_in_buffer ? p.buffer.intrinsic_delay : 0.0);
}

// A stage circuit is fully described by (driver kind, span count,
// terminating load), so all 2^slots candidates draw their stage delays
// from at most 4·(slots+1) distinct circuits. The search loops below
// evaluate that table once — fanned across the WorkerPool — and
// then score candidates with pure lookups.

std::size_t stage_key(const Stage& st) {
  return (static_cast<std::size_t>(st.spans) - 1) * 4 +
         (st.buffer_driven ? 2u : 0u) + (st.ends_in_buffer ? 1u : 0u);
}

std::vector<Stage> distinct_stages(const BufferInsertionProblem& p) {
  std::vector<Stage> stages(4 * static_cast<std::size_t>(p.slots + 1));
  for (int spans = 1; spans <= p.slots + 1; ++spans) {
    for (int drv = 0; drv < 2; ++drv) {
      for (int ends = 0; ends < 2; ++ends) {
        Stage st;
        st.spans = spans;
        st.buffer_driven = drv == 1;
        st.driver_resistance =
            st.buffer_driven ? p.buffer.output_resistance : p.source_resistance;
        st.ends_in_buffer = ends == 1;
        st.load_capacitance =
            st.ends_in_buffer ? p.buffer.input_capacitance : p.sink_capacitance;
        stages[stage_key(st)] = st;
      }
    }
  }
  return stages;
}

std::vector<double> model_delay_table(const BufferInsertionProblem& p, DelayModel model) {
  const std::vector<Stage> stages = distinct_stages(p);
  std::vector<double> table(stages.size());
  // The four stage variants that share a span count also share the wire's
  // topology *and* values — only the driver resistance and terminating
  // load capacitance differ. One 4-lane batched kernel call per span
  // count therefore replaces four scalar tree builds + analyses; the pool
  // fans the span counts (independent topologies) across cores.
  util::WorkerPool pool;
  pool.parallel_for(static_cast<std::size_t>(p.slots) + 1, [&](std::size_t span_idx) {
    SectionId sink = circuit::kInput;
    const std::size_t key0 = span_idx * 4;  // stage_key with drv = ends = 0
    const RlcTree base = stage_tree(p, stages[key0], &sink);
    engine::BatchedAnalyzer batch(circuit::FlatTree(base), 4);
    batch.resize(4);
    for (std::size_t variant = 1; variant < 4; ++variant) {
      const Stage& st = stages[key0 + variant];
      batch.set_section(variant, 0, {st.driver_resistance, 0.0, 0.0});
      batch.set_section(variant, sink, {1.0, 1e-14, st.load_capacitance});
    }
    // Lane-groups: a single 4-lane group — run inline (the outer
    // parallel_for already owns the pool; nested jobs are unsupported).
    const engine::BatchedModels models = batch.analyze_nodes({sink});
    for (std::size_t variant = 0; variant < 4; ++variant) {
      const Stage& st = stages[key0 + variant];
      const eed::NodeModel nm = models.node(variant, sink);
      const double wire_delay = model == DelayModel::kWyattRc ? eed::wyatt_delay_50(nm.sum_rc)
                                                              : eed::delay_50(nm);
      table[key0 + variant] = wire_delay + (st.ends_in_buffer ? p.buffer.intrinsic_delay : 0.0);
    }
  });
  return table;
}

std::vector<double> sim_delay_table(const BufferInsertionProblem& p) {
  const std::vector<Stage> stages = distinct_stages(p);
  std::vector<double> table(stages.size());
  util::WorkerPool pool;
  pool.parallel_for(stages.size(),
                    [&](std::size_t i) { table[i] = stage_delay_simulated(p, stages[i]); });
  return table;
}

double candidate_delay(const BufferInsertionProblem& p, const std::vector<bool>& cand,
                       const std::vector<double>& table) {
  double total = 0.0;
  for (const Stage& st : decompose(p, cand)) total += table[stage_key(st)];
  return total;
}

}  // namespace

double evaluate_solution(const BufferInsertionProblem& problem,
                         const std::vector<bool>& buffered, DelayModel model) {
  check_problem(problem);
  double total = 0.0;
  for (const Stage& st : decompose(problem, buffered)) {
    total += stage_delay_model(problem, st, model);
  }
  return total;
}

double evaluate_solution_simulated(const BufferInsertionProblem& problem,
                                   const std::vector<bool>& buffered) {
  check_problem(problem);
  double total = 0.0;
  for (const Stage& st : decompose(problem, buffered)) {
    total += stage_delay_simulated(problem, st);
  }
  return total;
}

BufferSolution optimize_buffers_exhaustive(const BufferInsertionProblem& problem,
                                           DelayModel model) {
  check_problem(problem);
  const auto n = static_cast<std::uint32_t>(problem.slots);
  const std::vector<double> table = model_delay_table(problem, model);
  BufferSolution best;
  best.delay = std::numeric_limits<double>::infinity();
  for (std::uint32_t mask = 0; mask < (1u << n); ++mask) {
    std::vector<bool> cand(n);
    for (std::uint32_t i = 0; i < n; ++i) cand[i] = (mask >> i) & 1u;
    const double d = candidate_delay(problem, cand, table);
    if (d < best.delay) {
      best.delay = d;
      best.buffered = std::move(cand);
    }
  }
  return best;
}

double ranking_fidelity(const BufferInsertionProblem& problem, DelayModel model,
                        int max_candidates) {
  check_problem(problem);
  const auto n = static_cast<std::uint32_t>(problem.slots);
  const std::uint32_t total = 1u << n;
  // Deterministically subsample the candidate space when it is large.
  const std::uint32_t stride = std::max(1u, total / static_cast<std::uint32_t>(max_candidates));
  const std::vector<double> closed_form = model_delay_table(problem, model);
  const std::vector<double> simulated = sim_delay_table(problem);
  std::vector<double> model_delay;
  std::vector<double> sim_delay;
  for (std::uint32_t mask = 0; mask < total; mask += stride) {
    std::vector<bool> cand(n);
    for (std::uint32_t i = 0; i < n; ++i) cand[i] = (mask >> i) & 1u;
    model_delay.push_back(candidate_delay(problem, cand, closed_form));
    sim_delay.push_back(candidate_delay(problem, cand, simulated));
  }
  // Spearman rank correlation.
  const auto ranks = [](const std::vector<double>& v) {
    std::vector<std::size_t> idx(v.size());
    std::iota(idx.begin(), idx.end(), 0u);
    std::sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) { return v[a] < v[b]; });
    std::vector<double> r(v.size());
    for (std::size_t pos = 0; pos < idx.size(); ++pos) r[idx[pos]] = static_cast<double>(pos);
    return r;
  };
  const std::vector<double> ra = ranks(model_delay);
  const std::vector<double> rb = ranks(sim_delay);
  const double m = static_cast<double>(ra.size());
  double d2 = 0.0;
  for (std::size_t i = 0; i < ra.size(); ++i) d2 += (ra[i] - rb[i]) * (ra[i] - rb[i]);
  return 1.0 - 6.0 * d2 / (m * (m * m - 1.0));
}

}  // namespace relmore::opt
