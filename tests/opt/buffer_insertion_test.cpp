#include "relmore/opt/buffer_insertion.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace relmore::opt {
namespace {

BufferInsertionProblem small_problem() {
  BufferInsertionProblem p;
  p.wire = circuit::global_wire_spec();
  p.wire.length_m = 4e-3;  // 4 mm global route
  p.slots = 3;
  p.buffer = unit_inverter().sized(16.0);
  p.source_resistance = 40.0;
  p.sink_capacitance = 60e-15;
  p.segments_per_span = 3;
  return p;
}

TEST(BufferInsertion, EmptySolutionIsSingleStage) {
  const BufferInsertionProblem p = small_problem();
  const double d = evaluate_solution(p, {false, false, false}, DelayModel::kEquivalentElmore);
  EXPECT_GT(d, 0.0);
  // No buffers -> no intrinsic delay contributions.
  const double d_rc = evaluate_solution(p, {false, false, false}, DelayModel::kWyattRc);
  EXPECT_GT(d_rc, 0.0);
}

TEST(BufferInsertion, FullyBufferedAddsIntrinsicDelays) {
  const BufferInsertionProblem p = small_problem();
  const double none = evaluate_solution(p, {false, false, false}, DelayModel::kWyattRc);
  const double all = evaluate_solution(p, {true, true, true}, DelayModel::kWyattRc);
  // All-buffered pays 3 intrinsic delays; whether it wins depends on the
  // wire, but the evaluation must include them.
  EXPECT_GT(all, 3.0 * p.buffer.intrinsic_delay * 0.99);
  EXPECT_GT(none, 0.0);
}

TEST(BufferInsertion, ValidatesInputs) {
  BufferInsertionProblem bad = small_problem();
  bad.slots = 0;
  EXPECT_THROW((void)evaluate_solution(bad, {}, DelayModel::kWyattRc), std::invalid_argument);
  const BufferInsertionProblem p = small_problem();
  EXPECT_THROW((void)evaluate_solution(p, {true}, DelayModel::kWyattRc), std::invalid_argument);
  BufferInsertionProblem bad_len = small_problem();
  bad_len.wire.length_m = 0.0;
  EXPECT_THROW((void)evaluate_solution(bad_len, {false, false, false}, DelayModel::kWyattRc),
               std::invalid_argument);
}

TEST(BufferInsertion, ExhaustiveFindsMinimum) {
  const BufferInsertionProblem p = small_problem();
  const BufferSolution best = optimize_buffers_exhaustive(p, DelayModel::kEquivalentElmore);
  ASSERT_EQ(best.buffered.size(), 3u);
  // Verify optimality by re-enumerating.
  for (unsigned mask = 0; mask < 8; ++mask) {
    std::vector<bool> cand{(mask & 1u) != 0, (mask & 2u) != 0, (mask & 4u) != 0};
    EXPECT_GE(evaluate_solution(p, cand, DelayModel::kEquivalentElmore),
              best.delay - 1e-18);
  }
}

TEST(BufferInsertion, SimulatedEvaluationClosesLoop) {
  const BufferInsertionProblem p = small_problem();
  const std::vector<bool> cand{false, true, false};
  const double model = evaluate_solution(p, cand, DelayModel::kEquivalentElmore);
  const double sim = evaluate_solution_simulated(p, cand);
  EXPECT_GT(sim, 0.0);
  // Closed form tracks the simulator within tens of percent on this
  // underdamped route (the RC model is far worse; see the fidelity test).
  EXPECT_NEAR(model, sim, 0.4 * sim);
}

TEST(BufferInsertion, EedFidelityAtLeastRcFidelity) {
  // The paper's core pitch: design decisions made with the RLC-aware
  // closed form rank candidates like the simulator does.
  const BufferInsertionProblem p = small_problem();
  const double fid_eed = ranking_fidelity(p, DelayModel::kEquivalentElmore);
  const double fid_rc = ranking_fidelity(p, DelayModel::kWyattRc);
  EXPECT_GE(fid_eed, fid_rc - 0.05);
  EXPECT_GT(fid_eed, 0.6);
}

TEST(BufferInsertion, RejectsTooManySlots) {
  BufferInsertionProblem p = small_problem();
  p.slots = 21;
  EXPECT_THROW(optimize_buffers_exhaustive(p, DelayModel::kWyattRc), std::invalid_argument);
}

}  // namespace
}  // namespace relmore::opt
