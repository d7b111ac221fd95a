// Unit coverage for the resilience primitives (PR 9): util::Deadline /
// CancelToken / RunControl semantics, the deterministic FaultInjector
// (grammar, phase determinism, fire caps, disarm), and the engines'
// documented stop behavior — BatchedAnalyzer keeps completed lanes
// bitwise-identical and flags the rest kFaultNotRun; BatchSimulator
// aborts whole calls; the corpus ladder retries transients, quarantines,
// and names every unfinished net.

#include <gtest/gtest.h>

#include <bit>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "relmore/circuit/builders.hpp"
#include "relmore/circuit/flat_tree.hpp"
#include "relmore/circuit/rlc_tree.hpp"
#include "relmore/eed/model.hpp"
#include "relmore/engine/batched.hpp"
#include "relmore/sim/batch_sim.hpp"
#include "relmore/sim/source.hpp"
#include "relmore/sta/corpus.hpp"
#include "relmore/sta/synthetic.hpp"
#include "relmore/util/deadline.hpp"
#include "relmore/util/diagnostics.hpp"
#include "relmore/util/fault_injector.hpp"
#include "relmore/util/worker_pool.hpp"

namespace rc = relmore::circuit;
namespace ru = relmore::util;
namespace eed = relmore::eed;
namespace eng = relmore::engine;
namespace sim = relmore::sim;
namespace sta = relmore::sta;

using ru::ErrorCode;
using ru::FaultInjector;
using ru::FaultSite;

namespace {

/// Every test that arms the process-global injector disarms on exit, so
/// a failing assertion can't leak faults into the next test.
struct InjectorGuard {
  InjectorGuard() { FaultInjector::instance().disarm_all(); }
  ~InjectorGuard() { FaultInjector::instance().disarm_all(); }
};

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

rc::RlcTree small_tree() { return rc::make_line(6, {100.0, 1e-10, 1e-14}); }

// --- Deadline / CancelToken / RunControl -----------------------------------

TEST(Deadline, DefaultNeverExpires) {
  const ru::Deadline none;
  EXPECT_FALSE(none.armed());
  EXPECT_FALSE(none.expired());
  EXPECT_FALSE(ru::Deadline::none().armed());
}

TEST(Deadline, AfterBudgetExpires) {
  const ru::Deadline past = ru::Deadline::after(std::chrono::milliseconds(-1));
  EXPECT_TRUE(past.armed());
  EXPECT_TRUE(past.expired());
  const ru::Deadline future = ru::Deadline::after(std::chrono::hours(1));
  EXPECT_TRUE(future.armed());
  EXPECT_FALSE(future.expired());
}

TEST(CancelToken, LatchesForever) {
  ru::CancelToken token;
  EXPECT_FALSE(token.cancelled());
  token.cancel();
  EXPECT_TRUE(token.cancelled());
  token.cancel();  // idempotent
  EXPECT_TRUE(token.cancelled());
}

TEST(RunControl, CancellationWinsOverDeadline) {
  ru::CancelToken token;
  token.cancel();
  const ru::RunControl both{ru::Deadline::after(std::chrono::milliseconds(-1)), &token};
  EXPECT_EQ(both.stop_code(), ErrorCode::kCancelled);
  EXPECT_EQ(both.stop_status().code(), ErrorCode::kCancelled);
  const ru::RunControl deadline_only{ru::Deadline::after(std::chrono::milliseconds(-1)), nullptr};
  EXPECT_EQ(deadline_only.stop_code(), ErrorCode::kDeadlineExceeded);
  const ru::RunControl disarmed{};
  EXPECT_FALSE(disarmed.armed());
  EXPECT_EQ(disarmed.stop_code(), ErrorCode::kOk);
}

// --- FaultInjector ----------------------------------------------------------

TEST(FaultInjector, DisarmedNeverFires) {
  InjectorGuard guard;
  for (int i = 0; i < 1000; ++i) {
    EXPECT_FALSE(ru::fault_should_fire(FaultSite::kArenaAlloc));
  }
  EXPECT_EQ(FaultInjector::instance().fire_count(FaultSite::kArenaAlloc), 0u);
}

TEST(FaultInjector, EveryNIsPeriodicAndDeterministic) {
  InjectorGuard guard;
  ASSERT_TRUE(FaultInjector::instance().arm_spec("pool-abort:every=5:seed=42").is_ok());
  std::vector<int> first_run;
  for (int i = 0; i < 20; ++i) {
    if (ru::fault_should_fire(FaultSite::kPoolAbort)) first_run.push_back(i);
  }
  EXPECT_EQ(first_run.size(), 4u);  // 20 hits / every=5
  for (std::size_t k = 1; k < first_run.size(); ++k) {
    EXPECT_EQ(first_run[k] - first_run[k - 1], 5);
  }
  // Re-arming the same spec resets counters: the fire pattern replays.
  ASSERT_TRUE(FaultInjector::instance().arm_spec("pool-abort:every=5:seed=42").is_ok());
  std::vector<int> second_run;
  for (int i = 0; i < 20; ++i) {
    if (ru::fault_should_fire(FaultSite::kPoolAbort)) second_run.push_back(i);
  }
  EXPECT_EQ(first_run, second_run);
  // A different seed shifts the phase but keeps the period.
  ASSERT_TRUE(FaultInjector::instance().arm_spec("pool-abort:every=5:seed=43").is_ok());
  std::vector<int> shifted;
  for (int i = 0; i < 20; ++i) {
    if (ru::fault_should_fire(FaultSite::kPoolAbort)) shifted.push_back(i);
  }
  EXPECT_EQ(shifted.size(), 4u);
}

TEST(FaultInjector, LimitCapsFires) {
  InjectorGuard guard;
  ASSERT_TRUE(FaultInjector::instance().arm_spec("arena-alloc:every=1:limit=3").is_ok());
  int fired = 0;
  for (int i = 0; i < 100; ++i) {
    if (ru::fault_should_fire(FaultSite::kArenaAlloc)) ++fired;
  }
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(FaultInjector::instance().fire_count(FaultSite::kArenaAlloc), 3u);
}

TEST(FaultInjector, ArmedSitesAreIndependent) {
  InjectorGuard guard;
  ASSERT_TRUE(
      FaultInjector::instance().arm_spec("arena-alloc:every=1:limit=1,pool-delay:every=1:limit=2")
          .is_ok());
  EXPECT_TRUE(ru::fault_should_fire(FaultSite::kArenaAlloc));
  EXPECT_FALSE(ru::fault_should_fire(FaultSite::kArenaAlloc));
  EXPECT_FALSE(ru::fault_should_fire(FaultSite::kPoolAbort));  // never armed
  EXPECT_TRUE(ru::fault_should_fire(FaultSite::kPoolDelay));
  EXPECT_TRUE(ru::fault_should_fire(FaultSite::kPoolDelay));
  EXPECT_FALSE(ru::fault_should_fire(FaultSite::kPoolDelay));
}

TEST(FaultInjector, MalformedSpecsRejected) {
  InjectorGuard guard;
  EXPECT_FALSE(FaultInjector::instance().arm_spec("no-such-site:every=1").is_ok());
  EXPECT_FALSE(FaultInjector::instance().arm_spec("arena-alloc:every=0").is_ok());
  EXPECT_FALSE(FaultInjector::instance().arm_spec("arena-alloc:every=abc").is_ok());
  EXPECT_FALSE(FaultInjector::instance().arm_spec("arena-alloc:bogus=1").is_ok());
  EXPECT_FALSE(FaultInjector::instance().arm_spec("arena-alloc").is_ok());
  EXPECT_FALSE(ru::fault_should_fire(FaultSite::kArenaAlloc));
}

TEST(FaultInjector, SiteNamesRoundTrip) {
  EXPECT_STREQ(ru::fault_site_name(FaultSite::kArenaAlloc), "arena-alloc");
  EXPECT_STREQ(ru::fault_site_name(FaultSite::kSnapshotNan), "snapshot-nan");
  EXPECT_STREQ(ru::fault_site_name(FaultSite::kPoolDelay), "pool-delay");
  EXPECT_STREQ(ru::fault_site_name(FaultSite::kPoolAbort), "pool-abort");
  EXPECT_STREQ(ru::fault_site_name(FaultSite::kParseTruncate), "parse-truncate");
  EXPECT_EQ(FaultInjector::fire_status(FaultSite::kPoolAbort).code(), ErrorCode::kInjectedFault);
}

// --- BatchedAnalyzer stop semantics -----------------------------------------

TEST(BatchedAnalyzerStop, CancelledUpFrontFlagsEverySampleNotRun) {
  const rc::FlatTree flat(small_tree());
  ru::CancelToken token;
  token.cancel();
  eng::BatchedAnalyzer batch(flat, 4);
  batch.set_fault_policy(ru::FaultPolicy::kSkipAndFlag);
  batch.set_run_control({ru::Deadline::none(), &token});
  batch.resize(10);
  const eng::BatchedModels models = batch.analyze();
  EXPECT_TRUE(models.stopped());
  EXPECT_EQ(models.stop_status().code(), ErrorCode::kCancelled);
  for (std::size_t s = 0; s < 10; ++s) {
    EXPECT_NE(models.fault_flags(s) & eed::kFaultNotRun, 0) << "sample " << s;
  }
}

TEST(BatchedAnalyzerStop, ExpiredDeadlineReportsDeadlineExceeded) {
  const rc::FlatTree flat(small_tree());
  eng::BatchedAnalyzer batch(flat, 2);
  batch.set_fault_policy(ru::FaultPolicy::kSkipAndFlag);
  batch.set_run_control({ru::Deadline::after(std::chrono::milliseconds(-1)), nullptr});
  batch.resize(5);
  const eng::BatchedModels models = batch.analyze();
  EXPECT_TRUE(models.stopped());
  EXPECT_EQ(models.stop_status().code(), ErrorCode::kDeadlineExceeded);
}

TEST(BatchedAnalyzerStop, ThrowPolicyRaisesFaultError) {
  const rc::FlatTree flat(small_tree());
  ru::CancelToken token;
  token.cancel();
  eng::BatchedAnalyzer batch(flat, 4);
  batch.set_run_control({ru::Deadline::none(), &token});
  batch.resize(4);
  try {
    (void)batch.analyze();
    FAIL() << "expected FaultError";
  } catch (const ru::FaultError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kCancelled);
  }
}

TEST(BatchedAnalyzerStop, DisarmedControlChangesNothing) {
  const rc::FlatTree flat(small_tree());
  eng::BatchedAnalyzer plain(flat, 4);
  plain.resize(6);
  const eng::BatchedModels want = plain.analyze();
  eng::BatchedAnalyzer armed(flat, 4);
  armed.set_run_control({ru::Deadline::after(std::chrono::hours(1)), nullptr});
  armed.resize(6);
  const eng::BatchedModels got = armed.analyze();
  EXPECT_FALSE(got.stopped());
  const auto probe = static_cast<rc::SectionId>(flat.size() - 1);
  for (std::size_t s = 0; s < 6; ++s) {
    EXPECT_EQ(bits(want.delay_50(s, probe)), bits(got.delay_50(s, probe)));
  }
}

// --- BatchSimulator stop semantics ------------------------------------------

TEST(BatchSimulatorStop, CancelAbortsWholeCall) {
  const rc::FlatTree flat(small_tree());
  ru::CancelToken token;
  token.cancel();
  sim::BatchSimulator batch(flat, 2);
  batch.resize(2);
  sim::TransientOptions opts;
  opts.t_stop = 1e-9;
  opts.dt = 1e-12;
  opts.run_control = {ru::Deadline::none(), &token};
  try {
    (void)batch.simulate(opts);
    FAIL() << "expected FaultError";
  } catch (const ru::FaultError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kCancelled);
  }
}

// --- corpus ladder ----------------------------------------------------------

sta::Design small_design() {
  sta::SyntheticSpec spec;
  spec.nets = 24;
  spec.topo_classes = 4;
  spec.chain_depth = 3;
  auto design = sta::make_synthetic_design_checked(spec);
  EXPECT_TRUE(design.is_ok()) << design.status().message();
  return std::move(design).value();
}

TEST(CorpusLadder, ExpiredDeadlineNamesEveryUnfinishedNet) {
  const sta::Design design = small_design();
  sta::AnalyzeOptions options;
  options.threads = 2;
  options.deadline = ru::Deadline::after(std::chrono::milliseconds(-1));
  const auto corpus = sta::analyze_corpus_checked(design, options);
  ASSERT_TRUE(corpus.is_ok()) << corpus.status().message();
  const sta::CorpusModels& models = corpus.value();
  EXPECT_EQ(models.stop_status.code(), ErrorCode::kDeadlineExceeded);
  EXPECT_EQ(models.incomplete_nets, design.nets.size());
  std::size_t named = 0;
  for (const ru::Diagnostic& d : models.diagnostics.entries()) {
    if (d.code == ErrorCode::kDeadlineExceeded && !d.net.empty()) ++named;
  }
  EXPECT_EQ(named, design.nets.size());
}

TEST(CorpusLadder, ThrowPolicyReturnsStopStatus) {
  const sta::Design design = small_design();
  sta::AnalyzeOptions options;
  options.fault_policy = ru::FaultPolicy::kThrow;
  ru::CancelToken token;
  token.cancel();
  options.cancel = &token;
  const auto corpus = sta::analyze_corpus_checked(design, options);
  ASSERT_FALSE(corpus.is_ok());
  EXPECT_EQ(corpus.status().code(), ErrorCode::kCancelled);
}

TEST(CorpusLadder, TransientPoolFaultIsRetriedAndSurfaced) {
  InjectorGuard guard;
  const sta::Design design = small_design();
  // Fault-free reference first.
  sta::AnalyzeOptions options;
  options.threads = 2;
  const auto clean = sta::analyze_corpus_checked(design, options);
  ASSERT_TRUE(clean.is_ok());
  ASSERT_EQ(clean.value().faulted_nets, 0u);

  ASSERT_TRUE(FaultInjector::instance().arm_spec("pool-abort:every=3:limit=1").is_ok());
  const auto faulty = sta::analyze_corpus_checked(design, options);
  ASSERT_TRUE(faulty.is_ok()) << faulty.status().message();
  const sta::CorpusModels& models = faulty.value();
  EXPECT_EQ(FaultInjector::instance().fire_count(FaultSite::kPoolAbort), 1u);
  // The single injected abort is retried away: no net faults, and the
  // event is surfaced exactly once as a warning diagnostic.
  EXPECT_EQ(models.faulted_nets, 0u);
  EXPECT_EQ(models.incomplete_nets, 0u);
  std::size_t surfaced = 0;
  for (const ru::Diagnostic& d : models.diagnostics.entries()) {
    if (d.code == ErrorCode::kInjectedFault) ++surfaced;
  }
  EXPECT_EQ(surfaced, 1u);
  // Healthy nets are bitwise-identical to the fault-free run.
  ASSERT_EQ(models.nets.size(), clean.value().nets.size());
  for (std::size_t ni = 0; ni < models.nets.size(); ++ni) {
    const sta::NetModels& a = clean.value().nets[ni];
    const sta::NetModels& b = models.nets[ni];
    ASSERT_EQ(a.taps.size(), b.taps.size());
    for (std::size_t t = 0; t < a.taps.size(); ++t) {
      EXPECT_EQ(bits(a.taps[t].sum_rc), bits(b.taps[t].sum_rc));
      EXPECT_EQ(bits(a.taps[t].sum_lc), bits(b.taps[t].sum_lc));
    }
  }
}

TEST(CorpusLadder, WorkspaceAllocationFailureIsRetried) {
  InjectorGuard guard;
  const sta::Design design = small_design();
  for (const unsigned threads : {1u, 2u}) {
    sta::AnalyzeOptions options;
    options.threads = threads;
    const auto clean = sta::analyze_corpus_checked(design, options);
    ASSERT_TRUE(clean.is_ok());
    ASSERT_EQ(clean.value().faulted_nets, 0u);

    // One net's scratch grab fails: a transient, retried on the next round.
    ASSERT_TRUE(FaultInjector::instance().arm_spec("arena-alloc:every=1:limit=1").is_ok());
    const auto faulty = sta::analyze_corpus_checked(design, options);
    EXPECT_EQ(FaultInjector::instance().fire_count(FaultSite::kArenaAlloc), 1u);
    FaultInjector::instance().disarm_all();
    ASSERT_TRUE(faulty.is_ok()) << faulty.status().message();
    const sta::CorpusModels& models = faulty.value();
    EXPECT_EQ(models.faulted_nets, 0u) << threads;
    EXPECT_EQ(models.quarantined_nets, 0u) << threads;
    std::size_t warnings = 0;
    for (const ru::Diagnostic& d : models.diagnostics.entries()) {
      if (d.warning && d.code == ErrorCode::kResourceExhausted) ++warnings;
    }
    EXPECT_EQ(warnings, 1u) << threads;
    ASSERT_EQ(models.nets.size(), clean.value().nets.size());
    for (std::size_t ni = 0; ni < models.nets.size(); ++ni) {
      const sta::NetModels& a = clean.value().nets[ni];
      const sta::NetModels& b = models.nets[ni];
      EXPECT_TRUE(b.analyzed) << ni;
      ASSERT_EQ(a.taps.size(), b.taps.size()) << ni;
      for (std::size_t t = 0; t < a.taps.size(); ++t) {
        EXPECT_EQ(bits(a.taps[t].sum_rc), bits(b.taps[t].sum_rc));
        EXPECT_EQ(bits(a.taps[t].sum_lc), bits(b.taps[t].sum_lc));
        EXPECT_EQ(bits(a.taps[t].zeta), bits(b.taps[t].zeta));
        EXPECT_EQ(bits(a.taps[t].omega_n), bits(b.taps[t].omega_n));
      }
    }
  }
}

TEST(CorpusLadder, PersistentFaultQuarantinesInsteadOfThrowing) {
  InjectorGuard guard;
  const sta::Design design = small_design();
  // Unlimited every=1 pool aborts: every attempt of every phase dies, so
  // the ladder must bottom out in quarantine (not hang, not throw).
  ASSERT_TRUE(FaultInjector::instance().arm_spec("pool-abort:every=1").is_ok());
  sta::AnalyzeOptions options;
  options.threads = 2;
  options.max_attempts = 2;
  const auto corpus = sta::analyze_corpus_checked(design, options);
  FaultInjector::instance().disarm_all();
  ASSERT_TRUE(corpus.is_ok()) << corpus.status().message();
  const sta::CorpusModels& models = corpus.value();
  EXPECT_EQ(models.faulted_nets, design.nets.size());
  EXPECT_EQ(models.quarantined_nets, design.nets.size());
  for (const sta::NetModels& slot : models.nets) {
    EXPECT_TRUE(slot.faulted);
    EXPECT_EQ(slot.status.code(), ErrorCode::kInjectedFault);
  }
}

}  // namespace
