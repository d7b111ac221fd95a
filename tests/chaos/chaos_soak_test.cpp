// Chaos soak (PR 9): corpus analysis under seeded randomized schedules of
// concurrent cancellation, tight deadlines, and deterministic fault
// injection, across thread counts. The soak's design carries one net
// whose moments overflow, a data fault present in every schedule. Each
// schedule is a pure function of its seed, so a failure reproduces from
// the seed alone.
//
// Invariants asserted on every schedule:
//   * no crash and no hang (a watchdog thread aborts with a message if a
//     schedule stops making progress);
//   * every injected pool abort is surfaced exactly once in
//     CorpusModels::diagnostics (fire counts are exact: the site is armed
//     with limit=1, so pool first-error coalescing cannot eat one);
//   * every net that completed healthy is bitwise-identical to the
//     injection-free baseline — retries, deadlines, cancellation and thread
//     counts never change a finished net's bits;
//   * the overflowing net is the only net that ever faults, and it
//     faults whenever it reaches a verdict;
//   * partial-result bookkeeping is consistent: incomplete nets imply a
//     non-ok stop_status and are each named in diagnostics; no stop
//     implies every net reached a verdict.
//
// Runtime knobs (CI): RELMORE_CHAOS_SEEDS overrides the schedule count,
// RELMORE_CHAOS_SECONDS caps wall time (the soak stops early, never
// fails, when the budget runs out).

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "relmore/sta/corpus.hpp"
#include "relmore/sta/design.hpp"
#include "relmore/sta/synthetic.hpp"
#include "relmore/sta/timing_graph.hpp"
#include "relmore/timer.hpp"
#include "relmore/util/deadline.hpp"
#include "relmore/util/diagnostics.hpp"
#include "relmore/util/fault_injector.hpp"

namespace sta = relmore::sta;
namespace ru = relmore::util;

using ru::ErrorCode;
using ru::FaultInjector;
using ru::FaultSite;

namespace {

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::size_t env_size(const char* name, std::size_t fallback) {
  const char* text = std::getenv(name);
  if (text == nullptr || *text == '\0') return fallback;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0') return fallback;
  return static_cast<std::size_t>(v);
}

/// Aborts the process with a message when the soak stops making progress
/// — a hang must fail the CI job loudly, not time out silently.
class Watchdog {
 public:
  explicit Watchdog(std::chrono::seconds stall_limit)
      : stall_limit_(stall_limit), thread_([this] { run(); }) {}
  ~Watchdog() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      done_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  void pet() { progress_.fetch_add(1, std::memory_order_relaxed); }

 private:
  void run() {
    std::uint64_t last = progress_.load(std::memory_order_relaxed);
    auto last_change = std::chrono::steady_clock::now();
    std::unique_lock<std::mutex> lock(mutex_);
    while (!cv_.wait_for(lock, std::chrono::seconds(1), [this] { return done_; })) {
      const std::uint64_t cur = progress_.load(std::memory_order_relaxed);
      if (cur != last) {
        last = cur;
        last_change = std::chrono::steady_clock::now();
        continue;
      }
      if (std::chrono::steady_clock::now() - last_change > stall_limit_) {
        std::fprintf(stderr, "chaos watchdog: no progress after schedule %llu — aborting\n",
                     static_cast<unsigned long long>(last));
        std::abort();
      }
    }
  }

  std::chrono::seconds stall_limit_;
  std::atomic<std::uint64_t> progress_{0};
  std::mutex mutex_;
  bool done_ = false;
  std::condition_variable cv_;
  std::thread thread_;
};

struct InjectorGuard {
  InjectorGuard() { FaultInjector::instance().disarm_all(); }
  ~InjectorGuard() { FaultInjector::instance().disarm_all(); }
};

/// One seeded schedule: execution shape, run control, and armed faults —
/// all derived from the seed.
struct Schedule {
  unsigned threads;
  bool with_delay;          ///< pool-delay armed (non-throwing)
  bool with_abort;          ///< pool-abort armed, limit=1 (transient)
  std::uint64_t every;      ///< phase period for pool-abort
  int cancel_after_us;      ///< <0: no cancel thread
  int deadline_kind;        ///< 0 none, 1 generous, 2 tiny
  int deadline_us;          ///< tiny-deadline budget

  static Schedule from_seed(std::uint64_t seed) {
    const std::uint64_t a = splitmix64(seed);
    const std::uint64_t b = splitmix64(a);
    const std::uint64_t c = splitmix64(b);
    Schedule s;
    const unsigned thread_choices[] = {1, 2, 4, 8};
    s.threads = thread_choices[a % 4];
    s.with_delay = ((a >> 16) & 3) == 0;  // 1 in 4: each fire sleeps 2 ms
    s.with_abort = ((b >> 4) & 1) != 0;
    s.every = 1 + ((b >> 16) % 4);
    s.cancel_after_us = ((b >> 32) & 1) != 0 ? static_cast<int>(c % 2000) : -1;
    s.deadline_kind = static_cast<int>((c >> 16) % 3);
    s.deadline_us = static_cast<int>((c >> 24) % 500);
    return s;
  }

  [[nodiscard]] std::string arm_string() const {
    std::ostringstream os;
    const char* sep = "";
    if (with_delay) {
      os << "pool-delay:every=16";
      sep = ",";
    }
    if (with_abort) os << sep << "pool-abort:every=" << every << ":limit=1";
    return os.str();
  }
};

sta::SyntheticSpec chaos_spec() {
  sta::SyntheticSpec spec;
  spec.nets = 24;
  spec.topo_classes = 4;
  spec.chain_depth = 3;
  spec.seed = 7;
  return spec;
}

sta::Design chaos_design() {
  auto design = sta::make_synthetic_design_checked(chaos_spec());
  EXPECT_TRUE(design.is_ok()) << design.status().message();
  return std::move(design).value();
}

/// chaos_design plus one independent port -> net -> port path whose
/// moments overflow to inf (R*C ~ 1e330, as in
/// TimingGraph.FaultedNetPoisonsOnlyItsOwnCone).
sta::Design soak_design() {
  std::istringstream is(sta::make_synthetic_design_text(chaos_spec()) +
                        "net overflow\n"
                        "  section s0 - R=1e300 L=0 C=1e30\n"
                        "end\n"
                        "input overflow_in overflow at=0 slew=0\n"
                        "output overflow_out overflow:s0 required=1n\n");
  auto design = sta::read_design_checked(is);
  EXPECT_TRUE(design.is_ok()) << design.status().message();
  return std::move(design).value();
}

std::size_t count_if_diag(const ru::DiagnosticsReport& report,
                          const std::function<bool(const ru::Diagnostic&)>& pred) {
  std::size_t n = 0;
  for (const ru::Diagnostic& d : report.entries()) {
    if (pred(d)) ++n;
  }
  return n;
}

TEST(ChaosSoak, SeededSchedulesNeverCrashHangOrCorrupt) {
  InjectorGuard guard;
  const sta::Design design = soak_design();
  const auto overflow = static_cast<std::size_t>(design.find_net("overflow"));

  // Injection-free baseline: the bits every healthy net must reproduce.
  sta::AnalyzeOptions base_options;
  base_options.threads = 2;
  const auto baseline_r = sta::analyze_corpus_checked(design, base_options);
  ASSERT_TRUE(baseline_r.is_ok()) << baseline_r.status().message();
  const sta::CorpusModels& baseline = baseline_r.value();
  ASSERT_EQ(baseline.faulted_nets, 1u);
  ASSERT_TRUE(baseline.nets[overflow].faulted);

  const std::size_t seeds = env_size("RELMORE_CHAOS_SEEDS", 200);
  const std::size_t budget_s = env_size("RELMORE_CHAOS_SECONDS", 0);
  const auto t0 = std::chrono::steady_clock::now();
  Watchdog watchdog(std::chrono::seconds(60));

  std::size_t ran = 0;
  for (std::size_t i = 0; i < seeds; ++i) {
    if (budget_s != 0 &&
        std::chrono::steady_clock::now() - t0 > std::chrono::seconds(budget_s)) {
      break;  // soft time budget (CI soak): stop early, never fail
    }
    const std::uint64_t seed = 0xc4a05'0000ULL + i;
    const Schedule sched = Schedule::from_seed(seed);
    SCOPED_TRACE("schedule seed " + std::to_string(seed));

    FaultInjector::instance().disarm_all();
    const std::string arm = sched.arm_string();
    if (!arm.empty()) {
      ASSERT_TRUE(FaultInjector::instance().arm_spec(arm).is_ok()) << arm;
    }

    sta::AnalyzeOptions options;
    options.threads = sched.threads;
    options.max_attempts = 3;
    ru::CancelToken token;
    if (sched.cancel_after_us >= 0) options.cancel = &token;
    if (sched.deadline_kind == 1) {
      options.deadline = ru::Deadline::after(std::chrono::hours(1));
    } else if (sched.deadline_kind == 2) {
      options.deadline = ru::Deadline::after(std::chrono::microseconds(sched.deadline_us));
    }

    std::thread canceller;
    if (sched.cancel_after_us >= 0) {
      canceller = std::thread([&token, delay = sched.cancel_after_us] {
        std::this_thread::sleep_for(std::chrono::microseconds(delay));
        token.cancel();
      });
    }

    const auto result = sta::analyze_corpus_checked(design, options);
    if (canceller.joinable()) canceller.join();
    watchdog.pet();
    ++ran;

    ASSERT_TRUE(result.is_ok()) << result.status().message();
    const sta::CorpusModels& models = result.value();
    const std::uint64_t abort_fires = FaultInjector::instance().fire_count(FaultSite::kPoolAbort);

    // Healthy nets: bitwise-identical to the fault-free baseline.
    ASSERT_EQ(models.nets.size(), baseline.nets.size());
    for (std::size_t ni = 0; ni < models.nets.size(); ++ni) {
      const sta::NetModels& got = models.nets[ni];
      if (!got.analyzed || got.faulted) continue;
      const sta::NetModels& want = baseline.nets[ni];
      ASSERT_EQ(got.taps.size(), want.taps.size());
      for (std::size_t t = 0; t < got.taps.size(); ++t) {
        ASSERT_EQ(bits(got.taps[t].sum_rc), bits(want.taps[t].sum_rc))
            << design.nets[ni].name << " tap " << t;
        ASSERT_EQ(bits(got.taps[t].sum_lc), bits(want.taps[t].sum_lc))
            << design.nets[ni].name << " tap " << t;
        ASSERT_EQ(bits(got.taps[t].zeta), bits(want.taps[t].zeta))
            << design.nets[ni].name << " tap " << t;
      }
    }

    // Data-fault isolation: the overflowing net faults whenever it reached
    // a verdict (a stop may leave it undecided), no other net faults, and
    // nothing is quarantined.
    EXPECT_EQ(models.nets[overflow].faulted, models.nets[overflow].analyzed);
    for (std::size_t ni = 0; ni < models.nets.size(); ++ni) {
      if (!models.nets[ni].faulted) continue;
      EXPECT_EQ(ni, overflow) << design.nets[ni].name;
      EXPECT_EQ(models.nets[ni].status.code(), ErrorCode::kNonFiniteMoment);
    }
    EXPECT_EQ(models.quarantined_nets, 0u);

    // Partial-result bookkeeping.
    std::size_t incomplete = 0;
    for (const sta::NetModels& slot : models.nets) {
      if (!slot.analyzed && !slot.faulted) ++incomplete;
    }
    EXPECT_EQ(incomplete, models.incomplete_nets);
    if (models.incomplete_nets > 0) {
      EXPECT_FALSE(models.stop_status.is_ok());
      const ErrorCode code = models.stop_status.code();
      EXPECT_TRUE(code == ErrorCode::kCancelled || code == ErrorCode::kDeadlineExceeded);
      const std::size_t named = count_if_diag(models.diagnostics, [&](const ru::Diagnostic& d) {
        return d.warning && d.code == code && !d.net.empty();
      });
      EXPECT_EQ(named, models.incomplete_nets);
    } else if (models.stop_status.is_ok()) {
      // No stop: every net reached a verdict, and the pool abort (limit=1)
      // was retried away within the attempt budget.
      EXPECT_EQ(models.faulted_nets, 1u);
    }

    // Exactly-once surfacing of the injected pool abort.
    const std::size_t abort_diags = count_if_diag(models.diagnostics, [](const ru::Diagnostic& d) {
      return d.code == ErrorCode::kInjectedFault;
    });
    EXPECT_EQ(abort_diags, abort_fires) << "pool-abort fires vs diagnostics";
    // A faulted net is an error diagnostic naming it (a stop may instead
    // leave the overflowing net incomplete).
    const std::size_t poisoned = count_if_diag(models.diagnostics, [](const ru::Diagnostic& d) {
      return !d.warning && !d.net.empty();
    });
    EXPECT_EQ(poisoned, models.faulted_nets);
  }
  FaultInjector::instance().disarm_all();
  std::fprintf(stderr, "chaos soak: %zu schedule(s) ran\n", ran);
  EXPECT_GT(ran, 0u);
}

TEST(ChaosSoak, StoppedIncrementalUpdateDiscardsPartialResultCleanly) {
  InjectorGuard guard;
  relmore::Timer timer;
  ASSERT_TRUE(timer.load(chaos_design()).is_ok());

  // Deterministic stops first: an already-expired deadline and a
  // pre-cancelled token each halt update_checked at its first
  // cone-frontier poll. The partial-result contract: the *design* edit
  // commits, the in-place re-time is abandoned, and the cached analysis
  // is discarded rather than left half-updated.
  struct Stop {
    const char* net;
    ErrorCode want;
  };
  ru::CancelToken cancelled;
  cancelled.cancel();
  for (const Stop stop : {Stop{"n0_0", ErrorCode::kDeadlineExceeded},
                          Stop{"n1_1", ErrorCode::kCancelled}}) {
    ASSERT_TRUE(timer.analyze().is_ok());
    const std::uint64_t epoch = timer.design()->epoch;
    relmore::Timer::Edit edit = timer.edit();
    ASSERT_TRUE(edit.set_net_section_values(stop.net, "s0", {60.0, 0.0, 20e-15}).is_ok());
    sta::AnalyzeOptions options;
    if (stop.want == ErrorCode::kDeadlineExceeded) {
      options.deadline = ru::Deadline::after(std::chrono::seconds(0));
    } else {
      options.cancel = &cancelled;
    }
    const auto outcome = edit.commit(options);
    ASSERT_TRUE(outcome.is_ok()) << outcome.status().message();
    EXPECT_FALSE(outcome.value().incremental);
    EXPECT_EQ(outcome.value().stats.stop_status.code(), stop.want);
    EXPECT_EQ(timer.result(), nullptr);         // partial result discarded
    EXPECT_EQ(timer.design()->epoch, epoch + 1);  // the edit itself committed

    // The committed design re-times to the exact from-scratch bits.
    const auto graph = sta::TimingGraph::build_checked(*timer.design());
    ASSERT_TRUE(graph.is_ok());
    const auto fresh = graph.value().analyze_checked();
    ASSERT_TRUE(fresh.is_ok());
    const auto summary = timer.analyze();
    ASSERT_TRUE(summary.is_ok());
    EXPECT_EQ(bits(summary.value().wns), bits(fresh.value().summary.wns));
    EXPECT_EQ(bits(summary.value().tns), bits(fresh.value().summary.tns));
  }

  // Racing canceller: either verdict is legitimate, but the invariant
  // holds on both sides — an in-place re-time is bitwise-exact, an
  // abandoned one leaves no cached result behind.
  for (std::uint64_t i = 0; i < 8; ++i) {
    const std::uint64_t seed = splitmix64(0xcafe + i);
    SCOPED_TRACE("cancel race seed " + std::to_string(seed));
    ASSERT_TRUE(timer.analyze().is_ok());
    relmore::Timer::Edit edit = timer.edit();
    ASSERT_TRUE(edit
                    .set_net_section_values(i % 2 == 0 ? "n0_1" : "n2_0", "s1",
                                            {40.0 + static_cast<double>(seed % 50), 0.0,
                                             15e-15})
                    .is_ok());
    ru::CancelToken token;
    std::thread canceller([&token, delay = seed % 200] {
      std::this_thread::sleep_for(std::chrono::microseconds(delay));
      token.cancel();
    });
    sta::AnalyzeOptions options;
    options.cancel = &token;
    const auto outcome = edit.commit(options);
    canceller.join();
    ASSERT_TRUE(outcome.is_ok()) << outcome.status().message();
    const auto graph = sta::TimingGraph::build_checked(*timer.design());
    ASSERT_TRUE(graph.is_ok());
    const auto fresh = graph.value().analyze_checked();
    ASSERT_TRUE(fresh.is_ok());
    if (outcome.value().incremental) {
      ASSERT_NE(timer.result(), nullptr);
      EXPECT_EQ(bits(timer.result()->summary.wns), bits(fresh.value().summary.wns));
      EXPECT_EQ(bits(timer.result()->summary.tns), bits(fresh.value().summary.tns));
    } else {
      EXPECT_EQ(outcome.value().stats.stop_status.code(), ErrorCode::kCancelled);
      EXPECT_EQ(timer.result(), nullptr);
    }
  }
}

TEST(ChaosSoak, ParseTruncationSurfacesAsNamedDiagnostic) {
  InjectorGuard guard;
  sta::SyntheticSpec spec;
  spec.nets = 8;
  spec.topo_classes = 2;
  spec.chain_depth = 2;
  const std::string text = sta::make_synthetic_design_text(spec);

  // Fires on the 3rd reader line: the deck ends mid-design.
  ASSERT_TRUE(FaultInjector::instance().arm_spec("parse-truncate:every=3:seed=0:limit=1").is_ok());
  std::istringstream is(text);
  ru::DiagnosticsReport report;
  const auto r = sta::read_design_checked(is, sta::generic_library(), &report);
  EXPECT_EQ(FaultInjector::instance().fire_count(FaultSite::kParseTruncate), 1u);
  ASSERT_FALSE(r.is_ok());
  bool surfaced = false;
  for (const ru::Diagnostic& d : report.entries()) {
    if (d.code == ErrorCode::kParseError &&
        d.message.find("input truncated (injected fault)") != std::string::npos) {
      surfaced = true;
    }
  }
  EXPECT_TRUE(surfaced) << report.to_string();

  // Disarmed, the same deck parses clean.
  FaultInjector::instance().disarm_all();
  std::istringstream again(text);
  const auto clean = sta::read_design_checked(again, sta::generic_library());
  EXPECT_TRUE(clean.is_ok()) << clean.status().message();
}

TEST(ChaosSoak, WnsBitwiseStableAcrossRecoveredFaults) {
  InjectorGuard guard;
  const sta::Design design = chaos_design();
  const auto graph = sta::TimingGraph::build_checked(design);
  ASSERT_TRUE(graph.is_ok());

  sta::AnalyzeOptions options;
  options.threads = 2;
  const auto clean = graph.value().analyze_checked(options);
  ASSERT_TRUE(clean.is_ok());
  const sta::TimingSummary& want = clean.value().summary;
  ASSERT_EQ(want.faulted_nets, 0u);

  // A retried pool abort and a slow worker must not move a single bit of
  // WNS/TNS or any endpoint slack.
  for (unsigned threads : {1u, 4u}) {
    ASSERT_TRUE(
        FaultInjector::instance().arm_spec("pool-abort:every=2:limit=1,pool-delay:every=32")
            .is_ok());
    sta::AnalyzeOptions faulty;
    faulty.threads = threads;
    const auto got_r = graph.value().analyze_checked(faulty);
    FaultInjector::instance().disarm_all();
    ASSERT_TRUE(got_r.is_ok());
    const sta::TimingSummary& got = got_r.value().summary;
    EXPECT_EQ(got.faulted_nets, 0u);
    EXPECT_EQ(got.incomplete_nets, 0u);
    EXPECT_EQ(bits(got.wns), bits(want.wns));
    EXPECT_EQ(bits(got.tns), bits(want.tns));
    ASSERT_EQ(got.endpoints_by_slack.size(), want.endpoints_by_slack.size());
    for (std::size_t e = 0; e < got.endpoints_by_slack.size(); ++e) {
      EXPECT_EQ(got.endpoints_by_slack[e].port, want.endpoints_by_slack[e].port);
      EXPECT_EQ(bits(got.endpoints_by_slack[e].slack), bits(want.endpoints_by_slack[e].slack));
    }
  }
}

}  // namespace
