#pragma once

/// \file fault_injector.hpp
/// Deterministic, seed-driven fault injection for the resilience tests.
///
/// Production failure modes — allocation failure, poisoned snapshot
/// values, slow or dying pool workers, truncated input decks — are rare
/// by construction, which makes the recovery paths the least-executed
/// code in the repo. The injector makes them executable on demand: each
/// *site* (an enum, not a string, so a typo is a compile error) is a
/// named point in the pipeline that asks `should_fire()` and, on true,
/// fails the way the real fault would (throws `std::bad_alloc`, writes a
/// NaN, sleeps, throws `FaultError(kInjectedFault)`, stops reading).
///
/// Determinism: a site armed as `every=N:seed=S:limit=K` fires on the
/// hits h with `h % N == splitmix64(S ^ site) % N`, at most K times. Hit
/// counters are process-global atomics, so the *number* of fires is
/// exact and reproducible for a fixed workload; *which* thread observes
/// a fire depends on scheduling (documented — the chaos harness asserts
/// counts and surfaced diagnostics, not attribution).
///
/// Cost when disarmed: one relaxed atomic load and branch per
/// `should_fire()` call. Sites live at chunk/task granularity (arena
/// grabs, task dispatch, parser lines) — never inside the R3 hot-loop
/// regions, which the lint enforces stays true.
///
/// Arming: `RELMORE_FAULTS=<site>:<spec>[,<site>:<spec>...]` in the
/// environment, read once per process at first use (the RELMORE_THREADS
/// convention: concurrent getenv/setenv is a POSIX data race, and every
/// component must agree on one configuration). Spec grammar per site:
/// `every=N` (fire every Nth hit, default 1), `seed=S` (phase seed,
/// default 0), `limit=K` (total fire cap, default unlimited). Malformed
/// specs are rejected loudly on stderr and ignored. Tests arm
/// programmatically via `arm_spec()` between runs instead.

#include <atomic>
#include <cstdint>
#include <string>

#include "relmore/util/diagnostics.hpp"

namespace relmore::util {

/// Injection points. Append-only; `fault_site_name` must stay in sync.
enum class FaultSite : std::uint8_t {
  kArenaAlloc = 0,  ///< util::Arena slab grab throws std::bad_alloc
  kSnapshotNan,     ///< batched snapshot fill poisons one section value
  kPoolDelay,       ///< util::WorkerPool worker sleeps before a task
  kPoolAbort,       ///< util::WorkerPool task throws FaultError
  kParseTruncate,   ///< sta::read_design_checked stops mid-deck
};
inline constexpr std::size_t kFaultSiteCount = 5;

/// Stable site name ("arena-alloc", ...), the RELMORE_FAULTS key.
[[nodiscard]] const char* fault_site_name(FaultSite site);

/// Process-global deterministic injection registry. All methods are
/// thread-safe; `should_fire` is wait-free when disarmed.
class FaultInjector {
 public:
  /// The process singleton. First call parses RELMORE_FAULTS (once).
  [[nodiscard]] static FaultInjector& instance();

  /// True when `site` should fail right now. Disarmed cost: one relaxed
  /// load. Each call counts as one hit of the site once anything is armed.
  [[nodiscard]] bool should_fire(FaultSite site) {
    return any_armed_.load(std::memory_order_relaxed) && should_fire_slow(site);
  }

  /// Arms sites from a spec string (same grammar as RELMORE_FAULTS,
  /// without the env read). Returns a Status naming the first malformed
  /// clause; already-parsed clauses stay armed. Counters reset.
  Status arm_spec(const std::string& spec);

  /// Disarms every site and zeroes all counters.
  void disarm_all();

  /// Fires of `site` so far (exact: never exceeds the armed limit).
  [[nodiscard]] std::uint64_t fire_count(FaultSite site) const;

  /// Status carried by thrown injected faults, naming the site.
  [[nodiscard]] static Status fire_status(FaultSite site);

 private:
  FaultInjector() = default;

  struct SiteState {
    std::atomic<bool> armed{false};
    std::uint64_t every = 1;
    std::uint64_t phase = 0;
    std::uint64_t limit = 0;  ///< 0 = unlimited
    std::atomic<std::uint64_t> hits{0};
    std::atomic<std::uint64_t> fires{0};
  };

  [[nodiscard]] bool should_fire_slow(FaultSite site);
  void parse_env_once();

  std::atomic<bool> any_armed_{false};
  SiteState sites_[kFaultSiteCount];
};

/// Shorthand for injection sites: `if (fault_should_fire(FaultSite::k...))`.
[[nodiscard]] inline bool fault_should_fire(FaultSite site) {
  return FaultInjector::instance().should_fire(site);
}

}  // namespace relmore::util
