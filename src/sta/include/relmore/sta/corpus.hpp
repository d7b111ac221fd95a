#pragma once

/// \file corpus.hpp
/// Corpus-sharded moment analysis: every net of a Design analyzed in one
/// parallel phase, with the same bitwise-reproducibility contract as the
/// per-tree kernels.
///
/// Dispatch: every net the cache does not serve runs analyze_net, one
/// task per net across an engine::WorkerPool: the scalar kernel's two
/// moment passes over the whole tree, eqs. 29–30 at the net's tap nodes
/// only (`eed::analyze_nodes_checked`, scratch from the worker's
/// util::thread_arena()). Each task writes only its own per-net slot, so
/// the corpus result is a pure function of the design — independent of
/// thread count and scheduling.
///
/// Faults: one malformed net must not kill a 10^5-net run. The phase
/// always executes under a flag policy; what the *caller* asked for is
/// applied at the join: kThrow surfaces the first faulted net (by net
/// index) as a Status naming it, the flag policies leave the net marked
/// (NetModels::faulted + status) and every healthy net fully analyzed.
///
/// Degradation ladder (docs/robustness.md): *transient* failures —
/// workspace allocation (std::bad_alloc -> kResourceExhausted) and
/// injected pool faults (kInjectedFault) — are retried with capped
/// exponential backoff; a net that still fails after the retries is
/// quarantined (faulted, per-net status), poisoning only its own timing
/// cone. *Data* faults (bad values, non-finite moments) are never
/// retried — rerunning a pure function on the same bits cannot heal
/// them. Because every net's result is a pure function of its tree,
/// retries never change a healthy net's bits.
///
/// Deadlines/cancellation: `AnalyzeOptions::deadline` / `cancel` are
/// polled between nets. On a stop, every net completed so far is kept —
/// bitwise-identical to an uninterrupted run — and each unfinished net is
/// reported by name as a warning in `CorpusModels::diagnostics`
/// (NetModels::analyzed stays false); `CorpusModels::stop_status` carries
/// kDeadlineExceeded / kCancelled. Under FaultPolicy::kThrow a stop is
/// returned as the call's failing Status instead.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "relmore/eed/model.hpp"
#include "relmore/sta/design.hpp"
#include "relmore/util/deadline.hpp"
#include "relmore/util/diagnostics.hpp"

namespace relmore::sta {

class CorpusCache;

/// Execution + fault knobs for corpus analysis. The execution half
/// (threads/retries/deadline) never changes a single output bit of any
/// net that completes.
struct AnalyzeOptions {
  /// engine::WorkerPool workers including the caller, at most
  /// engine::WorkerPool::kMaxThreads (larger: kInvalidArgument). 0 =
  /// RELMORE_THREADS, else the hardware default. The only execution knob.
  unsigned threads = 0;
  /// Unused: every net takes the scalar path. Declared only because
  /// benchmark/src/main.cpp still sets both; remove them with that use.
  std::size_t lane_width = 0;
  std::size_t min_group = 4;
  util::FaultPolicy fault_policy = util::FaultPolicy::kSkipAndFlag;
  /// Degradation-ladder retry budget for *transient* faults (allocation
  /// failure, injected pool faults): total attempts per net, with capped
  /// exponential backoff between attempts. Minimum 1.
  std::size_t max_attempts = 3;
  /// Cooperative run control, polled between nets. The caller keeps
  /// `cancel` (when non-null) alive for the call's duration.
  util::Deadline deadline;
  const util::CancelToken* cancel = nullptr;
  /// Optional per-net analysis cache (relmore::Timer plugs its own in).
  /// A net whose (epoch, options fingerprint) matches its cached slot
  /// skips analysis entirely — bitwise-safe because a net's models are a
  /// pure function of its tree bits, and Design bumps the net epoch on
  /// every re-finalize/edit. The caller keeps the cache alive for the
  /// call's duration; not thread-safe (one analysis at a time per cache,
  /// the Timer discipline).
  CorpusCache* cache = nullptr;
};

/// Moment models of one net, at its tap nodes only: the timing graph
/// reads nothing else, so nothing else is computed past the moment sums
/// or stored.
struct NetModels {
  std::vector<eed::NodeModel> taps;  ///< parallel to Net::taps; empty unless analyzed
  bool analyzed = false;  ///< taps hold real results (false: faulted or not run)
  bool faulted = false;
  util::Status status;               ///< why, when faulted
};

/// Per-net models for a whole design, indexed like Design::nets.
struct CorpusModels {
  std::vector<NetModels> nets;
  std::size_t faulted_nets = 0;
  std::size_t incomplete_nets = 0;   ///< not analyzed: deadline/cancel stop
  std::size_t quarantined_nets = 0;  ///< faulted after exhausting transient retries
  std::size_t cache_hits = 0;        ///< nets served from AnalyzeOptions::cache
  std::size_t cache_misses = 0;      ///< nets the cache could not serve
  /// Always 0: no net runs on AoSoA lanes. Declared only because
  /// benchmark/src/workloads.cpp still reads both; remove them with that use.
  std::size_t batched_nets = 0;
  std::size_t fallback_nets = 0;
  /// Non-ok when the run stopped at a deadline/cancellation; completed
  /// nets are kept and bitwise-identical to an uninterrupted run.
  util::Status stop_status;
  /// Per-name record of everything that went wrong: one error per faulted
  /// net, one warning per incomplete net, one warning per exception a
  /// round of the retry ladder caught.
  util::DiagnosticsReport diagnostics;
};

/// Persistent per-net model store keyed by (net epoch, options
/// fingerprint). Only *decided, healthy* verdicts are cached — faulted
/// and stop-interrupted nets are recomputed every run, so a transient
/// failure can never be pinned by the cache. Epoch keying makes
/// invalidation free: Design::epoch (stamped into Net::epoch) moves on
/// every finalize/edit, so a stale slot simply stops matching.
///
/// Not thread-safe: one analysis/edit at a time per cache (the
/// relmore::Timer discipline; analyze_corpus_checked touches it only from
/// the calling thread).
class CorpusCache {
 public:
  /// Lifetime totals, on top of the per-run counts in CorpusModels.
  struct Counters {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t stores = 0;
  };

  /// The cached models of net `net_index`, or nullptr when the slot is
  /// empty or keyed to a different (epoch, fingerprint). Counts one hit
  /// or miss.
  [[nodiscard]] const NetModels* find(std::size_t net_index, std::uint64_t epoch,
                                      std::uint64_t fingerprint);

  /// Stores (replaces) net `net_index`'s slot. Only analyzed, unfaulted
  /// models should be stored; faulted/undecided slots must stay
  /// recomputable (see class comment).
  void store(std::size_t net_index, std::uint64_t epoch, std::uint64_t fingerprint,
             NetModels models);

  void clear();
  [[nodiscard]] std::size_t size() const { return slots_.size(); }
  [[nodiscard]] const Counters& counters() const { return counters_; }

 private:
  struct Slot {
    bool valid = false;
    std::uint64_t epoch = 0;
    std::uint64_t fingerprint = 0;
    NetModels models;
  };
  std::vector<Slot> slots_;
  Counters counters_;
};

/// The cache key half derived from `options`. Only knobs that can change
/// an output bit participate — execution knobs (threads, retries,
/// deadlines) never do. The phase fault policy does
/// (kClampAndFlag rewrites degenerate moments), so it keys the slot after
/// kThrow-normalization: kThrow and kSkipAndFlag share a fingerprint (the
/// phase runs them identically), kClampAndFlag gets its own. Kept
/// explicit so a future bit-changing option widens the key instead of
/// poisoning slots.
[[nodiscard]] std::uint64_t options_fingerprint(const AnalyzeOptions& options);

/// One net's tap models: `eed::analyze_nodes_checked` on `net.flat` at
/// the tap nodes, under the phase fault policy of `options`, with its
/// scratch from util::thread_arena(); each tap model is bitwise-equal to
/// a full `eed::analyze` at that node. A rejected net (empty tree, a tap
/// node outside the tree) comes back `faulted` with its status naming
/// the net, a degenerate one `analyzed` and `faulted`; only
/// `analyzed && !faulted` models belong in a CorpusCache. Throws only
/// std::bad_alloc, when the scratch grab or the tap vector cannot be
/// had: a transient the corpus ladder retries and relmore::Timer's
/// restamp turns into dropping its cached analysis. The corpus phase
/// computes every net it schedules with this, so a net restamped here
/// (relmore::Timer after an edit) carries the corpus phase's bits by
/// construction.
[[nodiscard]] NetModels analyze_net(const Net& net, const AnalyzeOptions& options = {});

/// Analyzes every net of `design`. Returns a Status only for caller
/// errors (empty design; threads above engine::WorkerPool::kMaxThreads
/// -> kInvalidArgument), under FaultPolicy::kThrow when a net faulted or
/// the run was stopped; under the flag policies per-net failures are
/// isolated in the result and a stop comes back as stop_status.
[[nodiscard]] util::Result<CorpusModels> analyze_corpus_checked(const Design& design,
                                                               const AnalyzeOptions& options = {});

}  // namespace relmore::sta
