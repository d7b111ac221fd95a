#include "relmore/sta/corpus.hpp"

#include <atomic>
#include <chrono>
#include <exception>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "relmore/engine/worker_pool.hpp"
#include "relmore/util/arena.hpp"

namespace relmore::sta {

using util::ErrorCode;
using util::FaultPolicy;
using util::Result;
using util::Status;

namespace {

/// The phase never unwinds across workers: kThrow is resolved at the join.
FaultPolicy phase_policy(FaultPolicy requested) {
  return requested == FaultPolicy::kThrow ? FaultPolicy::kSkipAndFlag : requested;
}

/// Sorts a phase exception into the degradation ladder's two bins.
/// Returns true for *transient* failures worth retrying — resource
/// exhaustion (allocation failed under pressure) and injected pool
/// faults. Everything else (data faults, logic errors) is final:
/// rerunning a pure function on the same bits cannot heal it.
bool classify_exception(const std::exception_ptr& ep, Status* status) {
  try {
    std::rethrow_exception(ep);
  } catch (const util::FaultError& e) {
    *status = e.status();
    return e.code() == ErrorCode::kInjectedFault || e.code() == ErrorCode::kResourceExhausted;
  } catch (const std::bad_alloc&) {
    *status = Status(ErrorCode::kResourceExhausted, "workspace allocation failed");
    return true;
  } catch (const std::exception& e) {
    *status = Status(ErrorCode::kInvalidArgument, e.what());
    return false;
  } catch (...) {
    *status = Status(ErrorCode::kInvalidArgument, "unknown exception in analysis phase");
    return false;
  }
}

/// Capped exponential backoff before retry `attempt` (1-based): 1, 2,
/// then 4 ms flat. Transient pressure needs breathing room; a corpus pass
/// must not stall for long either.
void backoff(std::size_t attempt) {
  const std::size_t shift = attempt < 3 ? attempt - 1 : 2;
  std::this_thread::sleep_for(std::chrono::milliseconds(std::size_t{1} << shift));
}

}  // namespace

const NetModels* CorpusCache::find(std::size_t net_index, std::uint64_t epoch,
                                   std::uint64_t fingerprint) {
  if (net_index < slots_.size()) {
    const Slot& slot = slots_[net_index];
    if (slot.valid && slot.epoch == epoch && slot.fingerprint == fingerprint) {
      ++counters_.hits;
      return &slot.models;
    }
  }
  ++counters_.misses;
  return nullptr;
}

void CorpusCache::store(std::size_t net_index, std::uint64_t epoch, std::uint64_t fingerprint,
                        NetModels models) {
  if (net_index >= slots_.size()) slots_.resize(net_index + 1);
  Slot& slot = slots_[net_index];
  slot.valid = true;
  slot.epoch = epoch;
  slot.fingerprint = fingerprint;
  slot.models = std::move(models);
  ++counters_.stores;
}

void CorpusCache::clear() {
  slots_.clear();
  counters_ = Counters{};
}

std::uint64_t options_fingerprint(const AnalyzeOptions& options) {
  // Phase policy is the only knob that could steer the result today, and
  // normalization folds kThrow into kSkipAndFlag; see the header comment.
  return 0x51a0'0000ULL + static_cast<std::uint64_t>(phase_policy(options.fault_policy));
}

NetModels analyze_net(const Net& net, const AnalyzeOptions& options) {
  NetModels out;
  const std::size_t n_taps = net.taps.size();
  util::Arena& arena = util::thread_arena();
  const util::ArenaScope scope(arena);
  circuit::SectionId* nodes = arena.grab<circuit::SectionId>(n_taps);
  const std::size_t scratch_size = eed::node_scratch_size(net.flat.size());
  double* scratch = arena.grab<double>(scratch_size);
  for (std::size_t t = 0; t < n_taps; ++t) nodes[t] = net.taps[t].node;
  out.taps.resize(n_taps);
  const eed::AnalyzeOptions scalar_opts{phase_policy(options.fault_policy)};
  const Result<std::size_t> faulted =
      eed::analyze_nodes_checked(net.flat, {nodes, n_taps}, out.taps.data(),
                                 {scratch, scratch_size}, scalar_opts);
  if (!faulted.is_ok()) {
    out.taps.clear();
    out.faulted = true;
    out.status = faulted.status().with_net(net.name);
    return out;
  }
  // A fault anywhere in the tree poisons root-path sums; flag the net even
  // when no tap node is faulted itself.
  if (faulted.value() > 0) {
    out.faulted = true;
    out.status = Status(ErrorCode::kNonFiniteMoment,
                        "net has " + std::to_string(faulted.value()) + " faulted node(s)")
                     .with_net(net.name);
  }
  out.analyzed = true;
  return out;
}

Result<CorpusModels> analyze_corpus_checked(const Design& design, const AnalyzeOptions& options) {
  if (design.nets.empty()) {
    return Status(ErrorCode::kEmptyTree, "analyze_corpus: design has no nets");
  }
  if (options.threads > engine::WorkerPool::kMaxThreads) {
    return Status(ErrorCode::kInvalidArgument,
                  "analyze_corpus: threads must be at most " +
                      std::to_string(engine::WorkerPool::kMaxThreads));
  }
  const std::size_t attempts = options.max_attempts == 0 ? 1 : options.max_attempts;
  const util::RunControl rc{options.deadline, options.cancel};
  const std::size_t n_nets = design.nets.size();
  CorpusModels out;
  out.nets.resize(n_nets);

  // Stop latch: the first task/round that observes a tripped deadline or
  // cancellation CASes the code in; everyone else reads the latch (one
  // relaxed load) instead of re-deriving a possibly different verdict.
  std::atomic<std::uint8_t> stop{0};
  const auto corpus_stopped = [&]() -> bool {
    if (stop.load(std::memory_order_relaxed) != 0) return true;
    if (!rc.armed()) return false;
    const ErrorCode code = rc.stop_code();
    if (code == ErrorCode::kOk) return false;
    std::uint8_t expected = 0;
    stop.compare_exchange_strong(expected, static_cast<std::uint8_t>(code),
                                 std::memory_order_relaxed);
    return true;
  };

  // --- cache probe: serve epoch-matched nets without scheduling them -------
  // A hit copies the stored verdict. Only healthy decided verdicts are
  // ever stored (see CorpusCache), so a hit is exactly the bits an
  // uncached run would produce. Every other non-empty net is pending.
  const std::uint64_t fingerprint = options_fingerprint(options);
  std::vector<char> cached(n_nets, 0);
  std::vector<std::size_t> pending;
  for (std::size_t ni = 0; ni < n_nets; ++ni) {
    const Net& net = design.nets[ni];
    if (options.cache != nullptr) {
      const NetModels* slot = options.cache->find(ni, net.epoch, fingerprint);
      if (slot != nullptr) {
        out.nets[ni] = *slot;
        cached[ni] = 1;
        ++out.cache_hits;
        continue;
      }
      ++out.cache_misses;
    }
    if (net.flat.empty()) {
      out.nets[ni].faulted = true;
      out.nets[ni].status =
          Status(ErrorCode::kEmptyTree, "net has an empty tree").with_net(net.name);
      continue;
    }
    pending.push_back(ni);
  }

  engine::WorkerPool pool(options.threads);

  // --- ladder: rounds of one-net tasks, retrying transients ---------------
  // A round leaves a net's slot either decided (analyzed and/or faulted)
  // or untouched — a task killed by a transient (its exception surfaces at
  // the join) or skipped at a stop writes nothing, so "still undecided"
  // is exactly the retry set. Quarantine is the ladder's floor: a net
  // still failing after the budget is marked faulted with the last
  // transient's status and poisons only its own timing cone.
  const auto quarantine = [&](const Status& why) {
    for (const std::size_t ni : pending) {
      NetModels& slot = out.nets[ni];
      slot.faulted = true;
      slot.status = why.with_net(design.nets[ni].name);
      ++out.quarantined_nets;
    }
    pending.clear();
  };
  Status last(ErrorCode::kResourceExhausted, "net analysis did not complete");
  for (std::size_t attempt = 1; attempt <= attempts && !pending.empty(); ++attempt) {
    if (corpus_stopped()) break;
    if (attempt > 1) backoff(attempt - 1);
    std::exception_ptr ep;
    try {
      pool.parallel_for(pending.size(), [&](std::size_t k) {
        if (corpus_stopped()) return;
        const std::size_t ni = pending[k];
        out.nets[ni] = analyze_net(design.nets[ni], options);
      });
    } catch (...) {
      ep = std::current_exception();
    }
    std::vector<std::size_t> next;
    for (const std::size_t ni : pending) {
      const NetModels& slot = out.nets[ni];
      if (!slot.analyzed && !slot.faulted) next.push_back(ni);
    }
    pending = std::move(next);
    if (ep == nullptr) continue;
    const bool retry = classify_exception(ep, &last);
    util::Diagnostic d;
    d.code = last.code();
    d.warning = true;
    d.message =
        "corpus phase: " + last.message() + (retry && attempt < attempts ? " (retrying)" : "");
    out.diagnostics.add(std::move(d));
    if (!retry) quarantine(last);  // final: the same bits would fail again
  }
  if (!pending.empty() && !corpus_stopped()) quarantine(last);

  // --- join: count verdicts, surface the stop, apply the caller policy -----
  for (std::size_t ni = 0; ni < n_nets; ++ni) {
    const NetModels& slot = out.nets[ni];
    if (slot.faulted) {
      ++out.faulted_nets;
      util::Diagnostic d;
      d.code = slot.status.code();
      d.net = design.nets[ni].name;
      d.message = slot.status.message();
      out.diagnostics.add(std::move(d));
    } else if (!slot.analyzed) {
      ++out.incomplete_nets;
    }
  }
  if (const std::uint8_t code = stop.load(std::memory_order_relaxed); code != 0) {
    const auto ec = static_cast<ErrorCode>(code);
    out.stop_status = Status(ec, ec == ErrorCode::kCancelled
                                     ? "corpus analysis cancelled"
                                     : "corpus analysis deadline exceeded");
    for (std::size_t ni = 0; ni < n_nets; ++ni) {
      const NetModels& slot = out.nets[ni];
      if (slot.faulted || slot.analyzed) continue;
      util::Diagnostic d;
      d.code = ec;
      d.net = design.nets[ni].name;
      d.warning = true;
      d.message = "net not analyzed before the run stopped";
      out.diagnostics.add(std::move(d));
    }
  }
  // Fill the cache from this run's healthy verdicts (sequentially — the
  // parallel rounds are over).
  if (options.cache != nullptr) {
    for (std::size_t ni = 0; ni < n_nets; ++ni) {
      const NetModels& slot = out.nets[ni];
      if (cached[ni] != 0 || !slot.analyzed || slot.faulted) continue;
      options.cache->store(ni, design.nets[ni].epoch, fingerprint, slot);
    }
  }
  if (options.fault_policy == FaultPolicy::kThrow) {
    if (out.faulted_nets > 0) {
      for (const NetModels& slot : out.nets) {
        if (slot.faulted) return slot.status;  // first faulted net, by index
      }
    }
    if (!out.stop_status.is_ok()) return out.stop_status;
  }
  return out;
}

}  // namespace relmore::sta
