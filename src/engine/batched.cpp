#include "relmore/engine/batched.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "relmore/circuit/validate.hpp"
#include "relmore/eed/second_order.hpp"
#include "relmore/util/arena.hpp"
#include "relmore/util/fault_injector.hpp"
#include "relmore/util/tuner.hpp"
#include "relmore/util/worker_pool.hpp"

namespace relmore::engine {

using circuit::SectionId;

/// SIMD-only OpenMP pragma on the fixed-width lane loops (defined from
/// CMake when -fopenmp-simd is available). Without it GCC if-converts the
/// parent-row reads into masked loads and then fails to vectorize the
/// loop; the pragma asserts lane independence (true: lanes are distinct
/// samples) and restores clean vector codegen. Semantics are unchanged —
/// each lane still runs its operations in the scalar association order.
#if defined(RELMORE_HAVE_OPENMP_SIMD)
#define RELMORE_SIMD _Pragma("omp simd")
#else
#define RELMORE_SIMD
#endif

/// Function multi-versioning for the hot kernels, exactly as in
/// sim/batch_sim.cpp: GCC emits a portable baseline clone plus an
/// x86-64-v3 (AVX2) clone behind an ifunc resolver, so one binary
/// vectorizes at full lane width on capable CPUs without any -march build
/// flag. Bitwise-safe: every clone runs the same IEEE operations, just at
/// different vector widths, and the repo-wide -ffp-contract=off applies
/// to all clones, so no FMA contraction can make them diverge.
/// Disabled under ThreadSanitizer: the ifunc resolvers run during early
/// relocation, before the TSan runtime is initialized, and the
/// interceptor-instrumented resolver segfaults at load time.
#if defined(__SANITIZE_THREAD__)
#define RELMORE_KERNEL_CLONES
#elif defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)
#define RELMORE_KERNEL_CLONES __attribute__((target_clones("default", "arch=x86-64-v3")))
#else
#define RELMORE_KERNEL_CLONES
#endif

namespace {

/// Upstream prefix of a root section: all lanes zero. Sized for the
/// widest supported lane group.
constexpr double kZeroPrefix[8] = {};

/// How many sections ahead the sweep loops prefetch the parent-indexed
/// row. The gather is the one access pattern the hardware prefetcher
/// cannot predict; ~16 iterations covers an L2 hit's latency at the
/// sweeps' throughput without thrashing the L1 fill buffers.
constexpr std::size_t kPrefetchAhead = 16;

/// Verdict of one branch-free validity scan over a value buffer.
struct ValueScan {
  double lowest = 0.0;  ///< min(0, values) — negative iff any value is
  double poison = 0.0;  ///< NaN iff any value is NaN or ±Inf, else 0
  [[nodiscard]] bool non_finite() const { return !(poison == 0.0); }
  [[nodiscard]] bool bad() const { return lowest < 0.0 || non_finite(); }
  void merge(const ValueScan& o) {
    lowest = std::min(lowest, o.lowest);
    poison += o.poison;
  }
};

/// Validity scan with eight explicit accumulator pairs. A serial
/// `lowest = std::min(lowest, ...)` scan chains at the min instruction's
/// latency and dominates the whole batched pipeline; eight independent
/// chains keep the FP pipe saturated whether or not the loop vectorizes
/// (measured ~3x over the serial form even in scalar codegen). The min
/// alone has a NaN hole — min(x, NaN) is x — so a poison accumulator
/// rides along: v * 0.0 is 0 for every finite v and NaN for NaN/±Inf,
/// turning "any non-finite value?" into one comparison at the end.
ValueScan scan_values(const double* buf, std::size_t count) {
  double m[8] = {};
  double p[8] = {};
  std::size_t i = 0;
  for (; i + 8 <= count; i += 8) {
    RELMORE_SIMD
    for (std::size_t j = 0; j < 8; ++j) {
      m[j] = std::min(m[j], buf[i + j]);
      p[j] += buf[i + j] * 0.0;
    }
  }
  ValueScan out;
  for (; i < count; ++i) {
    out.lowest = std::min(out.lowest, buf[i]);
    out.poison += buf[i] * 0.0;
  }
  for (const double v : m) out.lowest = std::min(out.lowest, v);
  for (const double v : p) out.poison += v;
  return out;
}

/// Status for a rejected sample fill, preserving the historical
/// "negative element value" wording the original contract used.
util::Status bad_sample_status(const char* entry, std::size_t sample, bool non_finite) {
  return util::Status(
      non_finite ? util::ErrorCode::kNonFiniteValue : util::ErrorCode::kNegativeValue,
      std::string(entry) + (non_finite ? ": non-finite" : ": negative") +
          " element value in sample " + std::to_string(sample));
}

/// Sink called after the downward sweep finishes sections [lo, hi): the
/// rows completed by the tile are drained (copied to the output layout)
/// while still cache-hot. A plain function pointer — not a template
/// parameter — so the kernels keep plain-type signatures and
/// RELMORE_KERNEL_CLONES stays applicable to them.
using TileSinkFn = void (*)(void* ctx, std::size_t lo, std::size_t hi);

/// Sink for the path-walk kernel: one call per requested output row with
/// the walked prefix sums and the row's subtree-capacitance lanes.
using RowSinkFn = void (*)(void* ctx, std::size_t row, const double* acc_sr,
                           const double* acc_sl, const double* ctot_row);

/// Everything a drain sink needs: the output arrays, which scratch rows
/// to copy (ids ascending, with their output rows), and the per-lane
/// poison accumulators. One instance per lane-group task, so no sharing.
struct DrainCtx {
  double* out_sr = nullptr;
  double* out_sl = nullptr;
  double* out_ctot = nullptr;
  std::size_t padded = 0;  ///< output padded sample count
  std::size_t g = 0;       ///< lane-group index
  std::size_t w = 0;       ///< lane width
  const double* sr = nullptr;    ///< scratch, n*w (two-pass mode)
  const double* sl = nullptr;    ///< scratch, n*w (two-pass mode)
  const double* ctot = nullptr;  ///< scratch, n*w
  const SectionId* ids = nullptr;  ///< drain ids, ascending
  const int* rows = nullptr;       ///< output row of each drain id
  std::size_t count = 0;
  std::size_t cursor = 0;  ///< next drain entry; monotone across tiles
  double poison[8] = {};
};

/// Drains every requested row with id in [cursor's id, hi) — exactly the
/// rows the tile [lo, hi) just completed, because ids are ascending and
/// tiles arrive in order. Rescans the freshly copied (cache-hot) values
/// with the poison trick: each term is 0 for a finite value and NaN
/// otherwise, so after the sweep poison[t] answers "did lane t report any
/// non-finite moment?" without branching. Per-term multiplies — summing
/// first could overflow to Inf on legitimately huge finite moments. The
/// terms are all +0.0 or NaN, so accumulation order cannot change the
/// verdict (or the bits).
void drain_tile(void* vctx, std::size_t lo, std::size_t hi) {
  auto* d = static_cast<DrainCtx*>(vctx);
  (void)lo;
  const std::size_t w = d->w;
  while (d->cursor < d->count && static_cast<std::size_t>(d->ids[d->cursor]) < hi) {
    const auto i = static_cast<std::size_t>(d->ids[d->cursor]);
    const std::size_t dst =
        static_cast<std::size_t>(d->rows[d->cursor]) * d->padded + d->g * w;
    std::memcpy(d->out_sr + dst, d->sr + i * w, w * sizeof(double));
    std::memcpy(d->out_sl + dst, d->sl + i * w, w * sizeof(double));
    std::memcpy(d->out_ctot + dst, d->ctot + i * w, w * sizeof(double));
    const double* a = d->sr + i * w;
    const double* b = d->sl + i * w;
    const double* cc = d->ctot + i * w;
    RELMORE_SIMD
    for (std::size_t t = 0; t < w; ++t) {
      d->poison[t] += a[t] * 0.0 + b[t] * 0.0 + cc[t] * 0.0;
    }
    ++d->cursor;
  }
}

/// Path-walk drain: the walked prefix sums land directly in output row
/// `row` (the walk visits rows in output order, no cursor needed).
void drain_row(void* vctx, std::size_t row, const double* acc_sr, const double* acc_sl,
               const double* ctot_row) {
  auto* d = static_cast<DrainCtx*>(vctx);
  const std::size_t w = d->w;
  const std::size_t dst = row * d->padded + d->g * w;
  std::memcpy(d->out_sr + dst, acc_sr, w * sizeof(double));
  std::memcpy(d->out_sl + dst, acc_sl, w * sizeof(double));
  std::memcpy(d->out_ctot + dst, ctot_row, w * sizeof(double));
  RELMORE_SIMD
  for (std::size_t t = 0; t < w; ++t) {
    d->poison[t] += acc_sr[t] * 0.0 + acc_sl[t] * 0.0 + ctot_row[t] * 0.0;
  }
}

/// Upward pass (Fig. 17): subtree capacitance in one reverse id scan,
/// with the init fused in behind a lazy frontier. Values are read in
/// sample-major rows (`rows_c[t*n + i]` is lane t's value of section i —
/// both the stored arrays and the streaming staging use this layout), the
/// lane blocks `ctot[i*W + t]` are the working form.
///
/// The frontier invariant: rows [front, n) are initialized. Before
/// accumulating into parent p the loop forces front <= p, so a row is
/// always a pure overwrite of c before any child folds into it, and the
/// folds still arrive in descending child-id order — exactly the scalar
/// pass's per-location operation order, hence bitwise-equal results. The
/// fusion saves one full pass over ctot; the prefetch covers the
/// parent-row gather, the only access the hardware prefetcher cannot
/// predict.
///
/// The lane loops stage their cross-row reads through W-wide locals
/// (`up`/`mine` point into the same array, and without the copy the
/// compiler must assume they overlap and serialize the loop). Rows never
/// overlap (parent id != own id), so the staging is free of semantics.
template <std::size_t W>
RELMORE_KERNEL_CLONES void upward_pass(std::size_t n, const SectionId* parent,
                                       const double* rows_c, double* ctot) {
  // relmore-lint: begin-hot-loop(batched-upward)
  std::size_t front = n;
  for (std::size_t i = n; i-- > 0;) {
    if (i >= kPrefetchAhead) {
      const SectionId fp = parent[i - kPrefetchAhead];
      if (fp != circuit::kInput) {
        __builtin_prefetch(ctot + static_cast<std::size_t>(fp) * W, 1, 3);
      }
    }
    const SectionId p = parent[i];
    const std::size_t need = p == circuit::kInput ? i : static_cast<std::size_t>(p);
    while (front > need) {
      --front;
      double* dst = ctot + front * W;
      const double* src = rows_c + front;
      RELMORE_SIMD
      for (std::size_t t = 0; t < W; ++t) dst[t] = src[t * n];
    }
    if (p != circuit::kInput) {
      double* up = ctot + static_cast<std::size_t>(p) * W;
      const double* mine = ctot + i * W;
      RELMORE_SIMD
      for (std::size_t t = 0; t < W; ++t) up[t] += mine[t];
    }
  }
  // relmore-lint: end-hot-loop
}

/// Downward pass (Fig. 18): prefix sums along each root path, swept in
/// contiguous tiles of `tile_rows` sections (0 = whole tree). After each
/// tile the sink drains the just-completed rows while they are still
/// cache-hot, so at large n the output copy rides the sweep instead of
/// re-streaming three cold n*W arrays afterwards. Tiling changes only the
/// touch order — every sr/sl element is still computed by the identical
/// expression from already-final parent values (parents precede children
/// in id order), so results are bitwise-equal for every tile size.
template <std::size_t W>
RELMORE_KERNEL_CLONES void downward_pass(std::size_t n, const SectionId* parent,
                                         const double* rows_r, const double* rows_l,
                                         const double* ctot, double* sr, double* sl,
                                         std::size_t tile_rows, TileSinkFn sink, void* ctx) {
  const std::size_t tile = tile_rows == 0 ? n : tile_rows;
  for (std::size_t lo = 0; lo < n; lo += tile) {
    const std::size_t hi = lo + tile < n ? lo + tile : n;
    // relmore-lint: begin-hot-loop(batched-downward-tile)
    for (std::size_t i = lo; i < hi; ++i) {
      if (i + kPrefetchAhead < n) {
        const SectionId fp = parent[i + kPrefetchAhead];
        if (fp != circuit::kInput) {
          __builtin_prefetch(sr + static_cast<std::size_t>(fp) * W, 0, 3);
          __builtin_prefetch(sl + static_cast<std::size_t>(fp) * W, 0, 3);
        }
      }
      const SectionId p = parent[i];
      const double* up_sr =
          p == circuit::kInput ? kZeroPrefix : sr + static_cast<std::size_t>(p) * W;
      const double* up_sl =
          p == circuit::kInput ? kZeroPrefix : sl + static_cast<std::size_t>(p) * W;
      const std::size_t at = i * W;
      RELMORE_SIMD
      for (std::size_t t = 0; t < W; ++t) {
        sr[at + t] = up_sr[t] + rows_r[t * n + i] * ctot[at + t];
      }
      RELMORE_SIMD
      for (std::size_t t = 0; t < W; ++t) {
        sl[at + t] = up_sl[t] + rows_l[t * n + i] * ctot[at + t];
      }
    }
    // relmore-lint: end-hot-loop
    if (sink != nullptr) sink(ctx, lo, hi);
  }
}

/// Sparse-query alternative to the downward pass: when only a few shallow
/// nodes are requested, walking each one's root path and accumulating
/// r·ctot / l·ctot along it touches O(sum of path lengths) rows instead
/// of sweeping all n — and needs no sr/sl scratch at all. The
/// accumulation runs root -> node, which is exactly the association order
/// the recurrence unrolls to (the scalar root starts from the zero
/// prefix: 0.0 + r·ctot), so the walked sums are bitwise-equal to the
/// swept ones. `path` is caller scratch for one root path (n indices).
template <std::size_t W>
RELMORE_KERNEL_CLONES void pathwalk_pass(std::size_t n, const SectionId* parent,
                                         const double* rows_r, const double* rows_l,
                                         const double* ctot, const SectionId* ids,
                                         std::size_t count, std::size_t* path,
                                         RowSinkFn sink, void* ctx) {
  // relmore-lint: begin-hot-loop(batched-path-walk)
  for (std::size_t row = 0; row < count; ++row) {
    std::size_t depth = 0;
    for (SectionId j = ids[row]; j != circuit::kInput;
         j = parent[static_cast<std::size_t>(j)]) {
      path[depth++] = static_cast<std::size_t>(j);
    }
    double acc_sr[W] = {};
    double acc_sl[W] = {};
    while (depth-- > 0) {
      const std::size_t j = path[depth];
      const std::size_t at = j * W;
      RELMORE_SIMD
      for (std::size_t t = 0; t < W; ++t) acc_sr[t] += rows_r[t * n + j] * ctot[at + t];
      RELMORE_SIMD
      for (std::size_t t = 0; t < W; ++t) acc_sl[t] += rows_l[t * n + j] * ctot[at + t];
    }
    sink(ctx, row, acc_sr, acc_sl, ctot + static_cast<std::size_t>(ids[row]) * W);
  }
  // relmore-lint: end-hot-loop
}

/// One lane-group, fully swept: upward pass, then either the tiled
/// downward sweep (draining per tile) or the path walk (draining per
/// row). `path != nullptr` selects the walk.
template <std::size_t W>
void run_sweep(std::size_t n, const SectionId* parent, const double* rows_r,
               const double* rows_l, const double* rows_c, double* ctot, double* sr,
               double* sl, std::size_t tile_rows, std::size_t* path,
               const SectionId* walk_ids, std::size_t walk_count, DrainCtx* ctx) {
  upward_pass<W>(n, parent, rows_c, ctot);
  if (path != nullptr) {
    pathwalk_pass<W>(n, parent, rows_r, rows_l, ctot, walk_ids, walk_count, path,
                     &drain_row, ctx);
  } else {
    downward_pass<W>(n, parent, rows_r, rows_l, ctot, sr, sl, tile_rows, &drain_tile, ctx);
  }
}

}  // namespace

/// How one analysis call sweeps its lane-groups — resolved once per call,
/// shared read-only by every group task.
struct BatchedAnalyzer::SweepPlan {
  std::size_t tile_rows = 0;  ///< downward tile size; 0 = whole tree
  bool use_pathwalk = false;  ///< sparse shallow queries take the walk
  std::vector<circuit::SectionId> drain_ids;  ///< output ids, ascending
  std::vector<int> drain_rows;                ///< output row per drain id
};

// --- BatchedModels ----------------------------------------------------------

std::size_t BatchedModels::slot(std::size_t sample, SectionId id) const {
  if (sample >= samples_) throw std::out_of_range("BatchedModels: sample out of range");
  if (id < 0 || static_cast<std::size_t>(id) >= row_of_.size() ||
      row_of_[static_cast<std::size_t>(id)] < 0) {
    throw std::out_of_range("BatchedModels: node not covered by this analysis");
  }
  return static_cast<std::size_t>(row_of_[static_cast<std::size_t>(id)]) * padded_samples_ +
         sample;
}

double BatchedModels::sum_rc(std::size_t sample, SectionId id) const {
  return sr_[slot(sample, id)];
}

double BatchedModels::sum_lc(std::size_t sample, SectionId id) const {
  return sl_[slot(sample, id)];
}

double BatchedModels::load_capacitance(std::size_t sample, SectionId id) const {
  return ctot_[slot(sample, id)];
}

eed::NodeModel BatchedModels::node(std::size_t sample, SectionId id) const {
  const std::size_t at = slot(sample, id);
  return eed::node_model(sr_[at], sl_[at]);
}

double BatchedModels::delay_50(std::size_t sample, SectionId id) const {
  return eed::delay_50(node(sample, id));
}

std::uint8_t BatchedModels::fault_flags(std::size_t sample) const {
  if (sample >= samples_) throw std::out_of_range("BatchedModels: sample out of range");
  return fault_flags_.empty() ? std::uint8_t{eed::kFaultNone} : fault_flags_[sample];
}

std::vector<std::size_t> BatchedModels::faulted_samples() const {
  std::vector<std::size_t> out;
  out.reserve(fault_count_);
  for (std::size_t s = 0; s < fault_flags_.size(); ++s) {
    if (fault_flags_[s] != 0) out.push_back(s);
  }
  return out;
}

// --- BatchedAnalyzer --------------------------------------------------------

BatchedAnalyzer::BatchedAnalyzer(circuit::FlatTree topology, std::size_t lane_width)
    : topo_(std::move(topology)) {
  if (topo_.empty()) throw std::invalid_argument("BatchedAnalyzer: empty topology");
  if (const util::DiagnosticsReport report = circuit::validate(topo_); !report.is_ok()) {
    throw util::FaultError(report.to_status());
  }
  if (lane_width == 0) {
    lane_width = util::KernelTuner::instance().analysis_plan(topo_.size(), 0).lane_width;
  }
  if (lane_width != 1 && lane_width != 2 && lane_width != 4 && lane_width != 8) {
    throw std::invalid_argument("BatchedAnalyzer: lane width must be 1, 2, 4, or 8");
  }
  lane_width_ = lane_width;
}

util::Result<BatchedAnalyzer> BatchedAnalyzer::create_checked(circuit::FlatTree topology,
                                                              std::size_t lane_width) {
  if (topology.empty()) {
    return util::Status(util::ErrorCode::kEmptyTree, "BatchedAnalyzer: empty topology");
  }
  if (lane_width != 0 && lane_width != 1 && lane_width != 2 && lane_width != 4 &&
      lane_width != 8) {
    return util::Status(util::ErrorCode::kInvalidArgument,
                        "BatchedAnalyzer: lane width must be 1, 2, 4, or 8");
  }
  try {
    return BatchedAnalyzer(std::move(topology), lane_width);
  } catch (const util::FaultError& e) {
    return e.status();
  }
}

std::size_t BatchedAnalyzer::value_slot(std::size_t s, std::size_t section) const {
  return s * topo_.size() + section;
}

void BatchedAnalyzer::resize(std::size_t samples) {
  samples_ = samples;
  groups_ = (samples + lane_width_ - 1) / lane_width_;
  const std::size_t n = topo_.size();
  const std::size_t padded = groups_ * lane_width_;
  r_.resize(padded * n);
  l_.resize(padded * n);
  c_.resize(padded * n);
  input_fault_.assign(samples, 0);
  // Nominal values everywhere, padding rows included — padding computes
  // harmless real numbers and is never read back. Sample-major rows make
  // this (and set_sample) a straight memcpy per array.
  for (std::size_t row = 0; row < padded; ++row) {
    std::memcpy(r_.data() + row * n, topo_.resistance().data(), n * sizeof(double));
    std::memcpy(l_.data() + row * n, topo_.inductance().data(), n * sizeof(double));
    std::memcpy(c_.data() + row * n, topo_.capacitance().data(), n * sizeof(double));
  }
}

void BatchedAnalyzer::set_sample(std::size_t s, const double* resistance,
                                 const double* inductance, const double* capacitance) {
  if (s >= samples_) throw std::out_of_range("BatchedAnalyzer::set_sample: sample out of range");
  const std::size_t n = topo_.size();
  // Validate first with a branch-free scan (a throw-per-element form
  // defeats vectorization of both this scan and the copy), then land the
  // values with three contiguous copies — sample s owns row s of each
  // array, so no strided scatter is involved.
  ValueScan scan = scan_values(resistance, n);
  scan.merge(scan_values(inductance, n));
  scan.merge(scan_values(capacitance, n));
  // Injection site: a poisoned value arriving at snapshot fill — folded
  // into the scan verdict before the policy branch, so it flows through
  // the exact guards a genuinely bad input would (throw / clamp / flag).
  const bool inject = util::fault_should_fire(util::FaultSite::kSnapshotNan);
  if (inject) scan.poison += std::numeric_limits<double>::quiet_NaN();
  if (scan.bad() && policy_ == util::FaultPolicy::kThrow) {
    throw util::FaultError(bad_sample_status("BatchedAnalyzer", s, scan.non_finite()));
  }
  const std::size_t base = value_slot(s, 0);
  std::memcpy(r_.data() + base, resistance, n * sizeof(double));
  std::memcpy(l_.data() + base, inductance, n * sizeof(double));
  std::memcpy(c_.data() + base, capacitance, n * sizeof(double));
  if (inject) r_[base] = std::numeric_limits<double>::quiet_NaN();
  input_fault_[s] = 0;
  if (scan.bad()) {
    // Flag-policy slow path: mark the sample; under kClampAndFlag rewrite
    // just-stored invalid entries to 0 so the kernel sees usable numbers.
    input_fault_[s] = eed::kFaultBadInput;
    if (policy_ == util::FaultPolicy::kClampAndFlag) {
      for (double* row : {r_.data() + base, l_.data() + base, c_.data() + base}) {
        for (std::size_t i = 0; i < n; ++i) {
          if (!util::valid_element_value(row[i])) row[i] = 0.0;
        }
      }
    }
  }
}

void BatchedAnalyzer::set_section(std::size_t s, SectionId id, const circuit::SectionValues& v) {
  if (s >= samples_) throw std::out_of_range("BatchedAnalyzer::set_section: sample out of range");
  if (id < 0 || static_cast<std::size_t>(id) >= topo_.size()) {
    throw std::out_of_range("BatchedAnalyzer::set_section: section id out of range");
  }
  circuit::SectionValues stored = v;
  const bool ok = util::valid_element_value(v.resistance) &&
                  util::valid_element_value(v.inductance) &&
                  util::valid_element_value(v.capacitance);
  if (!ok) {
    const bool non_finite = !std::isfinite(v.resistance) || !std::isfinite(v.inductance) ||
                            !std::isfinite(v.capacitance);
    if (policy_ == util::FaultPolicy::kThrow) {
      throw util::FaultError(bad_sample_status("BatchedAnalyzer", s, non_finite));
    }
    input_fault_[s] = eed::kFaultBadInput;
    if (policy_ == util::FaultPolicy::kClampAndFlag) {
      for (double* m : {&stored.resistance, &stored.inductance, &stored.capacitance}) {
        if (!util::valid_element_value(*m)) *m = 0.0;
      }
    }
  }
  const std::size_t at = value_slot(s, static_cast<std::size_t>(id));
  r_[at] = stored.resistance;
  l_[at] = stored.inductance;
  c_[at] = stored.capacitance;
}

void BatchedAnalyzer::set_tile_rows(std::size_t tile_rows) { tile_rows_ = tile_rows; }

BatchedAnalyzer::SweepPlan BatchedAnalyzer::make_plan(const BatchedModels& out,
                                                      bool all_nodes,
                                                      std::size_t samples) const {
  const std::size_t n = topo_.size();
  SweepPlan plan;
  plan.tile_rows = tile_rows_ != 0
                       ? tile_rows_
                       : util::KernelTuner::instance().analysis_plan(n, samples).tile_rows;
  if (!all_nodes && !out.ids_.empty()) {
    // The path walk wins when the requested root paths touch fewer rows
    // than the full sweep would; level() is exactly each path's length.
    std::size_t walked = 0;
    for (const SectionId id : out.ids_) {
      walked += static_cast<std::size_t>(topo_.level()[static_cast<std::size_t>(id)]);
    }
    plan.use_pathwalk = 2 * walked < n;
  }
  if (!plan.use_pathwalk) {
    const std::size_t rows = out.ids_.size();
    plan.drain_rows.resize(rows);
    if (all_nodes) {
      plan.drain_ids = out.ids_;  // already 0..n-1, row == id
      for (std::size_t i = 0; i < rows; ++i) plan.drain_rows[i] = static_cast<int>(i);
    } else {
      // Sort the output rows by id so tiles drain with one monotone cursor.
      std::vector<int> order(rows);
      for (std::size_t i = 0; i < rows; ++i) order[i] = static_cast<int>(i);
      std::sort(order.begin(), order.end(), [&](int a, int b) {
        return out.ids_[static_cast<std::size_t>(a)] < out.ids_[static_cast<std::size_t>(b)];
      });
      plan.drain_ids.resize(rows);
      for (std::size_t i = 0; i < rows; ++i) {
        plan.drain_ids[i] = out.ids_[static_cast<std::size_t>(order[i])];
        plan.drain_rows[i] = order[i];
      }
    }
  }
  return plan;
}

void BatchedAnalyzer::sweep_group(const SweepPlan& plan, BatchedModels& out, std::size_t g,
                                  const double* rows_r, const double* rows_l,
                                  const double* rows_c, double* scratch, std::size_t* path,
                                  const std::uint8_t* lane_input) const {
  const std::size_t n = topo_.size();
  const std::size_t w = lane_width_;
  const SectionId* parent = topo_.parent().data();
  double* ctot = scratch;
  double* sr = path != nullptr ? nullptr : scratch + n * w;
  double* sl = path != nullptr ? nullptr : scratch + 2 * n * w;
  DrainCtx ctx;
  ctx.out_sr = out.sr_.data();
  ctx.out_sl = out.sl_.data();
  ctx.out_ctot = out.ctot_.data();
  ctx.padded = out.padded_samples_;
  ctx.g = g;
  ctx.w = w;
  ctx.sr = sr;
  ctx.sl = sl;
  ctx.ctot = ctot;
  ctx.ids = plan.drain_ids.data();
  ctx.rows = plan.drain_rows.data();
  ctx.count = plan.drain_ids.size();
  const SectionId* walk_ids = out.ids_.data();
  const std::size_t walk_count = out.ids_.size();
  switch (w) {
    case 1:
      run_sweep<1>(n, parent, rows_r, rows_l, rows_c, ctot, sr, sl, plan.tile_rows, path,
                   walk_ids, walk_count, &ctx);
      break;
    case 2:
      run_sweep<2>(n, parent, rows_r, rows_l, rows_c, ctot, sr, sl, plan.tile_rows, path,
                   walk_ids, walk_count, &ctx);
      break;
    case 4:
      run_sweep<4>(n, parent, rows_r, rows_l, rows_c, ctot, sr, sl, plan.tile_rows, path,
                   walk_ids, walk_count, &ctx);
      break;
    case 8:
      run_sweep<8>(n, parent, rows_r, rows_l, rows_c, ctot, sr, sl, plan.tile_rows, path,
                   walk_ids, walk_count, &ctx);
      break;
    default:
      throw std::logic_error("BatchedAnalyzer: unsupported lane width");
  }
  flag_group(out, g, ctx.poison, lane_input);
}

BatchedModels BatchedAnalyzer::make_output(const std::vector<SectionId>& ids, bool all_nodes,
                                           std::size_t samples, std::size_t groups) const {
  const std::size_t n = topo_.size();
  BatchedModels out;
  out.samples_ = samples;
  out.padded_samples_ = groups * lane_width_;
  out.row_of_.assign(n, -1);
  if (all_nodes) {
    out.ids_.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      out.ids_[i] = static_cast<SectionId>(i);
      out.row_of_[i] = static_cast<int>(i);
    }
  } else {
    out.ids_ = ids;
    for (std::size_t row = 0; row < ids.size(); ++row) {
      const SectionId id = ids[row];
      if (id < 0 || static_cast<std::size_t>(id) >= n) {
        throw std::out_of_range("BatchedAnalyzer::analyze_nodes: section id out of range");
      }
      out.row_of_[static_cast<std::size_t>(id)] = static_cast<int>(row);
    }
  }
  const std::size_t rows = out.ids_.size();
  out.sr_.resize(rows * out.padded_samples_);
  out.sl_.resize(rows * out.padded_samples_);
  out.ctot_.resize(rows * out.padded_samples_);
  // Zeroed per-sample flag bytes; tasks write disjoint samples, and
  // finalize_faults drops the storage again when nothing faulted.
  out.fault_flags_.assign(samples, 0);
  return out;
}

void BatchedAnalyzer::flag_group(BatchedModels& out, std::size_t g, const double* poison,
                                 const std::uint8_t* lane_input) const {
  const std::size_t w = lane_width_;
  for (std::size_t t = 0; t < w; ++t) {
    const std::size_t s = g * w + t;
    if (s >= out.samples_) break;  // padding lanes carry no verdict
    std::uint8_t flags = lane_input != nullptr
                             ? lane_input[t]
                             : (s < input_fault_.size() ? input_fault_[s] : std::uint8_t{0});
    if (!(poison[t] == 0.0)) flags |= eed::kFaultNonFiniteMoment;
    if (flags != 0) out.fault_flags_[s] = flags;
  }
}

bool BatchedAnalyzer::group_stopped(std::atomic<std::uint8_t>& stop, BatchedModels& out,
                                    std::size_t g) const {
  std::uint8_t code = stop.load(std::memory_order_relaxed);
  if (code == 0) {
    if (!run_.armed()) return false;
    const util::ErrorCode c = run_.stop_code();
    if (c == util::ErrorCode::kOk) return false;
    // First observer latches the code; a racing observer's verdict only
    // differs when deadline and cancel trip in the same instant, and
    // either answer is a truthful stop reason.
    std::uint8_t expected = 0;
    stop.compare_exchange_strong(expected, static_cast<std::uint8_t>(c),
                                 std::memory_order_relaxed);
  }
  // Skipped group: flag its real lanes so the caller can tell exactly
  // which samples never ran. Tasks own disjoint sample ranges, so these
  // writes race with nothing.
  for (std::size_t t = 0; t < lane_width_; ++t) {
    const std::size_t s = g * lane_width_ + t;
    if (s >= out.samples_) break;
    out.fault_flags_[s] |= eed::kFaultNotRun;
  }
  return true;
}

void BatchedAnalyzer::finalize_stop(std::atomic<std::uint8_t>& stop, BatchedModels& out,
                                    const char* entry) const {
  const std::uint8_t code = stop.load(std::memory_order_relaxed);
  if (code == 0) return;
  std::size_t not_run = 0;
  for (const std::uint8_t f : out.fault_flags_) {
    not_run += (f & eed::kFaultNotRun) != 0 ? 1u : 0u;
  }
  out.stop_status_ = util::Status(
      static_cast<util::ErrorCode>(code),
      std::string(entry) + ": stopped early (" + std::to_string(not_run) + " of " +
          std::to_string(out.samples_) + " samples not run)");
  if (policy_ == util::FaultPolicy::kThrow) throw util::FaultError(out.stop_status_);
}

void BatchedAnalyzer::finalize_faults(BatchedModels& out, const char* entry) const {
  std::size_t count = 0;
  for (const std::uint8_t f : out.fault_flags_) count += f != 0 ? 1u : 0u;
  if (count == 0) {
    out.fault_flags_ = {};
    out.fault_count_ = 0;
    return;
  }
  if (policy_ == util::FaultPolicy::kThrow) {
    std::size_t first = 0;
    while (out.fault_flags_[first] == 0) ++first;
    const bool input = (out.fault_flags_[first] & eed::kFaultBadInput) != 0;
    throw util::FaultError(util::Status(
        input ? util::ErrorCode::kInvalidArgument : util::ErrorCode::kNonFiniteMoment,
        std::string(entry) + ": " +
            (input ? "invalid element values" : "non-finite moments") + " in sample " +
            std::to_string(first) + " (" + std::to_string(count) + " faulted of " +
            std::to_string(out.samples_) + " samples)"));
  }
  if (policy_ == util::FaultPolicy::kClampAndFlag) {
    // Rare slow path: clamp the faulted samples' reported moments to the
    // RC-degenerate limit (0). Healthy lanes are never touched.
    const std::size_t rows = out.ids_.size();
    for (std::size_t s = 0; s < out.fault_flags_.size(); ++s) {
      if (out.fault_flags_[s] == 0) continue;
      for (std::size_t row = 0; row < rows; ++row) {
        const std::size_t at = row * out.padded_samples_ + s;
        if (!util::valid_element_value(out.sr_[at])) out.sr_[at] = 0.0;
        if (!util::valid_element_value(out.sl_[at])) out.sl_[at] = 0.0;
        if (!util::valid_element_value(out.ctot_[at])) out.ctot_[at] = 0.0;
      }
    }
  }
  out.fault_count_ = count;
}

BatchedModels BatchedAnalyzer::analyze_impl(const std::vector<SectionId>& ids, bool all_nodes,
                                            util::WorkerPool* pool) const {
  if (samples_ == 0) throw std::invalid_argument("BatchedAnalyzer: no samples (call resize)");
  const std::size_t n = topo_.size();
  const std::size_t w = lane_width_;
  BatchedModels out = make_output(ids, all_nodes, samples_, groups_);
  const SweepPlan plan = make_plan(out, all_nodes, samples_);

  // One lane-group per task; each task writes a disjoint sample range of
  // every output row (and disjoint flag bytes), so scheduling order cannot
  // affect the results. Scratch comes from the worker's bump arena — one
  // grab per chunk, reused across that chunk's groups, retained across
  // calls — never one allocation per group per pass. Fault policies never
  // throw inside a task: verdicts are recorded per sample and resolved
  // after the join (finalize_faults), so a faulted lane cannot abandon
  // other groups' results mid-flight.
  const std::size_t scratch_doubles = plan.use_pathwalk ? n * w : 3 * n * w;
  std::atomic<std::uint8_t> stop{0};
  const auto run_range = [&](std::size_t begin, std::size_t end) {
    util::Arena& arena = util::thread_arena();
    const util::ArenaScope scope(arena);
    double* scratch = arena.grab<double>(scratch_doubles);
    std::size_t* path = plan.use_pathwalk ? arena.grab<std::size_t>(n) : nullptr;
    for (std::size_t g = begin; g < end; ++g) {
      if (group_stopped(stop, out, g)) continue;
      const double* base_r = r_.data() + g * w * n;
      const double* base_l = l_.data() + g * w * n;
      const double* base_c = c_.data() + g * w * n;
      sweep_group(plan, out, g, base_r, base_l, base_c, scratch, path, nullptr);
    }
  };
  if (pool != nullptr && groups_ > 1) {
    pool->parallel_chunks(groups_, run_range);
  } else {
    run_range(0, groups_);
  }
  finalize_stop(stop, out, "BatchedAnalyzer::analyze");
  finalize_faults(out, "BatchedAnalyzer::analyze");
  return out;
}

BatchedModels BatchedAnalyzer::analyze_stream(std::size_t samples, const SampleFill& fill,
                                              const std::vector<SectionId>& ids,
                                              util::WorkerPool* pool) const {
  if (samples == 0) throw std::invalid_argument("BatchedAnalyzer: no samples");
  const std::size_t n = topo_.size();
  const std::size_t w = lane_width_;
  const std::size_t groups = (samples + w - 1) / w;
  const bool all_nodes = ids.empty();
  BatchedModels out = make_output(ids, all_nodes, samples, groups);
  const SweepPlan plan = make_plan(out, all_nodes, samples);

  // Per-group working set: w sample-major staging rows (what the fill
  // callback writes) plus the kernel scratch. All of it lives and dies
  // inside one group, so for cache-sized n the values never round-trip
  // through memory — unlike the set_sample path, where the whole S·n
  // fill completes (and is evicted) before the first kernel sweep starts.
  // The kernel reads the staging rows in place; no transposed copy is
  // materialized (the stored path uses the same sample-major rows).
  const auto task = [&](std::size_t g, double* staging, double* scratch,
                        std::size_t* path) {
    double* rows_r = staging;  // w rows of n
    double* rows_l = rows_r + w * n;
    double* rows_c = rows_l + w * n;
    for (std::size_t t = 0; t < w; ++t) {
      const std::size_t s = g * w + t;
      if (s < samples) {
        fill(s, rows_r + t * n, rows_l + t * n, rows_c + t * n);
      } else {
        // Padding lanes replicate the group's first sample: valid values,
        // never read back.
        std::memcpy(rows_r + t * n, rows_r, n * sizeof(double));
        std::memcpy(rows_l + t * n, rows_l, n * sizeof(double));
        std::memcpy(rows_c + t * n, rows_c, n * sizeof(double));
      }
    }
    // Injection site: poison one staged value (group's first lane) after
    // the fill, before validation — the per-lane attribution and policy
    // handling below treat it exactly like a genuinely bad fill.
    if (util::fault_should_fire(util::FaultSite::kSnapshotNan)) {
      rows_r[0] = std::numeric_limits<double>::quiet_NaN();
    }
    std::uint8_t lane_input[8] = {};
    if (scan_values(staging, 3 * w * n).bad()) {
      // Rare slow path: attribute the fault to specific lanes so healthy
      // samples in the same group stay unflagged; under kClampAndFlag the
      // staging values are repaired before the kernel consumes them.
      for (std::size_t t = 0; t < w; ++t) {
        ValueScan lane = scan_values(rows_r + t * n, n);
        lane.merge(scan_values(rows_l + t * n, n));
        lane.merge(scan_values(rows_c + t * n, n));
        if (lane.bad()) lane_input[t] = eed::kFaultBadInput;
      }
      if (policy_ == util::FaultPolicy::kClampAndFlag) {
        for (std::size_t i = 0; i < 3 * w * n; ++i) {
          if (!util::valid_element_value(staging[i])) staging[i] = 0.0;
        }
      }
    }
    sweep_group(plan, out, g, rows_r, rows_l, rows_c, scratch, path, lane_input);
  };
  const std::size_t scratch_doubles = plan.use_pathwalk ? n * w : 3 * n * w;
  std::atomic<std::uint8_t> stop{0};
  const auto run_range = [&](std::size_t begin, std::size_t end) {
    util::Arena& arena = util::thread_arena();
    const util::ArenaScope scope(arena);
    double* staging = arena.grab<double>(3 * w * n);
    double* scratch = arena.grab<double>(scratch_doubles);
    std::size_t* path = plan.use_pathwalk ? arena.grab<std::size_t>(n) : nullptr;
    for (std::size_t g = begin; g < end; ++g) {
      if (group_stopped(stop, out, g)) continue;
      task(g, staging, scratch, path);
    }
  };
  if (pool != nullptr && groups > 1) {
    pool->parallel_chunks(groups, run_range);
  } else {
    run_range(0, groups);
  }
  finalize_stop(stop, out, "BatchedAnalyzer::analyze_stream");
  finalize_faults(out, "BatchedAnalyzer::analyze_stream");
  return out;
}

BatchedModels BatchedAnalyzer::analyze(util::WorkerPool* pool) const {
  return analyze_impl({}, /*all_nodes=*/true, pool);
}

BatchedModels BatchedAnalyzer::analyze_nodes(const std::vector<SectionId>& ids,
                                             util::WorkerPool* pool) const {
  return analyze_impl(ids, /*all_nodes=*/false, pool);
}

}  // namespace relmore::engine
