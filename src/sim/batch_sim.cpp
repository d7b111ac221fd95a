#include "relmore/sim/batch_sim.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>

#include "relmore/util/arena.hpp"
#include "relmore/util/tuner.hpp"
#include "relmore/util/worker_pool.hpp"

namespace relmore::sim {

using circuit::FlatTree;
using circuit::SectionId;

/// SIMD-only OpenMP pragma on the fixed-width lane loops, exactly as in
/// engine/batched.cpp: it asserts lane independence (true — lanes are
/// distinct runs) so GCC keeps clean vector codegen; each lane still runs
/// its operations in the scalar association order.
#if defined(RELMORE_HAVE_OPENMP_SIMD)
#define RELMORE_SIMD _Pragma("omp simd")
#else
#define RELMORE_SIMD
#endif

/// Function multi-versioning for the hot kernels: GCC emits a portable
/// baseline clone plus an x86-64-v3 (AVX2) clone behind an ifunc resolver,
/// so one binary vectorizes at full lane width on capable CPUs without any
/// -march build flag. Bitwise-safe: every clone runs the same IEEE
/// operations, just at different vector widths, and the repo-wide
/// -ffp-contract=off applies to all clones, so no FMA contraction can
/// make them diverge.
/// Disabled under ThreadSanitizer: the ifunc resolvers run during early
/// relocation, before the TSan runtime is initialized, and the
/// interceptor-instrumented resolver segfaults at load time. The TSan leg
/// only checks synchronization, so losing the AVX2 clone there costs
/// nothing (the bitwise contract makes all clones equal anyway).
#if defined(__SANITIZE_THREAD__)
#define RELMORE_KERNEL_CLONES
#elif defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)
#define RELMORE_KERNEL_CLONES __attribute__((target_clones("default", "arch=x86-64-v3")))
#else
#define RELMORE_KERNEL_CLONES
#endif

namespace {

/// Group/step-boundary run-control poll. A tripped deadline/cancel aborts
/// the whole batched call (TransientOptions::run_control documents why
/// the simulator keeps no partial results): the throw unwinds to the pool
/// join and surfaces as util::FaultError from simulate/first_crossings.
void throw_if_stopped(const util::RunControl& rc, const char* who) {
  if (!rc.armed()) return;
  const util::ErrorCode code = rc.stop_code();
  if (code == util::ErrorCode::kOk) return;
  throw util::FaultError(util::Status(code, std::string(who) + ": run stopped"));
}

/// Pointers into one lane-group's integration state and per-step scratch;
/// each array holds n·W doubles laid out [section][lane].
struct GroupState {
  double* i_l;
  double* v_l;
  double* i_c;
  double* v_node;
  double* e_b;
  double* j;
  double* j_eq;
};

/// One lane-group's companion factorization for a fixed (h, method) — the
/// batched mirror of FlatStepper::Factors.
struct GroupFactors {
  double* rl;
  double* gc;
  double* r_b;
  double* g_node;
  double* g_eq;
};

/// Number of n·W blocks a group workspace holds: 7 state/scratch arrays
/// plus two 5-array factorizations (backward-Euler and trapezoidal).
constexpr std::size_t kWorkspaceBlocks = 17;

/// How many sections ahead the sweeps prefetch the parent-indexed row —
/// the one access the hardware prefetcher cannot predict. Matches
/// engine/batched.cpp.
constexpr std::size_t kPrefetchAhead = 16;

/// Sink called after the downward sweep finalizes sections [lo, hi) of a
/// step: rows completed by the tile are drained (probe voltages copied
/// out) while still cache-hot. A plain function pointer — not a template
/// parameter — so the kernels keep plain-type signatures and
/// RELMORE_KERNEL_CLONES stays applicable.
using TileSinkFn = void (*)(void* ctx, std::size_t lo, std::size_t hi);

/// Drain state for the recording path: probe sections ascending, with
/// their output rows, plus the per-(group, step) output coordinates.
/// One instance per lane-group task; `cursor`/`step` are reset per step.
struct ProbeDrainCtx {
  double* out_v = nullptr;
  const double* v_node = nullptr;
  const std::size_t* secs = nullptr;  ///< probe sections, ascending
  const int* rows = nullptr;          ///< output row of each probe
  std::size_t count = 0;
  std::size_t cursor = 0;
  std::size_t samples = 0;
  std::size_t padded = 0;
  std::size_t group = 0;
  std::size_t w = 0;
  std::size_t step = 0;
};

/// Copies every probe with section in [cursor's section, hi) — exactly
/// the rows the tile just finalized, because sections are ascending and
/// tiles arrive in order.
void drain_probes(void* vctx, std::size_t lo, std::size_t hi) {
  auto* d = static_cast<ProbeDrainCtx*>(vctx);
  (void)lo;
  const std::size_t w = d->w;
  while (d->cursor < d->count && d->secs[d->cursor] < hi) {
    const std::size_t dst =
        (static_cast<std::size_t>(d->rows[d->cursor]) * d->samples + d->step) * d->padded +
        d->group * w;
    std::memcpy(d->out_v + dst, d->v_node + d->secs[d->cursor] * w, w * sizeof(double));
    ++d->cursor;
  }
}

/// Builds the state-independent factors for every lane of one group, in
/// FlatStepper's exact expression and accumulation order per lane. The
/// g_eq select is division-safe as written: a zero g_node makes the
/// denominator exactly 1, and the scalar path's explicit 0.0 is what
/// 0/1 produces anyway.
template <std::size_t W>
RELMORE_KERNEL_CLONES void build_factors(std::size_t n, const SectionId* parent, const double* r,
                                         const double* l, const double* c, double h,
                                         bool trapezoidal, const GroupFactors& f) {
  // Hoist the array pointers into restrict-qualified locals: the blocks
  // are disjoint workspace slices, and leaving them behind the struct
  // indirection blocks if-conversion and vectorization of every loop.
  double* __restrict frl = f.rl;
  double* __restrict fgc = f.gc;
  double* __restrict frb = f.r_b;
  double* __restrict fg = f.g_node;
  double* __restrict fge = f.g_eq;
  if (trapezoidal) {
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t at = i * W;
      RELMORE_SIMD
      for (std::size_t t = 0; t < W; ++t) {
        const double rl = 2.0 * l[at + t] / h;
        const double gc = 2.0 * c[at + t] / h;
        frl[at + t] = rl;
        fgc[at + t] = gc;
        frb[at + t] = r[at + t] + rl;
        fg[at + t] = gc;
      }
    }
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t at = i * W;
      RELMORE_SIMD
      for (std::size_t t = 0; t < W; ++t) {
        const double rl = l[at + t] / h;
        const double gc = c[at + t] / h;
        frl[at + t] = rl;
        fgc[at + t] = gc;
        frb[at + t] = r[at + t] + rl;
        fg[at + t] = gc;
      }
    }
  }
  for (std::size_t ii = n; ii-- > 0;) {
    const std::size_t at = ii * W;
    RELMORE_SIMD
    for (std::size_t t = 0; t < W; ++t) {
      const double g = fg[at + t];
      // Unconditional division so the loop body is branch-free (a zero g
      // makes the denominator exactly 1 and 0/1 == +0.0, the scalar
      // path's explicit zero).
      const double denom = 1.0 + frb[at + t] * g;
      const double ge = g / denom;
      fge[at + t] = g > 0.0 ? ge : 0.0;
    }
    const SectionId p = parent[ii];
    if (p != circuit::kInput) {
      // Cross-row accumulation: rows never alias (parent id != own id).
      double* __restrict up = fg + static_cast<std::size_t>(p) * W;
      const double* __restrict mine = fge + at;
      RELMORE_SIMD
      for (std::size_t t = 0; t < W; ++t) up[t] += mine[t];
    }
  }
}

/// Advances every lane of one group by h. Lane t performs exactly the
/// scalar FlatStepper::advance operations of run group·W + t, in the same
/// order; the j/g_node division goes through a selected safe divisor,
/// which leaves live lanes' bits untouched and keeps dead lanes finite.
///
/// The downward sweep runs in contiguous tiles of `tile_rows` sections
/// (0 = whole tree); after each tile the optional sink drains the
/// just-finalized voltage rows while cache-hot. Tiling changes only the
/// touch order (the sweep still visits sections in ascending id order),
/// so results are bitwise-equal for every tile size.
template <std::size_t W, bool TRAP>
RELMORE_KERNEL_CLONES void step_group_impl(std::size_t n, const SectionId* parent,
                                           const double* lvals, const double* cvals,
                                           const GroupFactors& f, const GroupState& s,
                                           const double* vin, std::size_t tile_rows,
                                           TileSinkFn sink, void* ctx) {
  // Restrict-qualified local views of the disjoint workspace slices (see
  // build_factors): without them the struct indirection defeats
  // if-conversion and every inner loop stays scalar.
  const double* __restrict frl = f.rl;
  const double* __restrict fgc = f.gc;
  const double* __restrict frb = f.r_b;
  const double* __restrict fg = f.g_node;
  const double* __restrict fge = f.g_eq;
  double* __restrict i_l = s.i_l;
  double* __restrict v_l = s.v_l;
  double* __restrict i_c = s.i_c;
  double* __restrict v_node = s.v_node;
  double* __restrict e_b = s.e_b;
  double* __restrict j = s.j;
  double* __restrict j_eq = s.j_eq;

  // relmore-lint: begin-hot-loop(batch-sim-step)
  // Upward sweep with the state-dependent companion sources fused in
  // behind a lazy frontier: rows [front, n) of e_b/j are initialized.
  // Before accumulating into parent p the loop forces front <= p, so a
  // row's companion values are always a pure overwrite of previous-step
  // state (i_l/v_l/v_node/i_c, none of which the upward sweep modifies)
  // before any child folds into its j — exactly the per-location
  // operation order of a separate init loop followed by the reverse
  // accumulation, hence bitwise-equal. The fusion saves a full e_b/j
  // round trip through memory per step, which is what stalls the sweep
  // once the working set outgrows L1/L2. The division runs
  // unconditionally through the selected safe divisor (live lanes divide
  // by their real g_node, so their bits are untouched; dead lanes divide
  // by 1), keeping the body branch-free and vectorizable. The root's
  // parent accumulation lands in a stack sink so the per-node body is a
  // single branch-free loop; the prefetch covers the parent-row gather,
  // the one access the hardware prefetcher cannot predict.
  double root_sink[W] = {};
  std::size_t front = n;
  for (std::size_t ii = n; ii-- > 0;) {
    if (ii >= kPrefetchAhead) {
      const SectionId fp = parent[ii - kPrefetchAhead];
      if (fp != circuit::kInput) {
        __builtin_prefetch(j + static_cast<std::size_t>(fp) * W, 1, 3);
      }
    }
    const SectionId p = parent[ii];
    const std::size_t need = p == circuit::kInput ? ii : static_cast<std::size_t>(p);
    while (front > need) {
      --front;
      const std::size_t fat = front * W;
      RELMORE_SIMD
      for (std::size_t t = 0; t < W; ++t) {
        if constexpr (TRAP) {
          e_b[fat + t] = -(frl[fat + t] * i_l[fat + t] + v_l[fat + t]);
          j[fat + t] = fgc[fat + t] * v_node[fat + t] + i_c[fat + t];
        } else {
          e_b[fat + t] = -(frl[fat + t] * i_l[fat + t]);
          j[fat + t] = fgc[fat + t] * v_node[fat + t];
        }
      }
    }
    const std::size_t at = ii * W;
    double* __restrict up =
        p == circuit::kInput ? root_sink : j + static_cast<std::size_t>(p) * W;
    RELMORE_SIMD
    for (std::size_t t = 0; t < W; ++t) {
      const double g = fg[at + t];
      const double safe = g > 0.0 ? g : 1.0;
      const double q = j[at + t] / safe;
      const double je = g > 0.0 ? fge[at + t] * (e_b[at + t] + q) : j[at + t];
      j_eq[at + t] = je;
      up[t] += je;
    }
  }

  // Downward sweep fused with the companion history update: everything the
  // history needs (the old and new voltages, e_b, the branch current) is
  // in registers right after the node's voltage is computed, so neither a
  // v_prev checkpoint array nor an i_b array ever touches memory.
  // Parents are finalized before children read them; the parent-row read
  // is staged through a W-wide local so the compiler need not prove the
  // rows disjoint.
  const std::size_t tile = tile_rows == 0 ? n : tile_rows;
  for (std::size_t lo = 0; lo < n; lo += tile) {
    const std::size_t hi = lo + tile < n ? lo + tile : n;
    for (std::size_t ii = lo; ii < hi; ++ii) {
      if (ii + kPrefetchAhead < n) {
        const SectionId fp = parent[ii + kPrefetchAhead];
        if (fp != circuit::kInput) {
          __builtin_prefetch(v_node + static_cast<std::size_t>(fp) * W, 0, 3);
        }
      }
      const std::size_t at = ii * W;
      const SectionId p = parent[ii];
      const double* __restrict src =
          p == circuit::kInput ? vin : v_node + static_cast<std::size_t>(p) * W;
      RELMORE_SIMD
      for (std::size_t t = 0; t < W; ++t) {
        const double vp = src[t];
        const double g = fg[at + t];
        const double cur = g > 0.0 ? fge[at + t] * vp - j_eq[at + t] : -j[at + t];
        const double v_old = v_node[at + t];
        const double v_new = vp - frb[at + t] * cur - e_b[at + t];
        v_node[at + t] = v_new;
        double i_c_new;
        if constexpr (TRAP) {
          i_c_new = fgc[at + t] * v_new - (fgc[at + t] * v_old + i_c[at + t]);
        } else {
          i_c_new = fgc[at + t] * (v_new - v_old);
        }
        v_l[at + t] = lvals[at + t] > 0.0 ? frl[at + t] * cur + e_b[at + t] : 0.0;
        i_l[at + t] = cur;
        i_c[at + t] = cvals[at + t] > 0.0 ? i_c_new : 0.0;
      }
    }
    if (sink != nullptr) sink(ctx, lo, hi);
  }
  // relmore-lint: end-hot-loop
}

template <std::size_t W>
void step_group(std::size_t n, const SectionId* parent, const double* lvals, const double* cvals,
                const GroupFactors& f, const GroupState& s, const double* vin, bool trapezoidal,
                std::size_t tile_rows, TileSinkFn sink, void* ctx) {
  if (trapezoidal) {
    step_group_impl<W, true>(n, parent, lvals, cvals, f, s, vin, tile_rows, sink, ctx);
  } else {
    step_group_impl<W, false>(n, parent, lvals, cvals, f, s, vin, tile_rows, sink, ctx);
  }
}

/// Carves a workspace into the state/factor views and zeroes the state.
template <std::size_t W>
void init_workspace(std::size_t n, double* ws, GroupState& s, GroupFactors& fbe,
                    GroupFactors& ftr) {
  const std::size_t b = n * W;
  double* p = ws;
  s = GroupState{p, p + b, p + 2 * b, p + 3 * b, p + 4 * b, p + 5 * b, p + 6 * b};
  fbe = GroupFactors{p + 7 * b, p + 8 * b, p + 9 * b, p + 10 * b, p + 11 * b};
  ftr = GroupFactors{p + 12 * b, p + 13 * b, p + 14 * b, p + 15 * b, p + 16 * b};
  std::memset(ws, 0, 4 * b * sizeof(double));  // i_l, v_l, i_c, v_node start at zero
}

/// One lane-group of the recording path. `drain_secs`/`drain_rows` list
/// the probes ascending by section (with their output rows) so each
/// step's probe copies ride the downward sweep's tile sink while the
/// voltages are cache-hot.
template <std::size_t W>
void simulate_group(std::size_t n, const SectionId* parent, const double* r, const double* l,
                    const double* c, const Source* sources, const TransientOptions& opts,
                    std::size_t steps, const std::size_t* drain_secs, const int* drain_rows,
                    std::size_t drain_count, std::size_t tile_rows, double* out_v,
                    std::size_t samples, std::size_t padded, std::size_t group, double* ws) {
  GroupState s;
  GroupFactors fbe;
  GroupFactors ftr;
  init_workspace<W>(n, ws, s, fbe, ftr);
  const double h = opts.dt;
  bool be_built = false;
  bool tr_built = false;
  double vin[W];
  ProbeDrainCtx drain;
  drain.out_v = out_v;
  drain.v_node = s.v_node;
  drain.secs = drain_secs;
  drain.rows = drain_rows;
  drain.count = drain_count;
  drain.samples = samples;
  drain.padded = padded;
  drain.group = group;
  drain.w = W;
  for (std::size_t step = 1; step <= steps; ++step) {
    if ((step & 255u) == 0u) throw_if_stopped(opts.run_control, "BatchSimulator::simulate");
    const double t = static_cast<double>(step) * h;
    const bool trap = static_cast<int>(step) > opts.be_startup_steps;
    const GroupFactors& f = trap ? ftr : fbe;
    if (trap && !tr_built) {
      build_factors<W>(n, parent, r, l, c, h, true, ftr);
      tr_built = true;
    } else if (!trap && !be_built) {
      build_factors<W>(n, parent, r, l, c, h, false, fbe);
      be_built = true;
    }
    for (std::size_t t_lane = 0; t_lane < W; ++t_lane) {
      vin[t_lane] = source_value(sources[t_lane], t);
    }
    drain.cursor = 0;
    drain.step = step;
    step_group<W>(n, parent, l, c, f, s, vin, trap, tile_rows, &drain_probes, &drain);
  }
}

/// One lane-group of the streaming first-crossing path. `live` is the
/// number of non-padding lanes; `out` receives `live` crossing times.
template <std::size_t W>
void crossings_group(std::size_t n, const SectionId* parent, const double* r, const double* l,
                     const double* c, const Source* sources, const TransientOptions& opts,
                     std::size_t steps, std::size_t probe_section, double threshold,
                     std::size_t live, std::size_t tile_rows, double* out, double* ws) {
  GroupState s;
  GroupFactors fbe;
  GroupFactors ftr;
  init_workspace<W>(n, ws, s, fbe, ftr);
  const double h = opts.dt;
  bool be_built = false;
  bool tr_built = false;
  double vin[W];
  double prev_v[W] = {};
  double cross[W];
  bool crossed[W] = {};
  for (std::size_t t_lane = 0; t_lane < W; ++t_lane) cross[t_lane] = -1.0;
  std::size_t remaining = live;
  double t_prev = 0.0;
  for (std::size_t step = 1; step <= steps; ++step) {
    if ((step & 255u) == 0u) {
      throw_if_stopped(opts.run_control, "BatchSimulator::first_crossings");
    }
    const double t = static_cast<double>(step) * h;
    const bool trap = static_cast<int>(step) > opts.be_startup_steps;
    const GroupFactors& f = trap ? ftr : fbe;
    if (trap && !tr_built) {
      build_factors<W>(n, parent, r, l, c, h, true, ftr);
      tr_built = true;
    } else if (!trap && !be_built) {
      build_factors<W>(n, parent, r, l, c, h, false, fbe);
      be_built = true;
    }
    for (std::size_t t_lane = 0; t_lane < W; ++t_lane) {
      vin[t_lane] = source_value(sources[t_lane], t);
    }
    step_group<W>(n, parent, l, c, f, s, vin, trap, tile_rows, nullptr, nullptr);
    const double* volt = s.v_node + probe_section * W;
    for (std::size_t t_lane = 0; t_lane < live; ++t_lane) {
      const double v = volt[t_lane];
      if (!crossed[t_lane] && prev_v[t_lane] < threshold && v >= threshold) {
        // Waveform::first_rise_crossing's interpolation, verbatim.
        const double w = (threshold - prev_v[t_lane]) / (v - prev_v[t_lane]);
        cross[t_lane] = t_prev + w * (t - t_prev);
        crossed[t_lane] = true;
        --remaining;
      }
      prev_v[t_lane] = v;
    }
    // Same early-exit rule as the scalar streaming path: with
    // threshold <= 0 the front-sample fallback governs uncrossed lanes
    // and needs the full run.
    if (remaining == 0 && threshold > 0.0) break;
    t_prev = t;
  }
  if (0.0 >= threshold) {
    for (std::size_t t_lane = 0; t_lane < live; ++t_lane) {
      if (!crossed[t_lane]) cross[t_lane] = 0.0;
    }
  }
  for (std::size_t t_lane = 0; t_lane < live; ++t_lane) out[t_lane] = cross[t_lane];
}

void validate_options(const TransientOptions& opts, const char* who) {
  if (opts.t_stop <= 0.0 || opts.dt <= 0.0) {
    throw std::invalid_argument(std::string(who) + ": t_stop and dt must be positive");
  }
}

}  // namespace

// --- BatchTransientResult ---------------------------------------------------

std::size_t BatchTransientResult::row(SectionId node) const {
  if (node < 0 || static_cast<std::size_t>(node) >= row_of_.size() ||
      row_of_[static_cast<std::size_t>(node)] < 0) {
    throw std::out_of_range("BatchTransientResult: section was not recorded");
  }
  return static_cast<std::size_t>(row_of_[static_cast<std::size_t>(node)]);
}

double BatchTransientResult::voltage(std::size_t run, SectionId node, std::size_t step) const {
  if (run >= runs_) throw std::out_of_range("BatchTransientResult: run out of range");
  if (step >= time_.size()) throw std::out_of_range("BatchTransientResult: step out of range");
  return v_[(row(node) * time_.size() + step) * padded_runs_ + run];
}

Waveform BatchTransientResult::waveform(std::size_t run, SectionId node) const {
  if (run >= runs_) throw std::out_of_range("BatchTransientResult: run out of range");
  const std::size_t r = row(node);
  std::vector<double> values(time_.size());
  for (std::size_t step = 0; step < time_.size(); ++step) {
    values[step] = v_[(r * time_.size() + step) * padded_runs_ + run];
  }
  return Waveform(time_, std::move(values));
}

// --- BatchSimulator ---------------------------------------------------------

BatchSimulator::BatchSimulator(FlatTree topology, std::size_t lane_width)
    : topo_(std::move(topology)) {
  if (topo_.empty()) throw std::invalid_argument("BatchSimulator: empty topology");
  if (lane_width == 0) {
    lane_width = util::KernelTuner::instance().sim_plan(topo_.size(), 0).lane_width;
  }
  if (lane_width != 1 && lane_width != 2 && lane_width != 4 && lane_width != 8) {
    throw std::invalid_argument("BatchSimulator: lane width must be 1, 2, 4, or 8");
  }
  lane_width_ = lane_width;
}

void BatchSimulator::set_tile_rows(std::size_t tile_rows) { tile_rows_ = tile_rows; }

std::size_t BatchSimulator::resolved_tile_rows() const {
  return tile_rows_ != 0
             ? tile_rows_
             : util::KernelTuner::instance().sim_plan(topo_.size(), runs_).tile_rows;
}

std::size_t BatchSimulator::value_slot(std::size_t s, std::size_t section) const {
  const std::size_t group = s / lane_width_;
  const std::size_t lane = s % lane_width_;
  return (group * topo_.size() + section) * lane_width_ + lane;
}

void BatchSimulator::resize(std::size_t runs) {
  runs_ = runs;
  groups_ = (runs + lane_width_ - 1) / lane_width_;
  const std::size_t n = topo_.size();
  const std::size_t total = groups_ * n * lane_width_;
  r_.resize(total);
  l_.resize(total);
  c_.resize(total);
  // Nominal values everywhere, padding lanes included — padding integrates
  // a harmless real circuit and is never read back.
  for (std::size_t g = 0; g < groups_; ++g) {
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t at = (g * n + i) * lane_width_;
      for (std::size_t t = 0; t < lane_width_; ++t) {
        r_[at + t] = topo_.resistance()[i];
        l_[at + t] = topo_.inductance()[i];
        c_[at + t] = topo_.capacitance()[i];
      }
    }
  }
  sources_.assign(groups_ * lane_width_, Source{StepSource{1.0}});
}

void BatchSimulator::set_source(std::size_t s, Source source) {
  if (s >= runs_) throw std::out_of_range("BatchSimulator::set_source: run out of range");
  sources_[s] = std::move(source);
}

void BatchSimulator::set_run(std::size_t s, const double* resistance, const double* inductance,
                             const double* capacitance) {
  if (s >= runs_) throw std::out_of_range("BatchSimulator::set_run: run out of range");
  const std::size_t n = topo_.size();
  const std::size_t w = lane_width_;
  const std::size_t base = value_slot(s, 0);
  for (std::size_t i = 0; i < n; ++i) r_[base + i * w] = resistance[i];
  for (std::size_t i = 0; i < n; ++i) l_[base + i * w] = inductance[i];
  for (std::size_t i = 0; i < n; ++i) c_[base + i * w] = capacitance[i];
}

void BatchSimulator::set_run_section(std::size_t s, SectionId id,
                                     const circuit::SectionValues& v) {
  if (s >= runs_) {
    throw std::out_of_range("BatchSimulator::set_run_section: run out of range");
  }
  if (id < 0 || static_cast<std::size_t>(id) >= topo_.size()) {
    throw std::out_of_range("BatchSimulator::set_run_section: section out of range");
  }
  const std::size_t at = value_slot(s, static_cast<std::size_t>(id));
  r_[at] = v.resistance;
  l_[at] = v.inductance;
  c_[at] = v.capacitance;
}

BatchTransientResult BatchSimulator::simulate(const TransientOptions& opts,
                                              util::WorkerPool* pool) const {
  if (runs_ == 0) throw std::invalid_argument("BatchSimulator: no runs (call resize)");
  validate_options(opts, "BatchSimulator::simulate");
  const std::size_t n = topo_.size();
  const std::size_t w = lane_width_;
  for (const SectionId id : opts.probes) {
    if (id < 0 || static_cast<std::size_t>(id) >= n) {
      throw std::out_of_range("BatchSimulator::simulate: probe id out of range");
    }
  }
  const auto steps = static_cast<std::size_t>(std::ceil(opts.t_stop / opts.dt));
  const std::size_t samples = steps + 1;

  BatchTransientResult out;
  out.runs_ = runs_;
  out.padded_runs_ = groups_ * w;
  out.time_.resize(samples);
  out.time_[0] = 0.0;
  for (std::size_t step = 1; step <= steps; ++step) {
    out.time_[step] = static_cast<double>(step) * opts.dt;
  }
  out.row_of_.assign(n, -1);
  if (opts.probes.empty()) {
    out.ids_.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      out.ids_[i] = static_cast<SectionId>(i);
      out.row_of_[i] = static_cast<int>(i);
    }
  } else {
    out.ids_ = opts.probes;
    for (std::size_t row = 0; row < opts.probes.size(); ++row) {
      out.row_of_[static_cast<std::size_t>(opts.probes[row])] = static_cast<int>(row);
    }
  }
  // Probes sorted ascending by section (with their output rows) so each
  // step's copies drain through the downward sweep's tile sink with one
  // monotone cursor.
  const std::size_t probe_count = out.ids_.size();
  std::vector<std::size_t> drain_secs(probe_count);
  std::vector<int> drain_rows(probe_count);
  for (std::size_t row = 0; row < probe_count; ++row) drain_rows[row] = static_cast<int>(row);
  std::sort(drain_rows.begin(), drain_rows.end(), [&](int a, int b) {
    return out.ids_[static_cast<std::size_t>(a)] < out.ids_[static_cast<std::size_t>(b)];
  });
  for (std::size_t i = 0; i < probe_count; ++i) {
    drain_secs[i] = static_cast<std::size_t>(out.ids_[static_cast<std::size_t>(drain_rows[i])]);
  }
  // Zero-filled storage doubles as the t=0 sample (everything starts at
  // 0 V) and as the padding lanes' rows.
  out.v_.assign(out.ids_.size() * samples * out.padded_runs_, 0.0);

  const std::size_t tile_rows = resolved_tile_rows();
  const SectionId* parent = topo_.parent().data();
  const auto run_one = [&](std::size_t g, double* ws) {
    const std::size_t base = g * n * w;
    const double* r = r_.data() + base;
    const double* l = l_.data() + base;
    const double* c = c_.data() + base;
    const Source* srcs = sources_.data() + g * w;
    switch (w) {
      case 1:
        simulate_group<1>(n, parent, r, l, c, srcs, opts, steps, drain_secs.data(),
                          drain_rows.data(), probe_count, tile_rows, out.v_.data(), samples,
                          out.padded_runs_, g, ws);
        return;
      case 2:
        simulate_group<2>(n, parent, r, l, c, srcs, opts, steps, drain_secs.data(),
                          drain_rows.data(), probe_count, tile_rows, out.v_.data(), samples,
                          out.padded_runs_, g, ws);
        return;
      case 4:
        simulate_group<4>(n, parent, r, l, c, srcs, opts, steps, drain_secs.data(),
                          drain_rows.data(), probe_count, tile_rows, out.v_.data(), samples,
                          out.padded_runs_, g, ws);
        return;
      case 8:
        simulate_group<8>(n, parent, r, l, c, srcs, opts, steps, drain_secs.data(),
                          drain_rows.data(), probe_count, tile_rows, out.v_.data(), samples,
                          out.padded_runs_, g, ws);
        return;
      default: throw std::logic_error("BatchSimulator: unsupported lane width");
    }
  };

  // One lane-group per task, outputs to disjoint run ranges — results are
  // independent of scheduling. Workspace comes from the worker's bump
  // arena: one grab per chunk, reused across its groups and retained
  // across calls, so corpus-scale sweeps don't churn the allocator.
  const std::size_t ws_size = kWorkspaceBlocks * n * w;
  if (pool != nullptr && groups_ > 1) {
    pool->parallel_chunks(groups_, [&](std::size_t begin, std::size_t end) {
      util::Arena& arena = util::thread_arena();
      const util::ArenaScope scope(arena);
      double* ws = arena.grab<double>(ws_size);
      for (std::size_t g = begin; g < end; ++g) {
        throw_if_stopped(opts.run_control, "BatchSimulator::simulate");
        run_one(g, ws);
      }
    });
  } else {
    util::Arena& arena = util::thread_arena();
    const util::ArenaScope scope(arena);
    double* ws = arena.grab<double>(ws_size);
    for (std::size_t g = 0; g < groups_; ++g) {
      throw_if_stopped(opts.run_control, "BatchSimulator::simulate");
      run_one(g, ws);
    }
  }
  return out;
}

std::vector<double> BatchSimulator::first_crossings(const TransientOptions& opts,
                                                    SectionId probe, double threshold,
                                                    util::WorkerPool* pool) const {
  if (runs_ == 0) throw std::invalid_argument("BatchSimulator: no runs (call resize)");
  validate_options(opts, "BatchSimulator::first_crossings");
  const std::size_t n = topo_.size();
  if (probe < 0 || static_cast<std::size_t>(probe) >= n) {
    throw std::out_of_range("BatchSimulator::first_crossings: probe id out of range");
  }
  const std::size_t w = lane_width_;
  const auto steps = static_cast<std::size_t>(std::ceil(opts.t_stop / opts.dt));
  const auto probe_section = static_cast<std::size_t>(probe);

  std::vector<double> out(runs_, -1.0);
  const std::size_t tile_rows = resolved_tile_rows();
  const SectionId* parent = topo_.parent().data();
  const auto run_one = [&](std::size_t g, double* ws) {
    const std::size_t base = g * n * w;
    const double* r = r_.data() + base;
    const double* l = l_.data() + base;
    const double* c = c_.data() + base;
    const Source* srcs = sources_.data() + g * w;
    const std::size_t live = std::min(w, runs_ - g * w);
    double* dst = out.data() + g * w;
    switch (w) {
      case 1:
        crossings_group<1>(n, parent, r, l, c, srcs, opts, steps, probe_section, threshold,
                           live, tile_rows, dst, ws);
        return;
      case 2:
        crossings_group<2>(n, parent, r, l, c, srcs, opts, steps, probe_section, threshold,
                           live, tile_rows, dst, ws);
        return;
      case 4:
        crossings_group<4>(n, parent, r, l, c, srcs, opts, steps, probe_section, threshold,
                           live, tile_rows, dst, ws);
        return;
      case 8:
        crossings_group<8>(n, parent, r, l, c, srcs, opts, steps, probe_section, threshold,
                           live, tile_rows, dst, ws);
        return;
      default: throw std::logic_error("BatchSimulator: unsupported lane width");
    }
  };

  const std::size_t ws_size = kWorkspaceBlocks * n * w;
  if (pool != nullptr && groups_ > 1) {
    pool->parallel_chunks(groups_, [&](std::size_t begin, std::size_t end) {
      util::Arena& arena = util::thread_arena();
      const util::ArenaScope scope(arena);
      double* ws = arena.grab<double>(ws_size);
      for (std::size_t g = begin; g < end; ++g) {
        throw_if_stopped(opts.run_control, "BatchSimulator::first_crossings");
        run_one(g, ws);
      }
    });
  } else {
    util::Arena& arena = util::thread_arena();
    const util::ArenaScope scope(arena);
    double* ws = arena.grab<double>(ws_size);
    for (std::size_t g = 0; g < groups_; ++g) {
      throw_if_stopped(opts.run_control, "BatchSimulator::first_crossings");
      run_one(g, ws);
    }
  }
  return out;
}

}  // namespace relmore::sim
