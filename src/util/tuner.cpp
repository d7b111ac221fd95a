#include "relmore/util/tuner.hpp"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <mutex>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

namespace relmore::util {

namespace {

// Cache probes with fallbacks matching common server parts; the exact
// numbers only steer tile sizing, so being off by 2x is benign.
std::size_t probe_l1_bytes() {
#if defined(_SC_LEVEL1_DCACHE_SIZE)
  const long bytes = sysconf(_SC_LEVEL1_DCACHE_SIZE);
  if (bytes > 0) return static_cast<std::size_t>(bytes);
#endif
  return std::size_t{48} * 1024;
}

std::size_t probe_l2_bytes() {
#if defined(_SC_LEVEL2_CACHE_SIZE)
  const long bytes = sysconf(_SC_LEVEL2_CACHE_SIZE);
  if (bytes > 0) return static_cast<std::size_t>(bytes);
#endif
  return std::size_t{1024} * 1024;
}

// Largest supported lane width not exceeding the lane count, so a group
// never carries padded lanes that outnumber real ones. Unknown lane
// counts (0) get the full width and rely on tiling for locality.
unsigned width_for_lanes(std::size_t lanes, unsigned preferred) {
  if (lanes == 0 || lanes >= preferred) return preferred;
  if (lanes >= 4) return 4;
  if (lanes >= 2) return 2;
  return 1;
}

constexpr long kMaxTileRows = 4L * 1024 * 1024;

}  // namespace

const KernelTuner& KernelTuner::instance() {
  static std::once_flag once;
  static const KernelTuner* tuner = nullptr;
  // Leaked singleton: the tuner must outlive static-destruction-order
  // games because kernels may run from worker threads during teardown.
  std::call_once(once, [] { tuner = new KernelTuner(); });
  return *tuner;
}

KernelTuner::KernelTuner()
    : l1_bytes_(probe_l1_bytes()), l2_bytes_(probe_l2_bytes()) {
  const char* env = std::getenv("RELMORE_TUNE");
  if (env == nullptr) return;
  forced_ = parse_tune(env);
  if (!forced_.has_value()) {
    std::fprintf(stderr,
                 "relmore: ignoring RELMORE_TUNE=\"%s\" (want WxT with W in "
                 "{1, 2, 4, 8} and T a tile row count in [0, %ld], e.g. "
                 "\"4x2048\"; T=0 means untiled); using auto-calibration\n",
                 env, kMaxTileRows);
  }
}

std::optional<KernelPlan> KernelTuner::parse_tune(const char* text) {
  if (text == nullptr || *text == '\0') return std::nullopt;
  errno = 0;
  char* end = nullptr;
  const long width = std::strtol(text, &end, 10);
  if (end == text || *end != 'x' || errno != 0) return std::nullopt;
  if (width != 1 && width != 2 && width != 4 && width != 8) {
    return std::nullopt;
  }
  const char* tile_text = end + 1;
  errno = 0;
  const long tile = std::strtol(tile_text, &end, 10);
  if (end == tile_text || *end != '\0' || errno != 0) return std::nullopt;
  if (tile < 0 || tile > kMaxTileRows) return std::nullopt;
  KernelPlan plan;
  plan.lane_width = static_cast<unsigned>(width);
  plan.tile_rows = static_cast<std::size_t>(tile);
  return plan;
}

std::size_t KernelTuner::tile_for(std::size_t sections,
                                  std::size_t bytes_per_section) const {
  // Keep a tile's working set in half of L2 — the other half holds the
  // output rows being drained plus whatever the caller keeps warm.
  const std::size_t budget = l2_bytes_ / 2;
  std::size_t tile = budget / bytes_per_section;
  // Tiny tiles pay sweep-restart overhead faster than they save misses.
  if (tile < 256) tile = 256;
  if (tile >= sections) return 0;  // whole tree fits: untiled
  return tile;
}

KernelPlan KernelTuner::analysis_plan(std::size_t sections,
                                      std::size_t samples) const {
  if (forced_.has_value()) return *forced_;
  KernelPlan plan;
  plan.lane_width = width_for_lanes(samples, 4);
  // Per section a two-pass sweep touches the r/l/c rows plus the
  // ctot/sr/sl lane blocks (6 doubles per lane) and a parent index.
  plan.tile_rows =
      tile_for(sections, 6 * sizeof(double) * plan.lane_width + 4);
  return plan;
}

KernelPlan KernelTuner::sim_plan(std::size_t sections,
                                 std::size_t runs) const {
  if (forced_.has_value()) return *forced_;
  KernelPlan plan;
  plan.lane_width = width_for_lanes(runs, 4);
  // Per section a transient step touches the seven state blocks, five
  // factor blocks, and the parent index.
  plan.tile_rows =
      tile_for(sections, 12 * sizeof(double) * plan.lane_width + 4);
  return plan;
}

}  // namespace relmore::util
