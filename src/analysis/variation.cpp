#include "relmore/analysis/variation.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "relmore/circuit/flat_tree.hpp"
#include "relmore/circuit/random_tree.hpp"
#include "relmore/eed/eed.hpp"
#include "relmore/eed/sensitivity.hpp"
#include "relmore/engine/batched.hpp"
#include "relmore/util/worker_pool.hpp"

namespace relmore::analysis {

using circuit::RlcTree;
using circuit::SectionId;

namespace {

/// Standard normal via Box-Muller on the repo's deterministic Rng,
/// truncated to +-3 for physical plausibility.
class GaussianSource {
 public:
  explicit GaussianSource(std::uint64_t seed) : rng_(seed) {}

  double next() {
    if (have_spare_) {
      have_spare_ = false;
      return clamp(spare_);
    }
    double u1 = rng_.uniform();
    if (u1 <= 1e-300) u1 = 1e-300;
    const double u2 = rng_.uniform();
    const double mag = std::sqrt(-2.0 * std::log(u1));
    spare_ = mag * std::sin(2.0 * M_PI * u2);
    have_spare_ = true;
    return clamp(mag * std::cos(2.0 * M_PI * u2));
  }

 private:
  static double clamp(double g) { return std::clamp(g, -3.0, 3.0); }
  circuit::Rng rng_;
  double spare_ = 0.0;
  bool have_spare_ = false;
};

double perturb(double nominal, double sigma, GaussianSource& gauss) {
  if (nominal == 0.0 || sigma == 0.0) return nominal;
  return std::max(0.01 * nominal, nominal * (1.0 + sigma * gauss.next()));
}

/// Per-sample RNG seed: deterministic in (seed, sample) so the sampled
/// distribution is independent of the number of worker threads and of the
/// order chunks are executed in.
std::uint64_t sample_seed(std::uint64_t seed, std::size_t sample) {
  return seed + 0x9E3779B97F4A7C15ULL * (static_cast<std::uint64_t>(sample) + 1);
}

}  // namespace

namespace {

DelayDistribution monte_carlo_delay_impl(const RlcTree& tree, SectionId node,
                                         const VariationSpec& spec, std::size_t samples,
                                         std::uint64_t seed, const MonteCarloPlan& plan) {
  if (samples < 2) throw std::invalid_argument("monte_carlo_delay: need >= 2 samples");
  const eed::TreeModel nominal_model = eed::analyze(tree);
  DelayDistribution out;
  out.nominal = eed::delay_50(nominal_model.at(node));
  out.samples = samples;

  // All samples share the tree's topology — the batched same-topology
  // kernel's shape, consumed through the streaming path: each sample's
  // values are drawn inside the kernel's per-group fill (seeded from the
  // sample index, so neither the lane width nor the pool's chunking can
  // change a single drawn value) and analyzed while still cache-hot;
  // only the queried node's models are stored.
  const circuit::FlatTree flat(tree);
  const std::size_t n = flat.size();
  engine::BatchedAnalyzer batch(flat, plan.lane_width);
  util::WorkerPool pool(plan.threads);
  const engine::BatchedModels models = batch.analyze_stream(
      samples,
      [&](std::size_t s, double* r, double* l, double* c) {
        GaussianSource gauss(sample_seed(seed, s));
        for (std::size_t k = 0; k < n; ++k) {
          r[k] = perturb(flat.resistance()[k], spec.sigma_resistance, gauss);
          l[k] = perturb(flat.inductance()[k], spec.sigma_inductance, gauss);
          c[k] = perturb(flat.capacitance()[k], spec.sigma_capacitance, gauss);
        }
      },
      {node}, &pool);
  std::vector<double> delays(samples);
  for (std::size_t s = 0; s < samples; ++s) delays[s] = models.delay_50(s, node);

  double sum = 0.0;
  out.min = delays.front();
  out.max = delays.front();
  for (double d : delays) {
    sum += d;
    out.min = std::min(out.min, d);
    out.max = std::max(out.max, d);
  }
  out.mean = sum / static_cast<double>(samples);
  double var = 0.0;
  for (double d : delays) var += (d - out.mean) * (d - out.mean);
  out.stddev = std::sqrt(var / static_cast<double>(samples - 1));
  std::sort(delays.begin(), delays.end());
  const auto idx = static_cast<std::size_t>(0.95 * static_cast<double>(samples - 1));
  out.q95 = delays[idx];
  return out;
}

}  // namespace

util::Result<DelayDistribution> monte_carlo_delay_checked(const RlcTree& tree, SectionId node,
                                                          const MonteCarloOptions& options) {
  if (tree.empty()) {
    return util::Status(util::ErrorCode::kEmptyTree, "monte_carlo_delay: empty tree");
  }
  if (node < 0 || static_cast<std::size_t>(node) >= tree.size()) {
    return util::Status(util::ErrorCode::kInvalidArgument,
                        "monte_carlo_delay: node id out of range", static_cast<int>(node));
  }
  if (options.samples < 2) {
    return util::Status(util::ErrorCode::kInvalidArgument,
                        "monte_carlo_delay: need >= 2 samples");
  }
  try {
    return monte_carlo_delay_impl(tree, node, options.spec, options.samples, options.seed,
                                  options.plan);
  } catch (const util::FaultError& e) {
    return e.status();
  } catch (const std::invalid_argument& e) {
    return util::Status(util::ErrorCode::kInvalidArgument, e.what());
  }
}

DelayDistribution monte_carlo_delay(const RlcTree& tree, SectionId node,
                                    const MonteCarloOptions& options) {
  return monte_carlo_delay_checked(tree, node, options).value();
}

double delay_stddev_linear(const RlcTree& tree, SectionId node, const VariationSpec& spec) {
  const eed::SensitivityReport rep = eed::delay_sensitivity(tree, node);
  double var = 0.0;
  for (std::size_t k = 0; k < tree.size(); ++k) {
    const auto& v = tree.section(static_cast<SectionId>(k)).v;
    const auto& s = rep.sections[k];
    const double dr = s.d_resistance * spec.sigma_resistance * v.resistance;
    const double dl = s.d_inductance * spec.sigma_inductance * v.inductance;
    const double dc = s.d_capacitance * spec.sigma_capacitance * v.capacitance;
    var += dr * dr + dl * dl + dc * dc;
  }
  return std::sqrt(var);
}

}  // namespace relmore::analysis
