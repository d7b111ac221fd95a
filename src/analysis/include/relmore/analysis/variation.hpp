#pragma once

/// \file variation.hpp
/// Process-variation analysis on top of the closed-form delay: Monte-Carlo
/// sampling (the closed form is ~10^4x cheaper than simulation, so large
/// sample counts are free) and the first-order linear estimate built from
/// the closed-form delay gradient (relmore::eed::delay_sensitivity). The
/// agreement of the two is itself a consistency check of the gradient.

#include <cstdint>
#include <vector>

#include "relmore/circuit/rlc_tree.hpp"
#include "relmore/util/diagnostics.hpp"

namespace relmore::analysis {

/// Relative 1-sigma variation per element class (independent Gaussian per
/// section, truncated at +-3 sigma; element values never drop below 1% of
/// nominal).
struct VariationSpec {
  double sigma_resistance = 0.1;
  double sigma_inductance = 0.05;
  double sigma_capacitance = 0.1;
};

/// Summary of a sampled delay distribution.
struct DelayDistribution {
  double nominal = 0.0;
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double max = 0.0;
  double q95 = 0.0;  ///< 95th percentile (timing sign-off corner)
  std::size_t samples = 0;
};

/// Execution-plan knobs for the Monte-Carlo sampler. Samples share one
/// topology, so they run through the batched same-topology kernel
/// (engine::BatchedAnalyzer) with lane-groups fanned across an
/// util::WorkerPool. Per-sample RNG seeding and per-lane
/// scalar-identical arithmetic make the sampled distribution *bitwise*
/// independent of both knobs — they change only the schedule.
struct MonteCarloPlan {
  unsigned threads = 0;        ///< WorkerPool worker count (0 = default)
  std::size_t lane_width = 0;  ///< kernel lane width 1/2/4/8 (0 = default)
};

/// All Monte-Carlo knobs in one place.
struct MonteCarloOptions {
  VariationSpec spec;          ///< per-element-class 1-sigma variation
  std::size_t samples = 1000;  ///< sample count (>= 2)
  std::uint64_t seed = 1;      ///< RNG seed; the distribution is deterministic in it
  MonteCarloPlan plan;         ///< execution schedule (never changes results)
};

/// Monte-Carlo delay distribution at `node`, using the closed-form EED
/// delay per sample. Deterministic in options.seed, bitwise-independent of
/// options.plan. Returns a structured Status (empty tree, bad node id,
/// samples < 2, degenerate moments under kThrow) instead of throwing.
[[nodiscard]] util::Result<DelayDistribution> monte_carlo_delay_checked(
    const circuit::RlcTree& tree, circuit::SectionId node, const MonteCarloOptions& options = {});

/// Exception-compatible shim over monte_carlo_delay_checked: throws
/// util::FaultError on any rejected input.
DelayDistribution monte_carlo_delay(const circuit::RlcTree& tree, circuit::SectionId node,
                                    const MonteCarloOptions& options = {});

/// First-order standard deviation from the closed-form gradient:
/// sigma_D^2 = sum_k (dD/dX_k * sigma_X * X_k)^2 over X in {R, L, C}.
double delay_stddev_linear(const circuit::RlcTree& tree, circuit::SectionId node,
                           const VariationSpec& spec);

}  // namespace relmore::analysis
