#pragma once

/// \file synthetic.hpp
/// Deterministic synthetic design generation for benches and tests:
/// buffered chains over a small set of repeated wire topologies, sized to
/// corpus scale (the throughput bench loads >= 1000 nets).
///
/// The generator emits corpus *text* and parses it through
/// read_design_checked — so the reader is on the measured path, the
/// output doubles as fuzz-seed material, and the design is by construction
/// reproducible from (spec).

#include <cstdint>
#include <string>

#include "relmore/sta/design.hpp"
#include "relmore/util/diagnostics.hpp"

namespace relmore::sta {

/// Shape of the generated corpus.
struct SyntheticSpec {
  std::size_t nets = 1000;        ///< total nets (>= 2)
  std::uint64_t seed = 1;         ///< value-perturbation seed
  std::size_t topo_classes = 8;   ///< distinct wire topologies; nets cycle
                                  ///< through them
  std::size_t chain_depth = 4;    ///< nets per input->output chain
  double clock_period = 2e-9;     ///< endpoint constraint [s]
};

/// The corpus text for `spec` (see design.hpp for the format).
[[nodiscard]] std::string make_synthetic_design_text(const SyntheticSpec& spec = {});

/// Generates + parses. kInvalidArgument when spec.nets < 2 or
/// spec.chain_depth == 0.
[[nodiscard]] util::Result<Design> make_synthetic_design_checked(const SyntheticSpec& spec = {});

}  // namespace relmore::sta
