// relmore-lint: fixture
// relmore-lint: layer(eed)
// Seeded R5 violation: a file of the eed layer that includes the
// simulator. relmore_eed links only relmore_circuit and relmore_util
// (src/eed/CMakeLists.txt), so the sim include reaches a layer eed does
// not link — the edge that once closed the eed -> sim -> engine -> eed
// cycle. The util include is a direct link and stays legal.
// relmore-lint must exit nonzero.

#include "relmore/sim/waveform.hpp"
#include "relmore/util/diagnostics.hpp"

relmore::sim::Waveform sampled_step();
