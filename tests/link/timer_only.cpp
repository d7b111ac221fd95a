// A program that uses the Timer and nothing else. It links the STA's four
// archives by file — relmore_sta, relmore_eed, relmore_circuit and
// relmore_util, each once and in that order — so it links only while the
// STA rests on those three layers alone and they depend on each other
// only downward. It loads a small synthetic design, analyzes it and
// prints the worst negative slack.

#include <cmath>
#include <cstdio>
#include <sstream>

#include "relmore/sta/synthetic.hpp"
#include "relmore/timer.hpp"

int main() {
  relmore::sta::SyntheticSpec spec;
  spec.nets = 40;
  std::istringstream text(relmore::sta::make_synthetic_design_text(spec));
  relmore::Timer timer;
  if (const relmore::util::Status loaded = timer.load(text); !loaded.is_ok()) {
    std::fprintf(stderr, "load: %s\n", loaded.to_string().c_str());
    return 1;
  }
  const relmore::util::Result<relmore::sta::TimingSummary> summary = timer.analyze();
  if (!summary.is_ok()) {
    std::fprintf(stderr, "analyze: %s\n", summary.status().to_string().c_str());
    return 1;
  }
  const double wns = summary.value().wns;
  std::printf("wns %.9e s over %zu endpoints\n", wns, summary.value().endpoints);
  return std::isfinite(wns) && summary.value().endpoints > 0 ? 0 : 1;
}
