// libFuzzer harness for circuit::read_tree_netlist(_checked).
//
// Invariants checked (abort on violation):
//  - the checked reader never throws;
//  - an accepted tree passes circuit::validate (the reader's postcondition);
//  - an accepted tree analyzes without an exception under kSkipAndFlag and
//    constructs a TimingEngine (the reader feeds the engines directly)
//    whose every node has the bits of that analysis;
//  - write -> read is a fixed point after one cycle: the first round trip
//    may quantize values (the writer prints 6 significant digits), but the
//    second must reproduce the first bitwise.

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <sstream>
#include <string>

#include "relmore/circuit/netlist.hpp"
#include "relmore/circuit/rlc_tree.hpp"
#include "relmore/circuit/validate.hpp"
#include "relmore/eed/model.hpp"
#include "relmore/engine/timing_engine.hpp"
#include "relmore/util/diagnostics.hpp"

namespace rc = relmore::circuit;

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
  if (size > 65536) return 0;
  const std::string text(reinterpret_cast<const char*>(data), size);

  relmore::util::Result<rc::RlcTree> parsed(rc::RlcTree{});
  try {
    std::istringstream is(text);
    parsed = rc::read_tree_netlist_checked(is);
  } catch (...) {
    std::abort();  // the checked API promises "never throws"
  }
  if (!parsed.is_ok()) return 0;

  const rc::RlcTree& tree = parsed.value();
  if (!rc::validate(tree).is_ok()) std::abort();  // reader postcondition

  try {
    relmore::eed::AnalyzeOptions opts;
    opts.fault_policy = relmore::util::FaultPolicy::kSkipAndFlag;
    const relmore::eed::TreeModel fresh = relmore::eed::analyze(tree, opts);
    const relmore::engine::TimingEngine engine(tree);
    const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
    for (std::size_t i = 0; i < tree.size(); ++i) {
      const relmore::eed::NodeModel got = engine.node(static_cast<rc::SectionId>(i));
      const relmore::eed::NodeModel& want = fresh.nodes[i];
      if (bits(got.sum_rc) != bits(want.sum_rc) || bits(got.sum_lc) != bits(want.sum_lc) ||
          bits(got.zeta) != bits(want.zeta) || bits(got.omega_n) != bits(want.omega_n)) {
        std::abort();  // the engine promises eed::analyze's bits
      }
    }
  } catch (...) {
    std::abort();  // a validated tree must analyze without throwing
  }

  // Round trip: parse(write(tree)) must succeed, and a second cycle must be
  // an exact fixed point of the first.
  std::ostringstream out1;
  rc::write_tree_netlist(tree, out1);
  std::istringstream in1(out1.str());
  const relmore::util::Result<rc::RlcTree> second = rc::read_tree_netlist_checked(in1);
  if (!second.is_ok()) std::abort();

  std::ostringstream out2;
  rc::write_tree_netlist(second.value(), out2);
  if (out2.str() != out1.str()) std::abort();
  return 0;
}
