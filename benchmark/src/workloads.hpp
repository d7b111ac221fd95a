#pragma once

/// \file workloads.hpp
/// The four benchmark workloads behind one interface: set up once, then a
/// closed loop of ops on one client thread, each op checked after its
/// timer stops. Spans wrap the public library calls each op makes; the
/// probe phase after the loop times finer public calls on the same inputs.

#include <cstdint>
#include <memory>
#include <string>

#include "relmore/sta/corpus.hpp"
#include "relmore/util/diagnostics.hpp"

#include "generate.hpp"
#include "trace.hpp"

namespace bench {

struct RunConfig {
  relmore::sta::AnalyzeOptions deployed;  ///< what every timed op runs with
  relmore::sta::AnalyzeOptions oracle;    ///< scalar reference: 1 thread, 1 lane, no batching
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Loads what the ops reuse.
  [[nodiscard]] virtual relmore::util::Status setup(Trace& trace) = 0;
  /// One timed op. It starts by dropping the previous op's state, so
  /// teardown is timed as part of the flow.
  [[nodiscard]] virtual relmore::util::Status op(Trace& trace) = 0;
  /// True when every op yields the same result (its digest is then checked
  /// against the first op's on every op); false when ops mutate the design.
  [[nodiscard]] virtual bool result_repeats() const = 0;
  /// Digest of the last op's result.
  [[nodiscard]] virtual std::uint64_t digest() const = 0;
  /// Digest of a from-scratch oracle analysis of the last op's design.
  [[nodiscard]] virtual relmore::util::Result<std::uint64_t> oracle_digest() const = 0;
  /// Times finer public calls on the workload's inputs (trace runs only).
  [[nodiscard]] virtual relmore::util::Status probe(Trace& trace) = 0;
};

/// nullptr for an unknown name. `design` and `config` must outlive the
/// workload.
[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name,
                                                      const GeneratedDesign& design,
                                                      const RunConfig& config,
                                                      std::uint64_t seed);

/// The generator input of workload `name` (empty text for an unknown name).
[[nodiscard]] GeneratedDesign generate_for(const std::string& name, std::uint64_t seed);

}  // namespace bench
