#include "workloads.hpp"

#include <algorithm>
#include <bit>
#include <istream>
#include <optional>
#include <streambuf>
#include <string_view>
#include <utility>
#include <vector>

#include "relmore/circuit/flat_tree.hpp"
#include "relmore/circuit/netlist.hpp"
#include "relmore/eed/model.hpp"
#include "relmore/sta/design.hpp"
#include "relmore/sta/timing_graph.hpp"
#include "relmore/timer.hpp"

namespace bench {

namespace {

namespace circuit = relmore::circuit;
namespace eed = relmore::eed;
namespace sta = relmore::sta;
using relmore::Timer;
using relmore::util::Result;
using relmore::util::Status;

constexpr std::size_t kReportPaths = 10;
constexpr std::size_t kProbeEdits = 32;
constexpr std::size_t kProbePairs = 5;

/// Results nothing else reads are stored here, so no call is optimized out.
volatile std::size_t g_sink = 0;

/// Read-only stream over text owned elsewhere: the library reads the
/// generated design in place, with no copy landing inside a span.
struct TextBuf : std::streambuf {
  explicit TextBuf(std::string_view text) {
    char* p = const_cast<char*>(text.data());
    setg(p, p, p + text.size());
  }
};

class TextStream : private TextBuf, public std::istream {
 public:
  explicit TextStream(std::string_view text)
      : TextBuf(text), std::istream(static_cast<TextBuf*>(this)) {}
};

/// FNV-1a over the bit patterns of WNS, TNS and every endpoint row.
std::uint64_t summary_digest(const sta::TimingSummary& summary) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  const auto mix = [&h](std::uint64_t word) {
    for (int b = 0; b < 8; ++b) {
      h ^= (word >> (8 * b)) & 0xFFU;
      h *= 0x100000001B3ULL;
    }
  };
  mix(std::bit_cast<std::uint64_t>(summary.wns));
  mix(std::bit_cast<std::uint64_t>(summary.tns));
  for (const sta::EndpointSlack& e : summary.endpoints_by_slack) {
    mix(static_cast<std::uint64_t>(e.port));
    mix(e.timed ? 1U : 0U);
    mix(std::bit_cast<std::uint64_t>(e.slack));
  }
  return h;
}

Result<std::uint64_t> oracle_digest_of(const sta::Design& design, const RunConfig& config) {
  Result<sta::TimingGraph> graph = sta::TimingGraph::build_checked(design);
  if (!graph.is_ok()) return graph.status();
  Result<sta::TimingResult> result = graph.value().analyze_checked(config.oracle);
  if (!result.is_ok()) return result.status();
  return summary_digest(result.value().summary);
}

Result<std::unique_ptr<sta::Design>> read_design(Trace& trace, const std::string& text) {
  TextStream is(text);
  auto span = trace.span("sta.design.read");
  Result<sta::Design> design = sta::read_design_checked(is);
  if (!design.is_ok()) return design.status();
  return std::make_unique<sta::Design>(std::move(design).value());
}

/// The report a user reads: the k worst paths, formatted with the summary.
Status report(Trace& trace, const sta::Design& design, const sta::TimingResult& result) {
  auto worst = trace.span("sta.report.worst_paths");
  Result<std::vector<sta::PathReport>> paths =
      sta::worst_paths_checked(design, result, kReportPaths);
  worst.end();
  if (!paths.is_ok()) return paths.status();
  auto format = trace.span("sta.report.format");
  std::string text = sta::format_summary(result.summary);
  for (const sta::PathReport& path : paths.value()) text += sta::format_path(path);
  g_sink = text.size();
  return Status::ok();
}

Status load_timer(Trace& trace, Timer& timer, const GeneratedDesign& g,
                  const RunConfig& config) {
  TextStream is(g.text);
  {
    auto span = trace.span("sta.timer.load");
    if (Status s = timer.load(is); !s.is_ok()) return s;
  }
  auto span = trace.span("sta.timer.analyze");
  Result<sta::TimingSummary> summary = timer.analyze(config.deployed);
  return summary.is_ok() ? Status::ok() : summary.status();
}

/// The what-if client: per op one Timer::edit() transaction of 1-4 wire
/// edits, a buf_x1<->buf_x4 swap with probability 1/4 and a new required
/// time with probability 1/20, then one slack query and the worst path.
class EditLoop {
 public:
  EditLoop(Timer& timer, const GeneratedDesign& g, std::uint64_t seed)
      : timer_(timer), g_(g), rng_{seed ^ 0xED175EEDULL}, is_x4_(g.buffer_is_x4) {
    std::size_t sections = 0;
    for (const NetInfo& net : g.nets) sections = std::max(sections, net.sections);
    for (std::size_t i = 0; i < sections; ++i) {
      section_names_.push_back(std::string("s").append(std::to_string(i)));
    }
  }

  Status op(Trace& trace) {
    auto record = trace.span("sta.timer.record");
    Timer::Edit edit = timer_.edit();
    const std::size_t values = 1 + rng_.below(4);
    for (std::size_t v = 0; v < values; ++v) {
      const NetInfo& net = g_.nets[rng_.below(g_.nets.size())];
      const WireRange& w = g_.wire;
      circuit::SectionValues wire;
      wire.resistance = w.r_lo + (w.r_hi - w.r_lo) * rng_.unit();
      wire.inductance = net.rlc ? w.l_hi * (0.5 + rng_.unit()) : 0.0;
      wire.capacitance = w.c_lo + (w.c_hi - w.c_lo) * rng_.unit();
      const std::string& section = section_names_[rng_.below(net.sections)];
      if (Status s = edit.set_net_section_values(net.name, section, wire); !s.is_ok()) return s;
    }
    std::optional<std::size_t> swapped;
    if (!g_.buffers.empty() && rng_.below(4) == 0) {
      swapped = rng_.below(g_.buffers.size());
      const char* cell = is_x4_[*swapped] ? "buf_x1" : "buf_x4";
      if (Status s = edit.set_cell(g_.buffers[*swapped], cell); !s.is_ok()) return s;
    }
    if (rng_.below(20) == 0) {
      const std::string& port = g_.endpoints[rng_.below(g_.endpoints.size())];
      const double required = g_.clock_period * (0.9 + 0.2 * rng_.unit());
      if (Status s = edit.set_port_required(port, required); !s.is_ok()) return s;
    }
    record.end();

    auto commit = trace.span("sta.timer.commit");
    Result<Timer::EditOutcome> outcome = edit.commit();
    commit.end();
    if (!outcome.is_ok()) return outcome.status();
    const sta::UpdateStats& stats = outcome.value().stats;
    commit.arg("incremental", outcome.value().incremental ? 1.0 : 0.0);
    commit.arg("forward_retimed", static_cast<double>(stats.forward_retimed));
    commit.arg("backward_retimed", static_cast<double>(stats.backward_retimed));
    commit.arg("frontier_cutoffs", static_cast<double>(stats.frontier_cutoffs));
    if (swapped) is_x4_[*swapped] = !is_x4_[*swapped];

    auto query = trace.span("sta.timer.query");
    const std::string& endpoint = g_.endpoints[rng_.below(g_.endpoints.size())];
    if (Result<double> slack = timer_.slack(endpoint); !slack.is_ok()) return slack.status();
    Result<std::vector<sta::PathReport>> worst = timer_.report_worst_paths(1);
    return worst.is_ok() ? Status::ok() : worst.status();
  }

  void record_cache_counters(Trace& trace) const {
    auto span = trace.span("sta.timer.cache");
    const sta::CorpusCache::Counters& c = timer_.cache().counters();
    span.arg("hits", static_cast<double>(c.hits));
    span.arg("misses", static_cast<double>(c.misses));
  }

 private:
  Timer& timer_;
  const GeneratedDesign& g_;
  Rng rng_;
  std::vector<bool> is_x4_;  ///< each buffer's current cell
  std::vector<std::string> section_names_;
};

/// Times the layers under one load + analyze, one public call at a time,
/// on the workload's own design text.
Status probe_layers(Trace& trace, const GeneratedDesign& g, const RunConfig& config) {
  auto probe = trace.span("probe");
  Result<std::unique_ptr<sta::Design>> read = read_design(trace, g.text);
  if (!read.is_ok()) return read.status();
  const sta::Design& design = *read.value();
  const auto nets = static_cast<double>(design.nets.size());
  {
    auto span = trace.span("circuit.netlist.read");
    span.arg("nets", nets);
    for (std::size_t i = 0; i < g.nets.size(); ++i) {
      TextStream is(g.block(i));
      Result<circuit::RlcTree> tree = circuit::read_tree_netlist_checked(is);
      if (!tree.is_ok()) return tree.status();
      g_sink = tree.value().size();
    }
  }
  {
    auto span = trace.span("circuit.flat_tree.snapshot");
    span.arg("nets", nets);
    for (const sta::Net& net : design.nets) g_sink = circuit::FlatTree(net.tree).size();
  }
  {
    auto span = trace.span("eed.analyze");
    span.arg("nets", nets);
    for (const sta::Net& net : design.nets) {
      Result<eed::TreeModel> model = eed::analyze_checked(net.flat);
      if (!model.is_ok()) return model.status();
      g_sink = model.value().nodes.size();
    }
  }
  auto build = trace.span("sta.timing_graph.build");
  Result<sta::TimingGraph> graph = sta::TimingGraph::build_checked(design);
  build.end();
  if (!graph.is_ok()) return graph.status();
  // Propagation is analyze - corpus, which on the large nets is a small
  // difference of two larger times: take it from adjacent pairs, repeated.
  std::optional<sta::TimingResult> result;
  for (std::size_t r = 0; r < kProbePairs; ++r) {
    auto corpus = trace.span("sta.corpus.analyze");
    Result<sta::CorpusModels> models = sta::analyze_corpus_checked(design, config.deployed);
    corpus.end();
    if (!models.is_ok()) return models.status();
    const sta::CorpusModels& m = models.value();
    std::size_t analyzed_nets = 0;
    for (const sta::NetModels& net : m.nets) analyzed_nets += net.analyzed ? 1 : 0;
    corpus.arg("batched", static_cast<double>(m.batched_nets));
    corpus.arg("scalar", static_cast<double>(analyzed_nets - m.batched_nets));
    corpus.arg("fallback", static_cast<double>(m.fallback_nets));
    corpus.arg("faulted", static_cast<double>(m.faulted_nets));

    auto analyze = trace.span("sta.timing_graph.analyze");
    Result<sta::TimingResult> timing = graph.value().analyze_checked(config.deployed);
    analyze.end();
    if (!timing.is_ok()) return timing.status();
    result = std::move(timing).value();
  }
  return report(trace, design, *result);
}

/// signoff and reanalyze_*: analyze -> report on a design loaded per op
/// (signoff, the cold flow) or once during setup (reanalyze).
class AnalyzeFlow final : public Workload {
 public:
  AnalyzeFlow(const GeneratedDesign& g, const RunConfig& config, std::uint64_t seed,
              bool load_per_op)
      : g_(g), config_(config), seed_(seed), load_per_op_(load_per_op) {}

  Status setup(Trace& trace) override { return load_per_op_ ? Status::ok() : load(trace); }

  Status op(Trace& trace) override {
    {
      auto span = trace.span("teardown");
      result_.reset();
      if (load_per_op_) {
        graph_.reset();
        design_.reset();
      }
    }
    if (load_per_op_) {
      if (Status s = load(trace); !s.is_ok()) return s;
    }
    auto span = trace.span("sta.timing_graph.analyze");
    Result<sta::TimingResult> result = graph_->analyze_checked(config_.deployed);
    span.end();
    if (!result.is_ok()) return result.status();
    result_ = std::move(result).value();
    return report(trace, *design_, *result_);
  }

  bool result_repeats() const override { return true; }
  std::uint64_t digest() const override { return summary_digest(result_->summary); }
  Result<std::uint64_t> oracle_digest() const override {
    return oracle_digest_of(*design_, config_);
  }

  Status probe(Trace& trace) override {
    if (Status s = probe_layers(trace, g_, config_); !s.is_ok()) return s;
    // The what-if layer, timed on this workload's design too.
    Timer timer;
    if (Status s = load_timer(trace, timer, g_, config_); !s.is_ok()) return s;
    EditLoop loop(timer, g_, seed_);
    for (std::size_t i = 0; i < kProbeEdits; ++i) {
      if (Status s = loop.op(trace); !s.is_ok()) return s;
    }
    loop.record_cache_counters(trace);
    return Status::ok();
  }

 private:
  Status load(Trace& trace) {
    Result<std::unique_ptr<sta::Design>> design = read_design(trace, g_.text);
    if (!design.is_ok()) return design.status();
    design_ = std::move(design).value();
    auto span = trace.span("sta.timing_graph.build");
    Result<sta::TimingGraph> graph = sta::TimingGraph::build_checked(*design_);
    if (!graph.is_ok()) return graph.status();
    graph_.emplace(std::move(graph).value());
    return Status::ok();
  }

  const GeneratedDesign& g_;
  const RunConfig& config_;
  std::uint64_t seed_;
  bool load_per_op_;
  std::unique_ptr<sta::Design> design_;  ///< stable address: graph_ points into it
  std::optional<sta::TimingGraph> graph_;
  std::optional<sta::TimingResult> result_;
};

/// whatif: Timer::load + analyze in setup, then one edit transaction and
/// one read per op.
class WhatIf final : public Workload {
 public:
  WhatIf(const GeneratedDesign& g, const RunConfig& config, std::uint64_t seed)
      : g_(g), config_(config), loop_(timer_, g, seed) {}

  Status setup(Trace& trace) override { return load_timer(trace, timer_, g_, config_); }
  Status op(Trace& trace) override { return loop_.op(trace); }
  bool result_repeats() const override { return false; }
  std::uint64_t digest() const override {
    return timer_.result() != nullptr ? summary_digest(timer_.result()->summary) : 0;
  }
  Result<std::uint64_t> oracle_digest() const override {
    return oracle_digest_of(*timer_.design(), config_);
  }
  Status probe(Trace& trace) override {
    loop_.record_cache_counters(trace);
    return probe_layers(trace, g_, config_);
  }

 private:
  const GeneratedDesign& g_;
  const RunConfig& config_;
  Timer timer_;
  EditLoop loop_;  ///< after timer_, which it refers to
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name, const GeneratedDesign& design,
                                        const RunConfig& config, std::uint64_t seed) {
  if (name == "signoff") return std::make_unique<AnalyzeFlow>(design, config, seed, true);
  if (name == "reanalyze_small" || name == "reanalyze_large") {
    return std::make_unique<AnalyzeFlow>(design, config, seed, false);
  }
  if (name == "whatif") return std::make_unique<WhatIf>(design, config, seed);
  return nullptr;
}

GeneratedDesign generate_for(const std::string& name, std::uint64_t seed) {
  if (name == "signoff" || name == "reanalyze_small") return make_small(5000, seed);
  if (name == "reanalyze_large") return make_large(seed);
  if (name == "whatif") return make_small(20000, seed);
  return {};
}

}  // namespace bench
