#include "relmore/timer.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <ostream>
#include <utility>
#include <vector>

namespace relmore {

using util::ErrorCode;
using util::Result;
using util::Status;

namespace {

/// Positions of `items` sorted by name; the sort is stable, so the first
/// of equal names leads. 4 bytes an entry, no name copied.
template <typename T>
std::vector<int> positions_by_name(const std::vector<T>& items) {
  std::vector<int> order(items.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return items[static_cast<std::size_t>(a)].name < items[static_cast<std::size_t>(b)].name;
  });
  return order;
}

/// Position of the first item named `name`, or -1: the answer of a
/// front-to-back scan, by binary search over `order`.
template <typename T>
int find_by_name(const std::vector<T>& items, const std::vector<int>& order,
                 const std::string& name) {
  const auto it = std::lower_bound(order.begin(), order.end(), name,
                                   [&](int i, const std::string& key) {
                                     return items[static_cast<std::size_t>(i)].name < key;
                                   });
  return it != order.end() && items[static_cast<std::size_t>(*it)].name == name ? *it : -1;
}

}  // namespace

/// Edits change values, cells and required times, never a name or the
/// number of nets, instances or ports, so the index built here stays valid
/// until the next load replaces the whole object.
struct Timer::Loaded {
  explicit Loaded(sta::Design d)
      : design(std::move(d)),
        nets(positions_by_name(design.nets)),
        instances(positions_by_name(design.instances)),
        ports(positions_by_name(design.ports)) {}

  [[nodiscard]] int find_net(const std::string& name) const {
    return find_by_name(design.nets, nets, name);
  }
  [[nodiscard]] int find_instance(const std::string& name) const {
    return find_by_name(design.instances, instances, name);
  }
  [[nodiscard]] int find_port(const std::string& name) const {
    return find_by_name(design.ports, ports, name);
  }

  sta::Design design;
  std::vector<int> nets;
  std::vector<int> instances;
  std::vector<int> ports;
};

Timer::Timer() = default;
Timer::~Timer() = default;
Timer::Timer(Timer&&) noexcept = default;
Timer& Timer::operator=(Timer&&) noexcept = default;

Status Timer::load(std::istream& is, sta::CellLibrary library, util::DiagnosticsReport* report) {
  Result<sta::Design> design = sta::read_design_checked(is, std::move(library), report);
  if (!design.is_ok()) return design.status();
  return load(std::move(design).value());
}

Status Timer::load(sta::Design design) {
  // Reject before replacing: a failed load keeps the previous design.
  Result<sta::TimingGraph> graph = sta::TimingGraph::build_checked(design);
  if (!graph.is_ok()) return graph.status();
  loaded_ = std::make_unique<Loaded>(std::move(design));
  result_.reset();
  cache_.clear();
  engines_.clear();
  return Status::ok();
}

const sta::Design* Timer::design() const {
  return loaded_ != nullptr ? &loaded_->design : nullptr;
}

Result<sta::TimingSummary> Timer::analyze(const sta::AnalyzeOptions& options) {
  if (loaded_ == nullptr) {
    return Status(ErrorCode::kInvalidArgument, "Timer: no design loaded");
  }
  Result<sta::TimingGraph> graph = sta::TimingGraph::build_checked(loaded_->design);
  if (!graph.is_ok()) return graph.status();
  // The Timer's own cache rides along unless the caller plugged one in.
  // Injected per call (not stored in options_) so a moved Timer never
  // leaves a stale pointer to the old object's member behind.
  sta::AnalyzeOptions effective = options;
  if (effective.cache == nullptr) effective.cache = &cache_;
  Result<sta::TimingResult> result = graph.value().analyze_checked(effective);
  if (!result.is_ok()) return result.status();
  result_ = std::move(result).value();
  options_ = options;
  return result_->summary;
}

Status Timer::ensure_analyzed() {
  // A deadline/cancel-stopped result is queryable but not a valid cache:
  // re-analyze so a transient stop never pins partial timing forever.
  if (result_.has_value() && result_->stop_status.is_ok()) return Status::ok();
  Result<sta::TimingSummary> summary = analyze(options_);
  return summary.is_ok() ? Status::ok() : summary.status();
}

Result<double> Timer::slack(const std::string& endpoint) {
  if (loaded_ == nullptr) {
    return Status(ErrorCode::kInvalidArgument, "Timer: no design loaded");
  }
  if (Status s = ensure_analyzed(); !s.is_ok()) return s;
  return sta::endpoint_slack_checked(loaded_->design, *result_, endpoint);
}

Result<std::vector<sta::PathReport>> Timer::report_worst_paths(std::size_t k) {
  if (loaded_ == nullptr) {
    return Status(ErrorCode::kInvalidArgument, "Timer: no design loaded");
  }
  if (Status s = ensure_analyzed(); !s.is_ok()) return s;
  return sta::worst_paths_checked(loaded_->design, *result_, k);
}

Status Timer::report_timing(std::ostream& os, std::size_t k) {
  Result<std::vector<sta::PathReport>> paths = report_worst_paths(k);
  if (!paths.is_ok()) return paths.status();
  os << sta::format_summary(result_->summary) << "\n";
  for (const sta::PathReport& path : paths.value()) {
    os << sta::format_path(path) << "\n";
  }
  return Status::ok();
}

const sta::TimingResult* Timer::result() const {
  return result_.has_value() ? &*result_ : nullptr;
}

// --- what-if edits ---------------------------------------------------------

Timer::Edit Timer::edit() {
  return Edit(this, loaded_.get(), loaded_ != nullptr ? loaded_->design.epoch : 0);
}

Result<engine::TimingEngine*> Timer::engine_for(int net_index) {
  auto it = engines_.find(net_index);
  if (it == engines_.end()) {
    const sta::Net& net = loaded_->design.nets[static_cast<std::size_t>(net_index)];
    Result<engine::TimingEngine> eng = engine::TimingEngine::create_checked(net.tree);
    if (!eng.is_ok()) return eng.status().with_net(net.name);
    it = engines_.emplace(net_index, std::move(eng).value()).first;
  }
  return &it->second;
}

Status Timer::Edit::set_net_section_values(const std::string& net, const std::string& section,
                                           const circuit::SectionValues& wire) {
  if (loaded_ == nullptr) return Status(ErrorCode::kInvalidArgument, "edit: no design loaded");
  if (done_) return Status(ErrorCode::kTransactionState, "edit: handle already committed");
  const int ni = loaded_->find_net(net);
  if (ni < 0) {
    return Status(ErrorCode::kInvalidArgument, "edit: unknown net").with_net(net);
  }
  const circuit::SectionId sid =
      loaded_->design.nets[static_cast<std::size_t>(ni)].tree.find_by_name(section);
  if (sid < 0) {
    return Status(ErrorCode::kInvalidArgument, "edit: net has no section named '" + section + "'")
        .with_net(net);
  }
  for (const double v : {wire.resistance, wire.inductance, wire.capacitance}) {
    if (!util::valid_element_value(v)) {
      return Status(ErrorCode::kInvalidArgument,
                    "edit: section values must be finite and non-negative")
          .with_net(net);
    }
  }
  Op op;
  op.kind = OpKind::kValue;
  op.net = ni;
  op.section = sid;
  op.wire = wire;
  ops_.push_back(op);
  return Status::ok();
}

Status Timer::Edit::set_cell(const std::string& instance, const std::string& cell) {
  if (loaded_ == nullptr) return Status(ErrorCode::kInvalidArgument, "edit: no design loaded");
  if (done_) return Status(ErrorCode::kTransactionState, "edit: handle already committed");
  const int inst = loaded_->find_instance(instance);
  if (inst < 0) {
    return Status(ErrorCode::kInvalidArgument, "edit: unknown instance").with_net(instance);
  }
  const int ci = loaded_->design.library.find(cell);
  if (ci < 0) {
    return Status(ErrorCode::kInvalidArgument, "edit: unknown cell '" + cell + "'")
        .with_net(instance);
  }
  Op op;
  op.kind = OpKind::kCell;
  op.instance = inst;
  op.cell = ci;
  ops_.push_back(op);
  return Status::ok();
}

Status Timer::Edit::set_port_required(const std::string& port, double required) {
  if (loaded_ == nullptr) return Status(ErrorCode::kInvalidArgument, "edit: no design loaded");
  if (done_) return Status(ErrorCode::kTransactionState, "edit: handle already committed");
  const int pi = loaded_->find_port(port);
  if (pi < 0) {
    return Status(ErrorCode::kInvalidArgument, "edit: unknown port").with_net(port);
  }
  if (loaded_->design.ports[static_cast<std::size_t>(pi)].is_input) {
    return Status(ErrorCode::kInvalidArgument, "edit: '" + port + "' is not an output port")
        .with_net(port);
  }
  if (!std::isfinite(required)) {
    return Status(ErrorCode::kInvalidArgument, "edit: required time must be finite").with_net(port);
  }
  Op op;
  op.kind = OpKind::kPort;
  op.port = pi;
  op.value = required;
  ops_.push_back(op);
  return Status::ok();
}

Status Timer::Edit::set_clock_period(double period) {
  if (loaded_ == nullptr) return Status(ErrorCode::kInvalidArgument, "edit: no design loaded");
  if (done_) return Status(ErrorCode::kTransactionState, "edit: handle already committed");
  if (!std::isfinite(period) || period < 0.0) {
    return Status(ErrorCode::kInvalidArgument, "edit: clock period must be finite and >= 0");
  }
  Op op;
  op.kind = OpKind::kClock;
  op.value = period;
  ops_.push_back(op);
  return Status::ok();
}

Result<Timer::EditOutcome> Timer::Edit::commit() {
  if (timer_ == nullptr) return Status(ErrorCode::kInvalidArgument, "edit: no design loaded");
  return timer_->commit_edit(*this, timer_->options_);
}

Result<Timer::EditOutcome> Timer::Edit::commit(const sta::AnalyzeOptions& options) {
  if (timer_ == nullptr) return Status(ErrorCode::kInvalidArgument, "edit: no design loaded");
  return timer_->commit_edit(*this, options);
}

Result<Timer::EditOutcome> Timer::commit_edit(Edit& edit, const sta::AnalyzeOptions& options) {
  if (edit.done_) {
    return Status(ErrorCode::kTransactionState, "edit: handle already committed");
  }
  if (loaded_ == nullptr || edit.loaded_ != loaded_.get() ||
      edit.epoch_ != loaded_->design.epoch) {
    return Status(ErrorCode::kInvalidArgument,
                  "edit: design changed since the handle was opened");
  }
  edit.done_ = true;  // consumed by this attempt, success or not
  sta::Design& design = loaded_->design;

  // Working cell assignment: cell ops apply sequentially, so later value
  // ops fold the pin caps the instance will have after the commit.
  std::vector<int> cell_of(design.instances.size());
  for (std::size_t i = 0; i < design.instances.size(); ++i) cell_of[i] = design.instances[i].cell;

  std::vector<int> touched;  // nets with an open engine transaction, first-touch order
  std::vector<char> fwd(design.nets.size(), 0);
  std::vector<char> bwd(design.nets.size(), 0);
  sta::UpdateSeeds seeds;

  const auto rollback_all = [&]() {
    for (const int ni : touched) engines_.at(ni).rollback();
  };
  const auto touch = [&](int ni) -> Result<engine::TimingEngine*> {
    Result<engine::TimingEngine*> eng = engine_for(ni);
    if (!eng.is_ok()) return eng;
    if (!eng.value()->in_transaction()) {
      eng.value()->begin_transaction();
      touched.push_back(ni);
    }
    return eng;
  };
  // The folded shunt C at `node` of net `ni`: raw wire C plus the pin cap
  // of every instance input tapping the node — the finalize fold, against
  // the working cell assignment, summed in tap order (finalize's order).
  const auto folded_cap = [&](int ni, circuit::SectionId node, double wire_c) {
    double c = wire_c;
    for (const sta::Net::Tap& tap : design.nets[static_cast<std::size_t>(ni)].taps) {
      if (tap.node == node && !tap.is_port) {
        const int ci = cell_of[static_cast<std::size_t>(tap.index)];
        c += design.library.cell(static_cast<std::size_t>(ci)).input_cap;
      }
    }
    return c;
  };

  // --- apply ops onto the per-net engines (journaled, rollback on error) --
  for (const Edit::Op& op : edit.ops_) {
    switch (op.kind) {
      case Edit::OpKind::kValue: {
        Result<engine::TimingEngine*> eng = touch(op.net);
        if (!eng.is_ok()) {
          rollback_all();
          return eng.status();
        }
        circuit::SectionValues v = op.wire;
        v.capacitance = folded_cap(op.net, op.section, op.wire.capacitance);
        try {
          eng.value()->set_section_values(op.section, v);
        } catch (const util::FaultError& e) {
          rollback_all();
          return e.status().with_net(design.nets[static_cast<std::size_t>(op.net)].name);
        }
        fwd[static_cast<std::size_t>(op.net)] = 1;
        break;
      }
      case Edit::OpKind::kCell: {
        const sta::Instance& inst = design.instances[static_cast<std::size_t>(op.instance)];
        const double old_cap =
            design.library.cell(static_cast<std::size_t>(cell_of[static_cast<std::size_t>(
                                    op.instance)]))
                .input_cap;
        const double new_cap = design.library.cell(static_cast<std::size_t>(op.cell)).input_cap;
        for (const sta::Instance::Pin& pin : inst.inputs) {
          Result<engine::TimingEngine*> eng = touch(pin.net);
          if (!eng.is_ok()) {
            rollback_all();
            return eng.status();
          }
          const sta::Net& in_net = design.nets[static_cast<std::size_t>(pin.net)];
          const circuit::SectionId node = in_net.taps[static_cast<std::size_t>(pin.tap)].node;
          circuit::SectionValues v = eng.value()->tree().section(node).v;
          // Exact inverse of the old fold, then the new fold, in this
          // order — bitwise-reproducible regardless of edit history.
          v.capacitance = v.capacitance - old_cap + new_cap;
          try {
            eng.value()->set_section_values(node, v);
          } catch (const util::FaultError& e) {
            rollback_all();
            return e.status().with_net(in_net.name);
          }
          fwd[static_cast<std::size_t>(pin.net)] = 1;
          // The swapped arc tables move this pin's required time even when
          // the output net's driver (required, constrained) pair does not.
          bwd[static_cast<std::size_t>(pin.net)] = 1;
        }
        fwd[static_cast<std::size_t>(inst.out_net)] = 1;
        cell_of[static_cast<std::size_t>(op.instance)] = op.cell;
        break;
      }
      case Edit::OpKind::kPort:
        bwd[static_cast<std::size_t>(design.ports[static_cast<std::size_t>(op.port)].net)] = 1;
        break;
      case Edit::OpKind::kClock:
        seeds.clock_changed = true;
        break;
    }
  }

  // --- commit: engines first, then the Design mirrors them ---------------
  for (const int ni : touched) {
    engines_.at(ni).commit();  // relmore-lint: allow(R1) engine commit() returns void
  }
  design.epoch += 1;
  for (const int ni : touched) {
    sta::Net& net = design.nets[static_cast<std::size_t>(ni)];
    const engine::TimingEngine& eng = engines_.at(ni);
    for (std::size_t i = 0; i < net.tree.size(); ++i) {
      net.tree.values(static_cast<circuit::SectionId>(i)) =
          eng.tree().section(static_cast<circuit::SectionId>(i)).v;
    }
    net.flat = circuit::FlatTree(net.tree);
    net.epoch = design.epoch;
    net.total_cap = net.tree.total_capacitance();
  }
  for (const Edit::Op& op : edit.ops_) {
    if (op.kind == Edit::OpKind::kPort) {
      sta::DesignPort& port = design.ports[static_cast<std::size_t>(op.port)];
      port.required = op.value;
      port.has_required = true;
    } else if (op.kind == Edit::OpKind::kClock) {
      design.clock_period = op.value;
    }
  }
  for (std::size_t i = 0; i < design.instances.size(); ++i) design.instances[i].cell = cell_of[i];

  // --- restamp the cache at the new epoch from the engines' O(depth)
  // node models (bitwise-identical to eed::analyze of the mirrored tree,
  // the engine contract). A degenerate model is conservatively NOT stored
  // — the next analyze recomputes the net with full fault handling — and
  // disables the in-place re-time (its cone could not be served).
  bool can_update = true;
  const std::uint64_t fingerprint = sta::options_fingerprint(options);
  for (const int ni : touched) {
    const sta::Net& net = design.nets[static_cast<std::size_t>(ni)];
    const engine::TimingEngine& eng = engines_.at(ni);
    sta::NetModels models;
    models.taps.resize(net.taps.size());
    bool healthy = true;
    for (std::size_t t = 0; t < net.taps.size(); ++t) {
      const eed::NodeModel m = eng.node(net.taps[t].node);
      // zeta/omega_n are legitimately +inf for pure-RC nodes; NaN and
      // non-finite Elmore sums are what full analysis would flag.
      if (!std::isfinite(m.sum_rc) || !std::isfinite(m.sum_lc) || std::isnan(m.zeta) ||
          std::isnan(m.omega_n)) {
        healthy = false;
        break;
      }
      models.taps[t] = m;
    }
    if (!healthy) {
      can_update = false;
      continue;
    }
    models.analyzed = true;
    cache_.store(static_cast<std::size_t>(ni), net.epoch, fingerprint, std::move(models));
  }

  // --- re-time the cached analysis through the dirty cones ----------------
  for (std::size_t ni = 0; ni < design.nets.size(); ++ni) {
    if (fwd[ni] != 0) seeds.forward_nets.push_back(static_cast<int>(ni));
    if (bwd[ni] != 0) seeds.backward_nets.push_back(static_cast<int>(ni));
  }
  EditOutcome outcome;
  if (result_.has_value() && result_->stop_status.is_ok() && can_update) {
    Result<sta::TimingGraph> graph = sta::TimingGraph::build_checked(design);
    if (graph.is_ok()) {
      sta::AnalyzeOptions effective = options;
      if (effective.cache == nullptr) effective.cache = &cache_;
      Result<sta::UpdateStats> stats =
          graph.value().update_checked(*result_, *effective.cache, seeds, effective);
      if (stats.is_ok() && stats.value().stop_status.is_ok()) {
        outcome.incremental = true;
        outcome.stats = stats.value();
        return outcome;
      }
      if (stats.is_ok()) outcome.stats = stats.value();  // stopped: report why
    }
  }
  // Any fallback path: the old analysis no longer matches the design.
  result_.reset();
  return outcome;
}

}  // namespace relmore
