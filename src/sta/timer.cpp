#include "relmore/timer.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <new>
#include <optional>
#include <ostream>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace relmore {

using util::ErrorCode;
using util::Result;
using util::Status;

namespace {

/// One section value a commit will write. The ops stage their values
/// first — one entry per (net, section), holding the latest — so every op
/// is checked before the design changes.
struct StagedValue {
  int net = -1;
  circuit::SectionId section = circuit::kInput;
  circuit::SectionValues v;
};

/// A folded value the moment kernels cannot take: the raw wire values
/// passed the record-time check, but adding pin caps can overflow.
Status check_folded(const circuit::SectionValues& v, circuit::SectionId section) {
  for (const double x : {v.resistance, v.inductance, v.capacitance}) {
    if (util::valid_element_value(x)) continue;
    const bool non_finite = std::isnan(x) || std::isinf(x);
    return Status(non_finite ? ErrorCode::kNonFiniteValue : ErrorCode::kNegativeValue,
                  std::string("edit: ") + (non_finite ? "non-finite" : "negative") +
                      " element value in edit of section " + std::to_string(section),
                  section);
  }
  return Status::ok();
}

}  // namespace

/// Edits change values, cells and required times, never a name, a level or
/// the number of nets, instances or ports, so the graph built here and the
/// design's name tables stay valid until the next load replaces the whole
/// object.
struct Timer::Loaded {
  explicit Loaded(sta::Design d) : design(std::move(d)) {}

  sta::Design design;
  std::optional<sta::TimingGraph> graph;  ///< over `design`, set by Timer::load
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
  // Reject before replacing: a failed load keeps the previous design. The
  // graph points into the design, so it is built where the design will live.
  auto next = std::make_unique<Loaded>(std::move(design));
  Result<sta::TimingGraph> graph = sta::TimingGraph::build_checked(next->design);
  if (!graph.is_ok()) return graph.status();
  next->graph = std::move(graph).value();
  loaded_ = std::move(next);
  result_.reset();
  cache_.clear();
  return Status::ok();
}

const sta::Design* Timer::design() const {
  return loaded_ != nullptr ? &loaded_->design : nullptr;
}

Result<sta::TimingSummary> Timer::analyze(const sta::AnalyzeOptions& options) {
  if (loaded_ == nullptr) {
    return Status(ErrorCode::kInvalidArgument, "Timer: no design loaded");
  }
  // The Timer's own cache rides along unless the caller plugged one in.
  // Injected per call (not stored in options_) so a moved Timer never
  // leaves a stale pointer to the old object's member behind.
  sta::AnalyzeOptions effective = options;
  if (effective.cache == nullptr) effective.cache = &cache_;
  Result<sta::TimingResult> result = loaded_->graph->analyze_checked(effective);
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

Status Timer::Edit::set_net_section_values(const std::string& net, const std::string& section,
                                           const circuit::SectionValues& wire) {
  if (loaded_ == nullptr) return Status(ErrorCode::kInvalidArgument, "edit: no design loaded");
  if (done_) return Status(ErrorCode::kTransactionState, "edit: handle already committed");
  const int ni = loaded_->design.find_net(net);
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
  const int inst = loaded_->design.find_instance(instance);
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
  const int pi = loaded_->design.find_port(port);
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

  // --- stage: every op validated before anything is written -------------
  // Cell swaps apply in op order, so later value ops fold the pin caps the
  // instance will have after the commit. Both tables are hashed, so a
  // transaction stays linear in its op count.
  std::unordered_map<int, int> cells;  // instance -> its latest swapped cell
  std::vector<StagedValue> staged;
  std::unordered_map<std::uint64_t, std::size_t> staged_at;  // (net, section) -> staged slot
  sta::UpdateSeeds seeds;

  const auto input_cap = [&](int instance) {
    const auto it = cells.find(instance);
    const int cell =
        it != cells.end() ? it->second : design.instances[static_cast<std::size_t>(instance)].cell;
    return design.library.cell(static_cast<std::size_t>(cell)).input_cap;
  };
  const auto key = [](int ni, circuit::SectionId sid) {
    return std::uint64_t{static_cast<std::uint32_t>(ni)} << 32 | static_cast<std::uint32_t>(sid);
  };
  // The values section `sid` of net `ni` has at this point of the commit.
  const auto current = [&](int ni, circuit::SectionId sid) {
    const auto it = staged_at.find(key(ni, sid));
    if (it != staged_at.end()) return staged[it->second].v;
    return design.nets[static_cast<std::size_t>(ni)].tree.section(sid).v;
  };
  const auto stage = [&](int ni, circuit::SectionId sid, const circuit::SectionValues& v) {
    if (Status s = check_folded(v, sid); !s.is_ok()) {
      return s.with_net(design.nets[static_cast<std::size_t>(ni)].name);
    }
    const auto [it, added] = staged_at.try_emplace(key(ni, sid), staged.size());
    if (added) {
      staged.push_back(StagedValue{ni, sid, v});
    } else {
      staged[it->second].v = v;
    }
    return Status::ok();
  };
  // The folded shunt C at `node` of net `ni`: raw wire C plus the pin cap
  // of every instance input tapping the node — the finalize fold, against
  // the staged cell assignment, summed in tap order (finalize's order).
  const auto folded_cap = [&](int ni, circuit::SectionId node, double wire_c) {
    double c = wire_c;
    for (const sta::Net::Tap& tap : design.nets[static_cast<std::size_t>(ni)].taps) {
      if (tap.node == node && !tap.is_port) c += input_cap(tap.index);
    }
    return c;
  };

  for (const Edit::Op& op : edit.ops_) {
    switch (op.kind) {
      case Edit::OpKind::kValue: {
        circuit::SectionValues v = op.wire;
        v.capacitance = folded_cap(op.net, op.section, op.wire.capacitance);
        if (Status s = stage(op.net, op.section, v); !s.is_ok()) return s;
        seeds.forward_nets.push_back(op.net);
        break;
      }
      case Edit::OpKind::kCell: {
        const sta::Instance& inst = design.instances[static_cast<std::size_t>(op.instance)];
        const double old_cap = input_cap(op.instance);
        const double new_cap = design.library.cell(static_cast<std::size_t>(op.cell)).input_cap;
        for (const sta::Instance::Pin& pin : inst.inputs) {
          const sta::Net& in_net = design.nets[static_cast<std::size_t>(pin.net)];
          const circuit::SectionId node = in_net.taps[static_cast<std::size_t>(pin.tap)].node;
          circuit::SectionValues v = current(pin.net, node);
          // Exact inverse of the old fold, then the new fold, in this
          // order — bitwise-reproducible regardless of edit history.
          v.capacitance = v.capacitance - old_cap + new_cap;
          if (Status s = stage(pin.net, node, v); !s.is_ok()) return s;
          seeds.forward_nets.push_back(pin.net);
          // The swapped arc tables move this pin's required time even when
          // the output net's driver (required, constrained) pair does not.
          seeds.backward_nets.push_back(pin.net);
        }
        seeds.forward_nets.push_back(inst.out_net);
        cells[op.instance] = op.cell;
        break;
      }
      case Edit::OpKind::kPort:
        seeds.backward_nets.push_back(design.ports[static_cast<std::size_t>(op.port)].net);
        break;
      case Edit::OpKind::kClock:
        seeds.clock_changed = true;
        break;
    }
  }

  // --- write: values, snapshots, constraints, cells ----------------------
  std::vector<int> touched;  // the nets with a staged value, each once
  touched.reserve(staged.size());
  for (const StagedValue& s : staged) touched.push_back(s.net);
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
  design.epoch += 1;
  for (const StagedValue& s : staged) {
    design.nets[static_cast<std::size_t>(s.net)].tree.values(s.section) = s.v;
  }
  for (const int ni : touched) {
    sta::Net& net = design.nets[static_cast<std::size_t>(ni)];
    net.flat.assign(net.tree);
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
  for (const auto& [inst, cell] : cells) design.instances[static_cast<std::size_t>(inst)].cell = cell;

  // --- restamp the cache at the new epoch with the corpus phase's own
  // per-net step. A faulted model is NOT stored — the next analyze
  // recomputes the net with full fault handling — and disables the
  // in-place re-time (its cone could not be served). So does a failed
  // workspace grab: the corpus phase retries it, a commit drops its
  // analysis instead.
  const std::uint64_t fingerprint = sta::options_fingerprint(options);
  bool can_update = true;
  for (const int ni : touched) {
    const sta::Net& net = design.nets[static_cast<std::size_t>(ni)];
    sta::NetModels models;
    try {
      models = sta::analyze_net(net, options);
    } catch (const std::bad_alloc&) {
      can_update = false;
      continue;
    }
    if (!models.analyzed || models.faulted) {
      can_update = false;
      continue;
    }
    cache_.store(static_cast<std::size_t>(ni), net.epoch, fingerprint, std::move(models));
  }

  // --- re-time the cached analysis through the dirty cones ----------------
  EditOutcome outcome;
  if (result_.has_value() && result_->stop_status.is_ok() && can_update) {
    sta::AnalyzeOptions effective = options;
    if (effective.cache == nullptr) effective.cache = &cache_;
    Result<sta::UpdateStats> stats =
        loaded_->graph->update_checked(*result_, *effective.cache, seeds, effective);
    if (stats.is_ok() && stats.value().stop_status.is_ok()) {
      outcome.incremental = true;
      outcome.stats = stats.value();
      return outcome;
    }
    if (stats.is_ok()) outcome.stats = stats.value();  // stopped: report why
  }
  // Any fallback path: the old analysis no longer matches the design.
  result_.reset();
  return outcome;
}

}  // namespace relmore
