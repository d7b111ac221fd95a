#include "relmore/sta/liberty.hpp"

#include <algorithm>
#include <cmath>

namespace relmore::sta {

using util::ErrorCode;
using util::Result;
using util::Status;

namespace {

constexpr double kLn9 = 2.1972245773362196;  // ln 9, the 10-90% step factor

Status check_axis(const std::vector<double>& axis, const char* which) {
  if (axis.empty()) {
    return Status(ErrorCode::kInvalidArgument,
                  std::string("TimingTable: empty ") + which + " axis");
  }
  for (std::size_t i = 0; i < axis.size(); ++i) {
    if (!std::isfinite(axis[i])) {
      return Status(ErrorCode::kNonFiniteValue,
                    std::string("TimingTable: non-finite ") + which + " axis entry");
    }
    if (i > 0 && axis[i] <= axis[i - 1]) {
      return Status(ErrorCode::kInvalidArgument,
                    std::string("TimingTable: ") + which + " axis must be strictly increasing");
    }
  }
  return Status::ok();
}

/// Index of the cell [lo, lo+1] bracketing x on a clamped axis, plus the
/// interpolation weight in [0, 1]. Single-point axes pin the weight to 0.
/// `hint` is a probable bracketing index: when it still brackets x it is
/// taken as-is (it is the unique such index on a strictly increasing
/// axis, so the result is bitwise-identical to the binary search).
void bracket(const std::vector<double>& axis, double x, std::size_t hint, std::size_t* lo,
             double* w) {
  const std::size_t n = axis.size();
  if (n == 1 || x <= axis.front()) {
    *lo = 0;
    *w = 0.0;
    return;
  }
  if (x >= axis.back()) {
    *lo = n - 2;
    *w = 1.0;
    return;
  }
  std::size_t i;
  if (hint <= n - 2 && axis[hint] <= x && x < axis[hint + 1]) {
    i = hint;
  } else {
    i = static_cast<std::size_t>(std::upper_bound(axis.begin(), axis.end(), x) - axis.begin()) - 1;
    if (i > n - 2) i = n - 2;
  }
  *lo = i;
  *w = (x - axis[i]) / (axis[i + 1] - axis[i]);
}

}  // namespace

TimingTable::TimingTable(const TimingTable& other)
    : slews_(other.slews_),
      loads_(other.loads_),
      values_(other.values_),
      hint_(other.hint_.load(std::memory_order_relaxed)) {}

TimingTable& TimingTable::operator=(const TimingTable& other) {
  slews_ = other.slews_;
  loads_ = other.loads_;
  values_ = other.values_;
  hint_.store(other.hint_.load(std::memory_order_relaxed), std::memory_order_relaxed);
  return *this;
}

TimingTable::TimingTable(TimingTable&& other) noexcept
    : slews_(std::move(other.slews_)),
      loads_(std::move(other.loads_)),
      values_(std::move(other.values_)),
      hint_(other.hint_.load(std::memory_order_relaxed)) {}

TimingTable& TimingTable::operator=(TimingTable&& other) noexcept {
  slews_ = std::move(other.slews_);
  loads_ = std::move(other.loads_);
  values_ = std::move(other.values_);
  hint_.store(other.hint_.load(std::memory_order_relaxed), std::memory_order_relaxed);
  return *this;
}

Result<TimingTable> TimingTable::create_checked(std::vector<double> slews,
                                                std::vector<double> loads,
                                                std::vector<double> values) {
  if (Status s = check_axis(slews, "slew"); !s.is_ok()) return s;
  if (Status s = check_axis(loads, "load"); !s.is_ok()) return s;
  if (values.size() != slews.size() * loads.size()) {
    return Status(ErrorCode::kInvalidArgument,
                  "TimingTable: values size must equal slews x loads");
  }
  for (const double v : values) {
    if (!std::isfinite(v)) {
      return Status(ErrorCode::kNonFiniteValue, "TimingTable: non-finite table value");
    }
  }
  TimingTable t;
  t.slews_ = std::move(slews);
  t.loads_ = std::move(loads);
  t.values_ = std::move(values);
  return t;
}

double TimingTable::lookup(double input_slew, double load) const {
  if (values_.empty()) return 0.0;
  const std::uint32_t hint = hint_.load(std::memory_order_relaxed);
  std::size_t si = 0;
  std::size_t li = 0;
  double sw = 0.0;
  double lw = 0.0;
  bracket(slews_, input_slew, hint >> 16, &si, &sw);
  bracket(loads_, load, hint & 0xffffu, &li, &lw);
  hint_.store(static_cast<std::uint32_t>((si & 0xffff) << 16 | (li & 0xffff)),
              std::memory_order_relaxed);
  const std::size_t cols = loads_.size();
  const std::size_t s1 = slews_.size() == 1 ? si : si + 1;
  const std::size_t l1 = loads_.size() == 1 ? li : li + 1;
  const double v00 = values_[si * cols + li];
  const double v01 = values_[si * cols + l1];
  const double v10 = values_[s1 * cols + li];
  const double v11 = values_[s1 * cols + l1];
  const double r0 = v00 + lw * (v01 - v00);
  const double r1 = v10 + lw * (v11 - v10);
  return r0 + sw * (r1 - r0);
}

Result<Cell> linear_cell_checked(const LinearCellSpec& spec) {
  if (spec.name.empty()) {
    return Status(ErrorCode::kInvalidArgument, "linear_cell: empty cell name");
  }
  for (const double v : {spec.drive_r, spec.input_cap, spec.intrinsic}) {
    if (!util::valid_element_value(v)) {
      return Status(ErrorCode::kInvalidArgument,
                    "linear_cell '" + spec.name + "': drive_r/input_cap/intrinsic must be "
                    "finite and non-negative");
    }
  }
  if (!std::isfinite(spec.slew_gain) || !std::isfinite(spec.slew_factor) ||
      spec.slew_factor < 0.0) {
    return Status(ErrorCode::kInvalidArgument,
                  "linear_cell '" + spec.name + "': bad slew_gain/slew_factor");
  }
  // Generous characterization window: queries inside it are exact (the
  // model is bilinear); beyond it the table clamps like real Liberty data.
  const std::vector<double> slews = {0.0, 50e-12, 500e-12, 5e-9};
  const std::vector<double> loads = {0.0, 50e-15, 500e-15, 5e-12};
  std::vector<double> delay;
  std::vector<double> oslew;
  delay.reserve(slews.size() * loads.size());
  oslew.reserve(slews.size() * loads.size());
  for (const double s : slews) {
    for (const double c : loads) {
      delay.push_back(spec.intrinsic + spec.drive_r * c + spec.slew_gain * s);
      oslew.push_back(spec.slew_factor * kLn9 * spec.drive_r * c);
    }
  }
  Result<TimingTable> dt = TimingTable::create_checked(slews, loads, std::move(delay));
  if (!dt.is_ok()) return dt.status();
  Result<TimingTable> st = TimingTable::create_checked(slews, loads, std::move(oslew));
  if (!st.is_ok()) return st.status();
  Cell cell;
  cell.name = spec.name;
  cell.input_cap = spec.input_cap;
  cell.delay = std::move(dt).value();
  cell.output_slew = std::move(st).value();
  return cell;
}

Cell linear_cell(const LinearCellSpec& spec) { return linear_cell_checked(spec).value(); }

void CellLibrary::add(Cell cell) {
  const int i = find(cell.name);
  if (i >= 0) {
    cells_[static_cast<std::size_t>(i)] = std::move(cell);
  } else {
    cells_.push_back(std::move(cell));
  }
}

int CellLibrary::find(const std::string& name) const {
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    if (cells_[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

CellLibrary generic_library() {
  CellLibrary lib;
  lib.add(linear_cell({"buf_x1", 500.0, 5e-15, 20e-12, 0.1, 1.0}));
  lib.add(linear_cell({"buf_x4", 125.0, 20e-15, 15e-12, 0.1, 1.0}));
  lib.add(linear_cell({"inv_x1", 400.0, 4e-15, 12e-12, 0.08, 1.0}));
  lib.add(linear_cell({"nand2_x1", 600.0, 6e-15, 18e-12, 0.12, 1.0}));
  lib.add(linear_cell({"dff_x1", 450.0, 3e-15, 60e-12, 0.05, 1.0}));
  return lib;
}

}  // namespace relmore::sta
