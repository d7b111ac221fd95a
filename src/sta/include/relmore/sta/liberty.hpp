#pragma once

/// \file liberty.hpp
/// Liberty-subset cell characterization: NLDM-style 2-D lookup tables
/// (delay and output slew indexed by input slew x output load) and a named
/// cell library. This is the *gate* half of a timing stage; the *wire*
/// half is the EED model of the net's RLC tree, its ramp crossings solved
/// exactly (eed::ramp_stage_checked).
///
/// Tables interpolate bilinearly and clamp at the axis ends, the standard
/// Liberty semantics. `linear_cell` builds tables from the classic linear
/// gate model
///
///   delay(slew, load)  = intrinsic + drive_r * load + slew_gain * slew
///   oslew(slew, load)  = slew_factor * ln(9) * drive_r * load
///
/// which is *bilinear*, so bilinear interpolation reproduces it exactly at
/// every in-range query point — the property the golden STA test leans on.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "relmore/util/diagnostics.hpp"

namespace relmore::sta {

/// One NLDM-style lookup table: values[i * loads.size() + j] is the table
/// entry at input slew slews[i], output load loads[j].
class TimingTable {
 public:
  /// Empty table (lookup returns 0); exists so Cell is an aggregate.
  /// Build real tables via create_checked.
  TimingTable() = default;
  // The bracket hint is atomic (deleting the implicit copies), so the
  // value semantics Cell relies on are spelled out; copies carry the
  // hint along — it is only a probable-hit accelerator either way.
  TimingTable(const TimingTable& other);
  TimingTable& operator=(const TimingTable& other);
  TimingTable(TimingTable&& other) noexcept;
  TimingTable& operator=(TimingTable&& other) noexcept;
  /// Validates and builds: both axes must be non-empty and strictly
  /// increasing, `values` must hold slews.size() * loads.size() finite
  /// entries. Returns kInvalidArgument / kNonFiniteValue otherwise.
  [[nodiscard]] static util::Result<TimingTable> create_checked(std::vector<double> slews,
                                                                std::vector<double> loads,
                                                                std::vector<double> values);

  /// Bilinear interpolation, clamped to the axis ranges (Liberty
  /// semantics: queries beyond the characterized window use the edge
  /// cells' gradients frozen at the boundary value).
  [[nodiscard]] double lookup(double input_slew, double load) const;

  [[nodiscard]] const std::vector<double>& slew_axis() const { return slews_; }
  [[nodiscard]] const std::vector<double>& load_axis() const { return loads_; }

 private:
  std::vector<double> slews_;
  std::vector<double> loads_;
  std::vector<double> values_;  ///< row-major [slew][load]
  /// Last bracketing cell, packed (slew row << 16 | load col). Levelized
  /// propagation queries each arc with near-identical (slew, load) runs,
  /// so the previous cell usually still brackets the query: lookup probes
  /// it before falling back to the binary searches. Never changes a
  /// result bit — a strictly increasing axis has exactly one bracketing
  /// cell, and the probe accepts only that one. Relaxed atomic so
  /// concurrent lookups (corpus workers) stay race-free; a stale hint
  /// only costs the fallback search.
  mutable std::atomic<std::uint32_t> hint_{0};
};

/// One library cell: a single output arc shared by every input pin (the
/// subset the corpus format needs — multi-arc cells are a later PR).
struct Cell {
  std::string name;
  double input_cap = 0.0;  ///< per input pin, folded into the driven net's tap node [F]
  TimingTable delay;       ///< 50%-in to 50%-out arc delay [s]
  TimingTable output_slew; ///< 10-90% slew at the output pin [s]

  [[nodiscard]] double arc_delay(double input_slew, double load) const {
    return delay.lookup(input_slew, load);
  }
  [[nodiscard]] double arc_slew(double input_slew, double load) const {
    return output_slew.lookup(input_slew, load);
  }
};

/// Parameters of the linear gate model a `cell` corpus line carries.
struct LinearCellSpec {
  std::string name;
  double drive_r = 1.0;       ///< output drive resistance [ohm]
  double input_cap = 0.0;     ///< input pin capacitance [F]
  double intrinsic = 0.0;     ///< zero-load zero-slew delay [s]
  double slew_gain = 0.0;     ///< d(delay)/d(input slew), dimensionless
  double slew_factor = 1.0;   ///< output slew = factor * ln9 * drive_r * load
};

/// Builds a 4x4-table cell from the linear model; exact under bilinear
/// interpolation for any in-range (slew, load). Returns kInvalidArgument
/// on negative drive_r/input_cap or non-finite parameters.
[[nodiscard]] util::Result<Cell> linear_cell_checked(const LinearCellSpec& spec);

/// Exception-compatible shim over linear_cell_checked.
[[nodiscard]] Cell linear_cell(const LinearCellSpec& spec);

/// Named cell collection a Design resolves `inst` lines against.
class CellLibrary {
 public:
  /// Adds or replaces (a corpus `cell` line shadows the base library).
  void add(Cell cell);
  /// Index of `name`, or -1.
  [[nodiscard]] int find(const std::string& name) const;
  [[nodiscard]] const Cell& cell(std::size_t index) const { return cells_.at(index); }
  [[nodiscard]] std::size_t size() const { return cells_.size(); }

 private:
  std::vector<Cell> cells_;
};

/// Small default library (buf/inv/nand2-style drive strengths) so a corpus
/// file only has to declare cells it wants to override.
[[nodiscard]] CellLibrary generic_library();

}  // namespace relmore::sta
