#include "relmore/sta/liberty.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace relmore::sta {
namespace {

TEST(TimingTable, RejectsBadAxesAndSizes) {
  EXPECT_FALSE(TimingTable::create_checked({}, {0.0}, {}).is_ok());
  EXPECT_FALSE(TimingTable::create_checked({0.0, 0.0}, {0.0}, {1.0, 2.0}).is_ok());
  EXPECT_FALSE(TimingTable::create_checked({0.0, 1.0}, {0.0}, {1.0}).is_ok());
  const double nan = std::nan("");
  EXPECT_FALSE(TimingTable::create_checked({0.0, 1.0}, {0.0}, {1.0, nan}).is_ok());
  EXPECT_EQ(TimingTable::create_checked({0.0, 1.0}, {0.0}, {1.0}).status().code(),
            util::ErrorCode::kInvalidArgument);
}

TEST(TimingTable, BilinearInterpolationIsExactForBilinearData) {
  // values = 2 + 3*slew + 5*load + 7*slew*load on a 3x3 grid.
  const std::vector<double> s = {0.0, 1.0, 4.0};
  const std::vector<double> l = {0.0, 2.0, 3.0};
  std::vector<double> v;
  for (const double si : s) {
    for (const double li : l) v.push_back(2.0 + 3.0 * si + 5.0 * li + 7.0 * si * li);
  }
  const TimingTable t = TimingTable::create_checked(s, l, v).value();
  for (const double qs : {0.0, 0.5, 1.0, 2.5, 4.0}) {
    for (const double ql : {0.0, 1.0, 2.0, 2.9, 3.0}) {
      EXPECT_NEAR(t.lookup(qs, ql), 2.0 + 3.0 * qs + 5.0 * ql + 7.0 * qs * ql, 1e-12)
          << "slew " << qs << " load " << ql;
    }
  }
}

TEST(TimingTable, ClampsOutsideTheGrid) {
  const TimingTable t =
      TimingTable::create_checked({0.0, 1.0}, {0.0, 1.0}, {0.0, 1.0, 2.0, 3.0}).value();
  EXPECT_DOUBLE_EQ(t.lookup(-5.0, -5.0), t.lookup(0.0, 0.0));
  EXPECT_DOUBLE_EQ(t.lookup(9.0, 9.0), t.lookup(1.0, 1.0));
}

TEST(LinearCell, TablesMatchTheClosedForm) {
  LinearCellSpec spec;
  spec.name = "g";
  spec.drive_r = 1234.0;
  spec.input_cap = 3e-15;
  spec.intrinsic = 7e-12;
  spec.slew_gain = 0.25;
  spec.slew_factor = 1.0;
  const Cell cell = linear_cell(spec);
  for (const double slew : {0.0, 20e-12, 130e-12, 1e-9}) {
    for (const double load : {0.0, 12e-15, 80e-15, 2e-12}) {
      EXPECT_NEAR(cell.arc_delay(slew, load),
                  spec.intrinsic + spec.drive_r * load + spec.slew_gain * slew, 1e-18);
      EXPECT_NEAR(cell.arc_slew(slew, load), std::log(9.0) * spec.drive_r * load, 1e-18);
    }
  }
}

TEST(LinearCell, RejectsBadParameters) {
  LinearCellSpec spec;
  spec.name = "";
  EXPECT_FALSE(linear_cell_checked(spec).is_ok());
  spec.name = "g";
  spec.drive_r = -1.0;
  EXPECT_FALSE(linear_cell_checked(spec).is_ok());
  spec.drive_r = 1.0;
  spec.slew_factor = -2.0;
  EXPECT_FALSE(linear_cell_checked(spec).is_ok());
}

TEST(CellLibrary, AddFindAndOverride) {
  CellLibrary lib = generic_library();
  EXPECT_GE(lib.find("buf_x1"), 0);
  EXPECT_LT(lib.find("no_such_cell"), 0);
  const std::size_t before = lib.size();
  LinearCellSpec spec;
  spec.name = "buf_x1";
  spec.drive_r = 1.0;
  spec.intrinsic = 99e-12;
  lib.add(linear_cell(spec));
  EXPECT_EQ(lib.size(), before);  // override, not append
  const int i = lib.find("buf_x1");
  ASSERT_GE(i, 0);
  EXPECT_NEAR(lib.cell(static_cast<std::size_t>(i)).arc_delay(0.0, 0.0), 99e-12, 1e-18);
}

}  // namespace
}  // namespace relmore::sta
