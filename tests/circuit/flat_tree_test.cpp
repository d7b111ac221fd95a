#include "relmore/circuit/flat_tree.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>

#include "relmore/circuit/builders.hpp"
#include "relmore/circuit/random_tree.hpp"

namespace relmore::circuit {
namespace {

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Every field of `got` equals the one of a fresh snapshot of `tree`:
/// parent, R/L/C bits, child counts, levels, depth and names.
void expect_snapshot_of(const FlatTree& got, const RlcTree& tree) {
  const FlatTree want(tree);
  ASSERT_EQ(got.size(), want.size());
  ASSERT_EQ(got.parent().size(), want.size());
  ASSERT_EQ(got.resistance().size(), want.size());
  ASSERT_EQ(got.inductance().size(), want.size());
  ASSERT_EQ(got.capacitance().size(), want.size());
  ASSERT_EQ(got.child_count().size(), want.size());
  ASSERT_EQ(got.level().size(), want.size());
  ASSERT_EQ(got.names().size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got.parent()[i], want.parent()[i]) << "section " << i;
    EXPECT_EQ(bits(got.resistance()[i]), bits(want.resistance()[i])) << "section " << i;
    EXPECT_EQ(bits(got.inductance()[i]), bits(want.inductance()[i])) << "section " << i;
    EXPECT_EQ(bits(got.capacitance()[i]), bits(want.capacitance()[i])) << "section " << i;
    EXPECT_EQ(got.child_count()[i], want.child_count()[i]) << "section " << i;
    EXPECT_EQ(got.level()[i], want.level()[i]) << "section " << i;
    EXPECT_EQ(got.names()[i], want.names()[i]) << "section " << i;
  }
  EXPECT_EQ(got.depth(), want.depth());
  EXPECT_EQ(got.leaves(), want.leaves());
}

/// A tree whose names outgrow the small-string buffer, so a re-snapshot
/// over shorter names has to drop the long ones' tails.
RlcTree long_named_line(int sections) {
  RlcTree t;
  SectionId prev = kInput;
  for (int i = 0; i < sections; ++i) {
    prev = t.add_section(prev, {10.0 + i, 1e-9 * i, 1e-15 * (i + 1)},
                         "a_section_name_past_the_small_string_buffer_" + std::to_string(i));
  }
  return t;
}

TEST(FlatTree, AssignOverALargerTreeEqualsAFreshSnapshot) {
  const RlcTree large = make_balanced_tree(5, 2, {12.0, 2e-9, 0.2e-12});
  FlatTree flat(make_line(4, {10.0, 1e-9, 0.1e-12}));
  flat.assign(large);
  expect_snapshot_of(flat, large);
}

TEST(FlatTree, AssignOverASmallerTreeEqualsAFreshSnapshot) {
  const RlcTree small = make_line(3, {7.0, 0.0, 3e-15});
  FlatTree flat(long_named_line(40));
  flat.assign(small);
  expect_snapshot_of(flat, small);
  // And back: the arrays grow again and the long names come back whole.
  const RlcTree long_line = long_named_line(40);
  flat.assign(long_line);
  expect_snapshot_of(flat, long_line);
}

TEST(FlatTree, AssignOverADifferentlyShapedTreeEqualsAFreshSnapshot) {
  // Same section count, other parents: the child counts and levels of the
  // old shape must not leak into the new one.
  const RlcTree line = make_line(7, {10.0, 1e-9, 0.1e-12});
  const RlcTree bushy = make_balanced_tree(3, 2, {10.0, 1e-9, 0.1e-12});
  ASSERT_EQ(line.size(), bushy.size());
  FlatTree flat(line);
  flat.assign(bushy);
  expect_snapshot_of(flat, bushy);
  flat.assign(line);
  expect_snapshot_of(flat, line);

  // A run of random shapes through one object.
  RandomTreeSpec spec;
  spec.min_sections = 1;
  spec.max_sections = 60;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const RlcTree tree = make_random_tree(spec, seed);
    flat.assign(tree);
    expect_snapshot_of(flat, tree);
  }

  // An empty tree leaves an empty snapshot.
  flat.assign(RlcTree{});
  EXPECT_TRUE(flat.empty());
  EXPECT_EQ(flat.depth(), 0);
}

TEST(FlatTree, AssignAfterAValueEditTakesTheNewValues) {
  RlcTree tree = make_line(5, {10.0, 1e-9, 0.1e-12});
  FlatTree flat(tree);
  tree.values(2) = {33.0, 0.0, 4e-15};
  flat.assign(tree);
  expect_snapshot_of(flat, tree);
  EXPECT_EQ(flat.resistance()[2], 33.0);
}

}  // namespace
}  // namespace relmore::circuit
