#include "relmore/util/name_index.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace {

using relmore::util::NameIndex;

/// The caller's table the index compares through.
struct Names {
  std::vector<std::string> at;
  [[nodiscard]] auto name_of() const {
    return [this](int i) -> const std::string& { return at[static_cast<std::size_t>(i)]; };
  }
};

TEST(NameIndex, FirstOfEqualNamesWins) {
  Names names{{"a", "b", "a", "", "aa", "b", ""}};
  NameIndex index;
  std::vector<int> held;
  for (std::size_t i = 0; i < names.at.size(); ++i) {
    held.push_back(index.insert(names.at[i], static_cast<int>(i), names.name_of()));
  }
  EXPECT_EQ(held, (std::vector<int>{0, 1, 0, 3, 4, 1, 3}));
  EXPECT_EQ(index.find("a", names.name_of()), 0);
  EXPECT_EQ(index.find("b", names.name_of()), 1);
  EXPECT_EQ(index.find("", names.name_of()), 3);
  EXPECT_EQ(index.find("aa", names.name_of()), 4);
  EXPECT_EQ(index.find("c", names.name_of()), -1);
}

TEST(NameIndex, LookupsStillWorkAfterTheTableGrows) {
  Names names;
  NameIndex index;  // no reserve: every doubling rehashes what is indexed
  for (int i = 0; i < 5000; ++i) {
    names.at.push_back("net" + std::to_string(i));
    ASSERT_EQ(index.insert(names.at.back(), i, names.name_of()), i);
    if (i % 997 == 0 || i == 4999) {
      for (int j = 0; j <= i; ++j) {
        ASSERT_EQ(index.find(names.at[static_cast<std::size_t>(j)], names.name_of()), j) << j;
      }
      EXPECT_EQ(index.find("net" + std::to_string(i + 1), names.name_of()), -1);
    }
  }

  // A reserve after the fact keeps every entry too.
  index.reserve(100000);
  for (int j = 0; j < 5000; ++j) {
    ASSERT_EQ(index.find(names.at[static_cast<std::size_t>(j)], names.name_of()), j);
  }
}

TEST(NameIndex, LookupInAnEmptyIndexMisses) {
  const Names names;
  NameIndex index;
  EXPECT_EQ(index.find("x", names.name_of()), -1);
  EXPECT_EQ(index.find("", names.name_of()), -1);
  index.reserve(10);
  EXPECT_EQ(index.find("x", names.name_of()), -1);
}

}  // namespace
