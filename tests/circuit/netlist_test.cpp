#include "relmore/circuit/netlist.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "relmore/circuit/builders.hpp"

namespace relmore::circuit {
namespace {

// The readers' one tokenizer must split exactly where stream extraction
// did before it: random lines over an alphabet of every separator, a NUL,
// high bytes and token text.
TEST(Tokenizer, SplitsWhereStreamExtractionDoes) {
  const std::string alphabet = std::string(" \t\n\v\f\r", 6) + std::string("\0", 1) +
                               "\x80\xff#=:ab01.";
  std::mt19937_64 rng(7);
  std::vector<std::string_view> got;
  for (int trial = 0; trial < 2000; ++trial) {
    std::string line(rng() % 40, ' ');
    for (char& c : line) c = alphabet[rng() % alphabet.size()];
    std::vector<std::string> want;
    std::istringstream is(line);
    for (std::string tok; is >> tok;) want.push_back(tok);
    split_tokens(line, got);
    ASSERT_EQ(got.size(), want.size()) << trial;
    for (std::size_t i = 0; i < want.size(); ++i) EXPECT_EQ(got[i], want[i]) << trial;
  }
}

TEST(SpiceValue, PlainNumbers) {
  EXPECT_DOUBLE_EQ(parse_spice_value("12.5"), 12.5);
  EXPECT_DOUBLE_EQ(parse_spice_value("-3e2"), -300.0);
}

TEST(SpiceValue, SiSuffixes) {
  EXPECT_DOUBLE_EQ(parse_spice_value("2n"), 2e-9);
  EXPECT_DOUBLE_EQ(parse_spice_value("0.2p"), 0.2e-12);
  EXPECT_DOUBLE_EQ(parse_spice_value("5f"), 5e-15);
  EXPECT_DOUBLE_EQ(parse_spice_value("3u"), 3e-6);
  EXPECT_DOUBLE_EQ(parse_spice_value("4m"), 4e-3);
  EXPECT_DOUBLE_EQ(parse_spice_value("2k"), 2e3);
  EXPECT_DOUBLE_EQ(parse_spice_value("1meg"), 1e6);
  EXPECT_DOUBLE_EQ(parse_spice_value("2g"), 2e9);
}

TEST(SpiceValue, UnitLettersTolerated) {
  EXPECT_DOUBLE_EQ(parse_spice_value("2nH"), 2e-9);
  EXPECT_DOUBLE_EQ(parse_spice_value("0.2pF"), 0.2e-12);
  EXPECT_DOUBLE_EQ(parse_spice_value("25ohm"), 25.0);
}

TEST(SpiceValue, RejectsGarbage) {
  EXPECT_THROW(parse_spice_value(""), std::invalid_argument);
  EXPECT_THROW(parse_spice_value("abc"), std::invalid_argument);
  EXPECT_THROW(parse_spice_value("1x"), std::invalid_argument);
}

TEST(TreeNetlist, RoundTrip) {
  SectionId out = kInput;
  const RlcTree original = make_fig8_tree(&out);
  std::stringstream ss;
  write_tree_netlist(original, ss);
  const RlcTree back = read_tree_netlist(ss);
  ASSERT_EQ(back.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    const auto id = static_cast<SectionId>(i);
    EXPECT_EQ(back.section(id).parent, original.section(id).parent);
    EXPECT_DOUBLE_EQ(back.section(id).v.resistance, original.section(id).v.resistance);
    EXPECT_DOUBLE_EQ(back.section(id).v.inductance, original.section(id).v.inductance);
    EXPECT_DOUBLE_EQ(back.section(id).v.capacitance, original.section(id).v.capacitance);
    EXPECT_EQ(back.section(id).name, original.section(id).name);
  }
}

TEST(TreeNetlist, ParsesWithCommentsAndSuffixes) {
  std::istringstream is(
      "# a comment line\n"
      "section root - R=25 L=2n C=0.2p  # trailing comment\n"
      "section sink root R=10 L=1nH C=0.1pF\n");
  const RlcTree t = read_tree_netlist(is);
  ASSERT_EQ(t.size(), 2u);
  EXPECT_DOUBLE_EQ(t.section(0).v.inductance, 2e-9);
  EXPECT_DOUBLE_EQ(t.section(1).v.capacitance, 0.1e-12);
  EXPECT_EQ(t.section(1).parent, 0);
}

TEST(TreeNetlist, ErrorsCarryLineNumbers) {
  std::istringstream bad_parent("section a missing_parent R=1 L=0 C=1\n");
  try {
    read_tree_netlist(bad_parent);
    FAIL() << "expected throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 1"), std::string::npos);
  }
}

TEST(TreeNetlist, RejectsDuplicateNames) {
  std::istringstream is(
      "section a - R=1 L=0 C=1\n"
      "section a - R=1 L=0 C=1\n");
  EXPECT_THROW(read_tree_netlist(is), std::invalid_argument);
}

TEST(TreeNetlist, RejectsMalformedKeys) {
  std::istringstream is("section a - R=1 L=0 X=1\n");
  EXPECT_THROW(read_tree_netlist(is), std::invalid_argument);
}

TEST(Spice, WriteContainsAllElements) {
  const RlcTree t = make_line(2, {25.0, 2e-9, 0.2e-12});
  std::ostringstream os;
  SpiceWriteOptions opts;
  opts.tran_stop_seconds = 1e-9;
  write_spice(t, os, opts);
  const std::string deck = os.str();
  EXPECT_NE(deck.find("Vin"), std::string::npos);
  EXPECT_NE(deck.find("R0"), std::string::npos);
  EXPECT_NE(deck.find("L1"), std::string::npos);
  EXPECT_NE(deck.find("C1"), std::string::npos);
  EXPECT_NE(deck.find(".tran"), std::string::npos);
  EXPECT_NE(deck.find(".end"), std::string::npos);
}

TEST(Spice, RoundTripThroughSpiceDeck) {
  SectionId out = kInput;
  const RlcTree original = make_fig8_tree(&out);
  std::stringstream deck;
  write_spice(original, deck);
  const RlcTree back = read_spice(deck);
  ASSERT_EQ(back.size(), original.size());
  // Topology may renumber, but the multiset of (R, L, C) and total cap match.
  EXPECT_NEAR(back.total_capacitance(), original.total_capacitance(), 1e-18);
  EXPECT_EQ(back.leaves().size(), original.leaves().size());
  EXPECT_EQ(back.depth(), original.depth());
}

TEST(Spice, ReadsRcDeckWithoutInductors) {
  std::istringstream deck(
      "V1 in 0 PWL(0 0 1p 1)\n"
      "R1 in n1 100\n"
      "C1 n1 0 1p\n"
      "R2 n1 n2 50\n"
      "C2 n2 0 0.5p\n");
  const RlcTree t = read_spice(deck);
  ASSERT_EQ(t.size(), 2u);
  EXPECT_DOUBLE_EQ(t.section(0).v.resistance, 100.0);
  EXPECT_DOUBLE_EQ(t.section(0).v.inductance, 0.0);
  EXPECT_DOUBLE_EQ(t.section(1).v.capacitance, 0.5e-12);
}

TEST(Spice, MergesSeriesRLIntoOneSection) {
  std::istringstream deck(
      "V1 in 0 PWL(0 0 1p 1)\n"
      "R1 in mid 100\n"
      "L1 mid n1 2n\n"
      "C1 n1 0 1p\n");
  const RlcTree t = read_spice(deck);
  ASSERT_EQ(t.size(), 1u);
  EXPECT_DOUBLE_EQ(t.section(0).v.resistance, 100.0);
  EXPECT_DOUBLE_EQ(t.section(0).v.inductance, 2e-9);
  EXPECT_DOUBLE_EQ(t.section(0).v.capacitance, 1e-12);
}

TEST(Spice, RejectsUngroundedCapacitor) {
  std::istringstream deck(
      "V1 in 0 PWL(0 0 1p 1)\n"
      "R1 in n1 100\n"
      "C1 n1 n2 1p\n");
  EXPECT_THROW(read_spice(deck), std::invalid_argument);
}

TEST(Spice, RejectsDeckWithoutInput) {
  std::istringstream deck("R1 a b 100\nC1 b 0 1p\n");
  EXPECT_THROW(read_spice(deck), std::invalid_argument);
}

TEST(Spice, RejectsLoop) {
  std::istringstream deck(
      "V1 in 0 PWL(0 0 1p 1)\n"
      "R1 in a 100\n"
      "R2 a b 100\n"
      "R3 b in 100\n"
      "C1 a 0 1p\n"
      "C2 b 0 1p\n");
  EXPECT_THROW(read_spice(deck), std::invalid_argument);
}

}  // namespace
}  // namespace relmore::circuit
