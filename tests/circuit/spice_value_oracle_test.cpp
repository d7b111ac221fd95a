// The value parse against its oracle: circuit::parse_spice_value_checked
// (std::from_chars, with strtod_l in the C locale for what from_chars does
// not take) must give the verdict, error code, message and bits of the
// strtod form it replaced (spice_value_reference.hpp) on every token of a
// seeded generator that aims at the places the two parsers could part:
// the decimal round trip, SI prefixes and units in mixed case, signs, hex,
// the edges of the double range, and trailing bytes.

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <clocale>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "relmore/circuit/netlist.hpp"
#include "spice_value_reference.hpp"

namespace rc = relmore::circuit;
namespace ru = relmore::util;

namespace {

constexpr std::string_view kPrefixes[] = {"", "f", "p", "n", "u", "m", "k", "g", "t", "meg"};
constexpr std::string_view kUnits[] = {"", "h", "f", "ohm", "s", "v"};
constexpr std::string_view kSigns[] = {"", "", "", "-", "+", "--", "++", "+-", "-+"};
constexpr const char* kDecimal[] = {"%.6g", "%.17g"};
constexpr const char* kHex[] = {"%a", "%A"};
constexpr const char* kFixed[] = {"%.6f", "%.17f", "%.0f"};
constexpr const char* kExponent[] = {"e", "E"};

std::string format(const char* spec, double x) {
  std::array<char, 64> buf{};
  std::snprintf(buf.data(), buf.size(), spec, x);
  return buf.data();
}

/// Token generator: one category per call of next(), in rotation.
class TokenGen {
 public:
  explicit TokenGen(std::uint64_t seed) : rng_(seed) {}

  std::string next() {
    switch (count_++ % 7) {
      case 0: return format(pick(kDecimal), any_double());
      case 1: return mixed_case(format(pick(kDecimal), human_double()) + suffix());
      case 2: return std::string(pick(kSigns)) + format("%.17g", std::abs(human_double()));
      case 3: return mixed_case(format(pick(kHex), any_double())) + suffix();
      case 4: return range_edge();
      case 5: return format(pick(kDecimal), human_double()) + suffix() + garbage();
      default: return random_bytes();
    }
  }

 private:
  template <typename T, std::size_t N>
  const T& pick(const T (&options)[N]) {
    return options[std::uniform_int_distribution<std::size_t>(0, N - 1)(rng_)];
  }
  bool coin() { return (rng_() & 1u) != 0; }

  /// Any finite double, subnormals included: uniform over bit patterns.
  double any_double() {
    for (;;) {
      const double x = std::bit_cast<double>(rng_());
      if (std::isfinite(x)) return x;
    }
  }

  /// A value of the size a netlist holds: 1e-18 .. 1e+6, either sign.
  double human_double() {
    const double mag = std::pow(10.0, std::uniform_real_distribution<double>(-18.0, 6.0)(rng_));
    return coin() ? mag : -mag;
  }

  std::string mixed_case(std::string s) {
    for (char& c : s) {
      if (c >= 'a' && c <= 'z' && coin()) c = static_cast<char>(c - 32);
      if (c >= 'A' && c <= 'Z' && coin()) c = static_cast<char>(c + 32);
    }
    return s;
  }

  std::string suffix() {
    return mixed_case(std::string(pick(kPrefixes)) + std::string(pick(kUnits)));
  }

  /// Mantissas near the subnormal, underflow and overflow exponents, with
  /// a scale that may push an in-range mantissa out of range.
  std::string range_edge() {
    const int exp = coin() ? std::uniform_int_distribution<int>(-460, -290)(rng_)
                           : std::uniform_int_distribution<int>(280, 330)(rng_);
    const double mantissa = std::uniform_real_distribution<double>(1.0, 10.0)(rng_);
    std::string s = std::string(pick(kSigns)) + format(pick(kFixed), mantissa);
    s += pick(kExponent);
    s += exp < 0 ? "-" : (coin() ? "+" : "");
    s += std::to_string(std::abs(exp));
    return s + suffix();
  }

  std::string garbage() {
    static constexpr std::string_view kBytes = "qzZ#x.e+-0X(){}\x01\x7f\xff";
    std::string s;
    const int n = std::uniform_int_distribution<int>(1, 3)(rng_);
    for (int i = 0; i < n; ++i) {
      s += kBytes[std::uniform_int_distribution<std::size_t>(0, kBytes.size() - 1)(rng_)];
    }
    return s;
  }

  /// Short strings over the bytes either grammar gives a meaning to.
  std::string random_bytes() {
    static constexpr std::string_view kBytes =
        "0123456789..eE+-xXpPaAfFiInNtTyY kKmMgGuUhHoOsSvV\t";
    std::string s;
    const int n = std::uniform_int_distribution<int>(0, 12)(rng_);
    for (int i = 0; i < n; ++i) {
      s += kBytes[std::uniform_int_distribution<std::size_t>(0, kBytes.size() - 1)(rng_)];
    }
    return s;
  }

  std::mt19937_64 rng_;
  std::size_t count_ = 0;
};

std::string printable(std::string_view s) {
  std::string out;
  for (const char ch : s) {
    const auto c = static_cast<unsigned char>(ch);
    if (c < 0x20 || c >= 0x7f) {
      std::array<char, 8> buf{};
      std::snprintf(buf.data(), buf.size(), "\\x%02x", c);
      out += buf.data();
    } else {
      out += ch;
    }
  }
  return out;
}

struct Tally {
  std::size_t tokens = 0;
  std::size_t accepted = 0;
  std::size_t parse_errors = 0;
  std::size_t range_errors = 0;
  std::size_t mismatches = 0;
};

/// Parses `token` both ways; counts the verdict and reports a mismatch.
void check(std::string_view token, Tally& tally) {
  const ru::Result<double> got = rc::parse_spice_value_checked(token);
  const ru::Result<double> want = rc::reference::parse_spice_value_checked(token);
  ++tally.tokens;
  bool same = got.is_ok() == want.is_ok();
  if (same && want.is_ok()) {
    ++tally.accepted;
    same = std::bit_cast<std::uint64_t>(got.value()) == std::bit_cast<std::uint64_t>(want.value());
  } else if (same) {
    if (want.status().code() == ru::ErrorCode::kValueOutOfRange) {
      ++tally.range_errors;
    } else {
      ++tally.parse_errors;
    }
    same = got.status().code() == want.status().code() &&
           got.status().message() == want.status().message();
  }
  if (same) return;
  if (++tally.mismatches <= 10) {
    ADD_FAILURE() << "token '" << printable(token) << "': got "
                  << (got.is_ok() ? std::to_string(got.value()) : got.status().message())
                  << ", reference "
                  << (want.is_ok() ? std::to_string(want.value()) : want.status().message());
  }
}

}  // namespace

TEST(SpiceValueOracle, AgreesWithTheStrtodReferenceOnGeneratedTokens) {
  TokenGen gen(20261018);
  Tally tally;
  for (int i = 0; i < 210000; ++i) check(gen.next(), tally);
  EXPECT_EQ(tally.mismatches, 0u);
  // The generator reaches every verdict often, so agreement means something.
  EXPECT_GT(tally.accepted, 100000u);
  EXPECT_GT(tally.parse_errors, 30000u);
  EXPECT_GT(tally.range_errors, 3000u);
}

TEST(SpiceValueOracle, AgreesOnTheFastPathEdges) {
  const std::string long_mantissa = "0." + std::string(700, '0') + "1e700";
  const std::string long_digits = std::string(400, '9') + "e-400";
  const std::vector<std::string> tokens = {
      "", "+", "-", ".", "e5", ".e5", "5.", "5.e", "1e", "1e+", "1e-", "007", "-007",
      "00.5", "+-1", "-+1", "--1", "++1", "+1", " 1", "1 ", "\t1", "0x", "0X", "0x1p3",
      "-0X1P3", "+0x1p3", "0x.8p1", "0xg", "1x", "0x1p-1080", "0x1p1024", "0x1.fffffffffffffp1023",
      "1e-320", "-1e-320", "1e-400", "-1e-400", "0e999999999999", "1e-99999999999999999999",
      "4.9406564584124654e-324", "2.4703282292062327e-324", "2.4703282292062328e-324",
      "2.2250738585072011e-308", "1.7976931348623157e308", "1.7976931348623159e308", "1e309",
      "1e308k", "9e307k", "1e-310f", "1.5e+3Meg", "1.5E+3MEGOHM", "2nq", "1megx", "3..5",
      "inf", "-inf", "INF", "infinity", "Infinity", "infinit", "nan", "NaN", "-nan", "nan(1)",
      "nan(", "in", "i", "n", "-0", "-0.0", "0", long_mantissa, long_digits,
      std::string("1\0x", 3), std::string("\0" "1", 2), std::string("10f\0x", 5)};
  Tally tally;
  for (const std::string& token : tokens) check(token, tally);
  EXPECT_EQ(tally.mismatches, 0u);
}

// A process locale whose decimal point is ',' changes what strtod reads;
// the reader's grammar is the C locale's whatever the process locale is.
TEST(SpiceValueOracle, ReadsTheCLocaleWhateverTheProcessLocale) {
  const std::string saved = std::setlocale(LC_ALL, nullptr);
  const char* comma_locale = nullptr;
  for (const char* name : {"de_DE.UTF-8", "de_DE.utf8", "fr_FR.UTF-8", "fr_FR.utf8", "de_DE"}) {
    if (std::setlocale(LC_ALL, name) != nullptr) {
      comma_locale = name;
      break;
    }
  }
  if (comma_locale == nullptr) GTEST_SKIP() << "no locale with a ',' decimal point installed";
  const ru::Result<double> dot = rc::parse_spice_value_checked("1.5k");
  const ru::Result<double> hex = rc::parse_spice_value_checked("+0x1.8p1");
  const ru::Result<double> comma = rc::parse_spice_value_checked("1,5");
  std::setlocale(LC_ALL, saved.c_str());
  ASSERT_TRUE(dot.is_ok()) << comma_locale;
  EXPECT_EQ(dot.value(), 1500.0);
  ASSERT_TRUE(hex.is_ok()) << comma_locale;
  EXPECT_EQ(hex.value(), 3.0);
  ASSERT_FALSE(comma.is_ok()) << comma_locale;
  EXPECT_EQ(comma.status().code(), ru::ErrorCode::kParseError);
}
