#pragma once

// The strtod form of circuit::parse_spice_value_checked, kept verbatim as
// the reference the from_chars reader is checked against: the value-parse
// oracle test (spice_value_oracle_test.cpp) and the parse_spice_value fuzz
// harness both require the library to give the same verdict, error code,
// message and bits on every token. strtod and std::tolower read the
// process locale, so the reference means what it says in the C locale
// only, which is the locale a test process starts in.

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <string>
#include <string_view>

#include "relmore/util/diagnostics.hpp"

namespace relmore::circuit::reference {

inline std::string lower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return out;
}

/// `s` equals the lowercase ASCII `lower_ascii` under std::tolower, byte by
/// byte: what comparing lower(s) with it decides, without the copy.
inline bool iequals(std::string_view s, std::string_view lower_ascii) {
  if (s.size() != lower_ascii.size()) return false;
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(s[i])) != lower_ascii[i]) return false;
  }
  return true;
}

/// SI scale prefixes, longest first where one is a prefix of another
/// ("meg" before "m"): the first whose remainder is unit text wins.
struct ScalePrefix {
  std::string_view text;
  double scale;
};
inline constexpr ScalePrefix kScalePrefixes[] = {
    {"meg", 1e6}, {"f", 1e-15}, {"p", 1e-12}, {"n", 1e-9}, {"u", 1e-6},
    {"m", 1e-3},  {"k", 1e3},   {"g", 1e9},   {"t", 1e12},
};
inline constexpr std::string_view kUnits[] = {"", "h", "f", "ohm", "s", "v"};

inline bool is_unit(std::string_view rest) {
  return std::any_of(std::begin(kUnits), std::end(kUnits),
                     [&](std::string_view unit) { return iequals(rest, unit); });
}

inline util::Result<double> parse_spice_value_checked(std::string_view text) {
  using util::ErrorCode;
  using util::Status;
  if (text.empty()) {
    return Status(ErrorCode::kParseError, "parse_spice_value: empty value");
  }
  // strtod wants a NUL-terminated string: value-sized tokens are copied to
  // the stack, only longer ones to the heap.
  char stack_copy[64];
  std::string heap_copy;
  const char* begin = stack_copy;
  if (text.size() < sizeof stack_copy) {
    std::memcpy(stack_copy, text.data(), text.size());
    stack_copy[text.size()] = '\0';
  } else {
    heap_copy.assign(text);
    begin = heap_copy.c_str();
  }
  errno = 0;
  char* end = nullptr;
  const double base = std::strtod(begin, &end);
  if (end == begin) {
    return Status(ErrorCode::kParseError,
                  "parse_spice_value: malformed number '" + std::string(text) + "'");
  }
  if (errno == ERANGE && (base == HUGE_VAL || base == -HUGE_VAL)) {
    return Status(ErrorCode::kValueOutOfRange, "parse_spice_value: magnitude of '" +
                                                   std::string(text) + "' exceeds double range");
  }
  // Rejects strtod's "nan"/"inf"(/"infinity") spellings: a netlist value
  // must be a finite literal. (ERANGE underflow to a subnormal is fine.)
  if (!std::isfinite(base)) {
    return Status(ErrorCode::kParseError,
                  "parse_spice_value: non-finite value '" + std::string(text) + "'");
  }
  const std::string_view suffix = text.substr(static_cast<std::size_t>(end - begin));
  double scale = 1.0;
  bool matched = false;
  // Longest-prefix match on the suffix; remaining letters must be unit text.
  for (const ScalePrefix& prefix : kScalePrefixes) {
    if (suffix.size() >= prefix.text.size() &&
        iequals(suffix.substr(0, prefix.text.size()), prefix.text) &&
        is_unit(suffix.substr(prefix.text.size()))) {
      scale = prefix.scale;
      matched = true;
      break;
    }
  }
  if (!matched && !is_unit(suffix)) {
    // Full-token consumption or nothing: "2nq", "1e", "3..5" all land
    // here instead of silently keeping the partially parsed prefix.
    return Status(ErrorCode::kParseError, "parse_spice_value: trailing garbage '" +
                                              lower(suffix) + "' in '" + std::string(text) +
                                              "'");
  }
  const double value = base * scale;
  if (!std::isfinite(value)) {
    return Status(ErrorCode::kValueOutOfRange, "parse_spice_value: scaled magnitude of '" +
                                                   std::string(text) + "' exceeds double range");
  }
  return value;
}

}  // namespace relmore::circuit::reference
