#pragma once

/// \file netlist.hpp
/// Netlist I/O for RLC trees.
///
/// Two formats are supported:
///  1. the *tree netlist*, a minimal line format that round-trips RlcTree
///     exactly:
///         # comment
///         section <name> <parent-name|-> R=<val> L=<val> C=<val>
///     Values accept SPICE SI suffixes (f p n u m k meg g t).
///  2. a SPICE subset: `R/L/C` cards (plus an optional `V` card naming the
///     input node) are parsed and the series R–L chains are collapsed back
///     into tree sections, so decks written by write_spice() — or by other
///     tools following the same convention — can be re-imported.

#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "relmore/circuit/rlc_tree.hpp"
#include "relmore/util/diagnostics.hpp"

namespace relmore::circuit {

/// Pops the next token off the front of `rest`, splitting at the bytes
/// `is >> token` skips in the classic locale: space, \t, \n, \v, \f and
/// \r. Returns an empty view, and empties `rest`, when no token is left.
/// The one tokenizer of every reader here and of sta::read_design_checked:
/// views into the caller's line, no copies.
constexpr std::string_view next_token(std::string_view& rest) {
  const auto is_space = [](char c) { return c == ' ' || (c >= '\t' && c <= '\r'); };
  std::size_t begin = 0;
  while (begin < rest.size() && is_space(rest[begin])) ++begin;
  std::size_t end = begin;
  while (end < rest.size() && !is_space(rest[end])) ++end;
  const std::string_view token = rest.substr(begin, end - begin);
  rest.remove_prefix(end);
  return token;
}

/// Every token of `line`, in order, into `out` (cleared first; its
/// capacity is reused across lines).
void split_tokens(std::string_view line, std::vector<std::string_view>& out);

/// Parses "12.5", "2n", "0.2p", "1meg" etc. into a finite double. Rejects
/// trailing garbage ("2nq", "1e"), non-finite literals ("nan", "inf"), and
/// magnitudes outside double range ("1e999", "1e308k") with a structured
/// status (kParseError / kValueOutOfRange). The number is read in the C
/// locale whatever the process locale is: std::from_chars reads it in
/// place, and the spellings from_chars does not take (a leading '+', a hex
/// mantissa, a range error) go to strtod_l under a C locale_t, so every
/// value has the bits strtod gives it in the C locale. The SI suffix is
/// matched in place with an ASCII case fold. An accepted value allocates
/// nothing; only a reject message, or a fallback token over 63 bytes, does.
[[nodiscard]] util::Result<double> parse_spice_value_checked(std::string_view text);

/// Exception-compatible shim over parse_spice_value_checked: throws
/// util::FaultError (a std::invalid_argument) on any rejected input.
double parse_spice_value(std::string_view text);

/// Writes the tree netlist format.
void write_tree_netlist(const RlcTree& tree, std::ostream& os);

/// Context for design-level reads, where one parse covers many embedded
/// nets: every finding is tagged with the enclosing net/instance name
/// (Diagnostic::net / Status::net — a bare "node 3" is useless across a
/// 10^5-net corpus), local line numbers are offset into the enclosing
/// file, and `report` (optional) collects *all* validation findings
/// instead of only the first error the Status carries.
struct ReadContext {
  std::string net;      ///< enclosing net/instance name ("" = standalone)
  int line_offset = 0;  ///< added to this block's 1-based line numbers
  util::DiagnosticsReport* report = nullptr;  ///< optional sink for findings
};

/// Parses the tree netlist held in `text` and validates the result
/// (circuit::validate: finite non-negative values, sound structure,
/// resource limits). Returns a Status with a line number (syntax errors)
/// or node path (validation errors) on failure; never throws. `ctx` adds
/// design-level context: findings name the enclosing net.
///
/// The reader's one core, and its in-memory entry: one pass over `text`,
/// with tokens as views into it and the section names indexed by a
/// util::NameIndex that compares through the tree, so the only strings it
/// allocates are the section names the tree keeps. The tree is reserved
/// once for the block's line count. A value keeps the code
/// parse_spice_value_checked gives it, and a negative element is
/// kNegativeValue, each with its line. The istream overloads read the
/// stream into a string and call it; sta::read_design_checked hands it one
/// net block at a time.
[[nodiscard]] util::Result<RlcTree> read_tree_netlist_checked(std::string_view text,
                                                              const ReadContext& ctx = {});

/// Reads `is` to its end and parses it as above.
[[nodiscard]] util::Result<RlcTree> read_tree_netlist_checked(std::istream& is);

/// Same, with design-level context: findings name the enclosing net.
[[nodiscard]] util::Result<RlcTree> read_tree_netlist_checked(std::istream& is,
                                                              const ReadContext& ctx);

/// Exception-compatible shim over read_tree_netlist_checked. Throws
/// util::FaultError (a std::invalid_argument) with a line-numbered message
/// on any syntax, topology, or validation error.
RlcTree read_tree_netlist(std::istream& is);

/// Options for SPICE export.
struct SpiceWriteOptions {
  std::string input_node = "in";
  double supply_volts = 1.0;
  double input_rise_seconds = 0.0;  ///< 0 = ideal step
  double tran_stop_seconds = 0.0;   ///< 0 = omit .tran card
};

/// Emits a SPICE deck: V source at the input, one R (and L when nonzero)
/// per section, one C per loaded node.
void write_spice(const RlcTree& tree, std::ostream& os, const SpiceWriteOptions& opts = {});

/// Parses a SPICE-subset deck back into an RlcTree and validates the
/// result. The input node is taken from the V card when present, else a
/// node literally named "in". Returns a Status when the deck is not a
/// valid tree of series R/L sections with grounded capacitors; never
/// throws.
[[nodiscard]] util::Result<RlcTree> read_spice_checked(std::istream& is);

/// Same, with design-level context: findings name the enclosing net.
[[nodiscard]] util::Result<RlcTree> read_spice_checked(std::istream& is,
                                                       const ReadContext& ctx);

/// Exception-compatible shim over read_spice_checked. Throws
/// util::FaultError (a std::invalid_argument) on any rejected deck.
RlcTree read_spice(std::istream& is);

}  // namespace relmore::circuit
