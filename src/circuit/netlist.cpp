#include "relmore/circuit/netlist.hpp"

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <clocale>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <istream>
#include <iterator>
#include <map>
#include <ostream>
#include <stdexcept>
#include <vector>

#include "relmore/circuit/validate.hpp"
#include "relmore/util/name_index.hpp"

namespace relmore::circuit {

using util::ErrorCode;
using util::FaultError;
using util::Result;
using util::Status;

namespace {

/// `c` with A-Z folded to a-z and every other byte kept: std::tolower in
/// the C locale, whatever the process locale is.
constexpr char ascii_lower(char c) { return c >= 'A' && c <= 'Z' ? static_cast<char>(c + 32) : c; }

std::string lower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(), ascii_lower);
  return out;
}

/// `s` equals the lowercase ASCII `lower_ascii` once folded, byte by byte:
/// what comparing lower(s) with it decides, without the copy.
bool iequals(std::string_view s, std::string_view lower_ascii) {
  if (s.size() != lower_ascii.size()) return false;
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (ascii_lower(s[i]) != lower_ascii[i]) return false;
  }
  return true;
}

/// A failure on line `line_no`: `code`, with the line in the message and
/// in Status::line.
Status line_fail(ErrorCode code, int line_no, const std::string& msg) {
  return Status(code, "netlist line " + std::to_string(line_no) + ": " + msg, /*node=*/-1,
                line_no);
}

Status parse_fail(int line_no, const std::string& msg) {
  return line_fail(ErrorCode::kParseError, line_no, msg);
}

/// Post-parse validation shared by both readers: the parsers enforce their
/// own syntax, this re-checks the semantic invariants (values finite and
/// non-negative, structure sound, resource limits) so a deck that slipped
/// a degenerate value through arithmetic (e.g. capacitor cards summing to
/// Inf) is still rejected with a node-path diagnostic. Findings are tagged
/// with the context's net name and mirrored into its report sink, so a
/// design-level caller gets per-net attribution for every finding.
Status validate_parsed(const RlcTree& tree, const ReadContext& ctx) {
  const util::DiagnosticsReport report = validate(tree);
  if (ctx.report != nullptr) {
    for (util::Diagnostic d : report.entries()) {
      if (d.net.empty()) d.net = ctx.net;
      ctx.report->add(std::move(d));
    }
  }
  return report.to_status().with_net(ctx.net);
}

/// SI scale prefixes, longest first where one is a prefix of another
/// ("meg" before "m"): the first whose remainder is unit text wins.
struct ScalePrefix {
  std::string_view text;
  double scale;
};
constexpr ScalePrefix kScalePrefixes[] = {
    {"meg", 1e6}, {"f", 1e-15}, {"p", 1e-12}, {"n", 1e-9}, {"u", 1e-6},
    {"m", 1e-3},  {"k", 1e3},   {"g", 1e9},   {"t", 1e12},
};
constexpr std::string_view kUnits[] = {"", "h", "f", "ohm", "s", "v"};

bool is_unit(std::string_view rest) {
  return std::any_of(std::begin(kUnits), std::end(kUnits),
                     [&](std::string_view unit) { return iequals(rest, unit); });
}

/// The number at the front of `text` as strtod reads it in the C locale,
/// into `*base`, and the count of bytes it took into `*taken`. This is the
/// reader's grammar; std::from_chars follows it except for the spellings
/// that come here (see parse_spice_value_checked).
Status strtod_c_locale(std::string_view text, double* base, std::size_t* taken) {
  // Made once ("C" always exists); strtod_l reads it instead of the
  // process locale that setlocale changes.
  static const locale_t c_locale = newlocale(LC_ALL_MASK, "C", locale_t{});
  // strtod_l wants a NUL-terminated string: value-sized tokens are copied
  // to the stack, only longer ones to the heap.
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
  *base = strtod_l(begin, &end, c_locale);
  if (end == begin) {
    return Status(ErrorCode::kParseError,
                  "parse_spice_value: malformed number '" + std::string(text) + "'");
  }
  if (errno == ERANGE && (*base == HUGE_VAL || *base == -HUGE_VAL)) {
    return Status(ErrorCode::kValueOutOfRange, "parse_spice_value: magnitude of '" +
                                                   std::string(text) + "' exceeds double range");
  }
  *taken = static_cast<std::size_t>(end - begin);
  return Status::ok();
}

}  // namespace

void split_tokens(std::string_view line, std::vector<std::string_view>& out) {
  out.clear();
  for (std::string_view tok = next_token(line); !tok.empty(); tok = next_token(line)) {
    out.push_back(tok);
  }
}

Result<double> parse_spice_value_checked(std::string_view text) {
  if (text.empty()) {
    return Status(ErrorCode::kParseError, "parse_spice_value: empty value");
  }
  // std::from_chars reads the C locale's decimal grammar and rounds
  // correctly, as strtod does. What it does not take goes to strtod_l: a
  // leading '+' or blank, no number at all, a range error, and a hex
  // mantissa, which from_chars stops at the 'x' of its "0x".
  double base = 0.0;
  const char* const first = text.data();
  const auto [stop, ec] = std::from_chars(first, first + text.size(), base);
  std::size_t taken = static_cast<std::size_t>(stop - first);
  if (ec != std::errc{} || (taken < text.size() && (*stop == 'x' || *stop == 'X'))) {
    if (Status s = strtod_c_locale(text, &base, &taken); !s.is_ok()) return s;
  }
  // Rejects the "nan"/"inf"(/"infinity") spellings both parsers take: a
  // netlist value must be a finite literal. (Underflow to a subnormal or
  // zero is fine.)
  if (!std::isfinite(base)) {
    return Status(ErrorCode::kParseError,
                  "parse_spice_value: non-finite value '" + std::string(text) + "'");
  }
  const std::string_view suffix = text.substr(taken);
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

double parse_spice_value(std::string_view text) {
  Result<double> res = parse_spice_value_checked(text);
  if (!res.is_ok()) throw FaultError(res.status());
  return res.value();
}

void write_tree_netlist(const RlcTree& tree, std::ostream& os) {
  os << "# relmore tree netlist, " << tree.size() << " sections\n";
  for (std::size_t i = 0; i < tree.size(); ++i) {
    const Section& s = tree.section(static_cast<SectionId>(i));
    const std::string name = s.name.empty() ? "s" + std::to_string(i) : s.name;
    std::string parent = "-";
    if (s.parent != kInput) {
      const Section& p = tree.section(s.parent);
      parent = p.name.empty() ? "s" + std::to_string(s.parent) : p.name;
    }
    os << "section " << name << " " << parent << " R=" << s.v.resistance
       << " L=" << s.v.inductance << " C=" << s.v.capacitance << "\n";
  }
}

namespace {

/// Wraps a reader body: tags the failure Status with the context's net
/// name and mirrors syntax errors (which bypass circuit::validate and so
/// never reached the report via validate_parsed) into the report sink.
Result<RlcTree> with_context(const ReadContext& ctx,
                             const std::function<Result<RlcTree>()>& body) {
  const std::size_t errors_before = ctx.report != nullptr ? ctx.report->error_count() : 0;
  Result<RlcTree> res = body();
  if (res.is_ok()) return res;
  const Status tagged = res.status().with_net(ctx.net);
  if (ctx.report != nullptr && ctx.report->error_count() == errors_before) {
    util::Diagnostic d;
    d.code = tagged.code();
    d.message = tagged.message();
    d.node = tagged.node();
    d.line = tagged.line();
    d.net = ctx.net;
    ctx.report->add(std::move(d));
  }
  return tagged;
}

Result<RlcTree> read_tree_netlist_impl(std::string_view text, const ReadContext& ctx) {
  // A line holds at most one section, and a section line takes at least
  // kMinSectionLine bytes with its newline, so both bound the table sizes
  // (the second keeps a text of blank lines from reserving per line).
  constexpr std::size_t kMinSectionLine = 24;  // "section a - R=0 L=0 C=0\n"
  std::size_t lines = static_cast<std::size_t>(std::count(text.begin(), text.end(), '\n'));
  if (!text.empty() && text.back() != '\n') ++lines;
  const std::size_t max_sections = std::min(lines, (text.size() + 1) / kMinSectionLine);
  RlcTree tree;
  tree.reserve(max_sections);
  // Section name -> id, comparing through the names the tree keeps.
  util::NameIndex by_name;
  by_name.reserve(max_sections);
  const auto name_of = [&tree](int id) -> const std::string& {
    return tree.sections()[static_cast<std::size_t>(id)].name;
  };
  int line_no = ctx.line_offset;
  // Lines split where std::getline would: at each '\n', with no empty
  // line after a final one.
  for (std::size_t pos = 0; pos < text.size();) {
    const std::size_t eol = std::min(text.find('\n', pos), text.size());
    std::string_view rest = text.substr(pos, eol - pos);
    pos = eol + 1;
    ++line_no;
    rest = rest.substr(0, rest.find('#'));
    // section <name> <parent|-> R= L= C=, and whether a seventh follows.
    std::string_view toks[6];
    std::size_t n = 0;
    for (std::string_view tok = next_token(rest); !tok.empty() && n < 7; tok = next_token(rest)) {
      if (n < 6) toks[n] = tok;
      ++n;
    }
    if (n == 0) continue;
    if (!iequals(toks[0], "section")) {
      return parse_fail(line_no, "expected 'section', got '" + std::string(toks[0]) + "'");
    }
    if (n != 6) {
      return parse_fail(line_no, "expected: section <name> <parent|-> R= L= C=");
    }
    const std::string_view name = toks[1];
    const std::string_view parent_name = toks[2];
    if (by_name.find(name, name_of) >= 0) {
      return line_fail(ErrorCode::kDuplicateName, line_no,
                       "duplicate section name '" + std::string(name) + "'");
    }
    SectionId parent = kInput;
    if (parent_name != "-") {
      parent = by_name.find(parent_name, name_of);
      if (parent < 0) {
        return parse_fail(line_no, "unknown parent '" + std::string(parent_name) + "'");
      }
    }
    SectionValues v;
    std::string_view negative;  // the first key=value token below zero
    for (std::size_t t = 3; t < 6; ++t) {
      const auto eq = toks[t].find('=');
      if (eq == std::string_view::npos) {
        return parse_fail(line_no, "expected key=value, got '" + std::string(toks[t]) + "'");
      }
      const std::string_view key = toks[t].substr(0, eq);
      const Result<double> val = parse_spice_value_checked(toks[t].substr(eq + 1));
      if (!val.is_ok()) return line_fail(val.status().code(), line_no, val.status().message());
      if (val.value() < 0.0 && negative.empty()) negative = toks[t];
      if (iequals(key, "r")) {
        v.resistance = val.value();
      } else if (iequals(key, "l")) {
        v.inductance = val.value();
      } else if (iequals(key, "c")) {
        v.capacitance = val.value();
      } else {
        return parse_fail(line_no, "unknown key '" + lower(key) + "'");
      }
    }
    if (!negative.empty()) {
      return line_fail(ErrorCode::kNegativeValue, line_no,
                       "negative element value '" + std::string(negative) + "'");
    }
    by_name.insert(name, tree.add_section(parent, v, std::string(name)), name_of);
  }
  if (Status s = validate_parsed(tree, ctx); !s.is_ok()) return s;
  return tree;
}

}  // namespace

Result<RlcTree> read_tree_netlist_checked(std::string_view text, const ReadContext& ctx) {
  return with_context(ctx, [&] { return read_tree_netlist_impl(text, ctx); });
}

Result<RlcTree> read_tree_netlist_checked(std::istream& is) {
  return read_tree_netlist_checked(is, ReadContext{});
}

Result<RlcTree> read_tree_netlist_checked(std::istream& is, const ReadContext& ctx) {
  std::string text;
  for (std::string line; std::getline(is, line);) text.append(line).push_back('\n');
  return read_tree_netlist_checked(text, ctx);
}

RlcTree read_tree_netlist(std::istream& is) {
  Result<RlcTree> res = read_tree_netlist_checked(is);
  if (!res.is_ok()) throw FaultError(res.status());
  return std::move(res).value();
}

void write_spice(const RlcTree& tree, std::ostream& os, const SpiceWriteOptions& opts) {
  os << "* relmore RLC tree export (" << tree.size() << " sections)\n";
  if (opts.input_rise_seconds > 0.0) {
    os << "Vin " << opts.input_node << " 0 PWL(0 0 " << opts.input_rise_seconds << " "
       << opts.supply_volts << ")\n";
  } else {
    os << "Vin " << opts.input_node << " 0 PWL(0 0 1e-15 " << opts.supply_volts << ")\n";
  }
  auto node_name = [&](SectionId i) {
    return i == kInput ? opts.input_node : "n" + std::to_string(i);
  };
  for (std::size_t i = 0; i < tree.size(); ++i) {
    const auto id = static_cast<SectionId>(i);
    const Section& s = tree.section(id);
    const std::string up = node_name(s.parent);
    const std::string down = node_name(id);
    if (s.v.inductance > 0.0) {
      const std::string mid = "m" + std::to_string(i);
      os << "R" << i << " " << up << " " << mid << " " << s.v.resistance << "\n";
      os << "L" << i << " " << mid << " " << down << " " << s.v.inductance << "\n";
    } else {
      os << "R" << i << " " << up << " " << down << " " << s.v.resistance << "\n";
    }
    if (s.v.capacitance > 0.0) {
      os << "C" << i << " " << down << " 0 " << s.v.capacitance << "\n";
    }
  }
  if (opts.tran_stop_seconds > 0.0) {
    os << ".tran " << opts.tran_stop_seconds / 1000.0 << " " << opts.tran_stop_seconds << "\n";
  }
  os << ".end\n";
}

namespace {

struct SeriesEdge {
  std::string other;
  double resistance = 0.0;
  double inductance = 0.0;
};

Result<RlcTree> read_spice_impl(std::istream& is, const ReadContext& ctx) {
  std::map<std::string, std::vector<SeriesEdge>> adj;  // node -> series neighbors
  std::map<std::string, double> cap;                   // node -> grounded C
  std::string input_node;

  std::string line;
  std::vector<std::string_view> toks;
  int line_no = ctx.line_offset;
  while (std::getline(is, line)) {
    ++line_no;
    split_tokens(line, toks);
    if (toks.empty()) continue;
    const char kind = ascii_lower(toks[0][0]);
    if (toks[0][0] == '*' || toks[0][0] == '.') continue;
    if (kind == 'v') {
      if (toks.size() < 3) return parse_fail(line_no, "malformed V card");
      input_node = toks[1] == "0" ? toks[2] : toks[1];
      continue;
    }
    if (kind != 'r' && kind != 'l' && kind != 'c') {
      return parse_fail(line_no, "unsupported element '" + std::string(toks[0]) + "'");
    }
    if (toks.size() < 4) return parse_fail(line_no, "element card needs: name n1 n2 value");
    const std::string n1(toks[1]);
    const std::string n2(toks[2]);
    const Result<double> parsed = parse_spice_value_checked(toks[3]);
    if (!parsed.is_ok()) {
      return line_fail(parsed.status().code(), line_no, parsed.status().message());
    }
    const double value = parsed.value();
    if (value < 0.0) {
      return line_fail(ErrorCode::kNegativeValue, line_no,
                       "negative element value " + std::string(toks[3]));
    }
    if (kind == 'c') {
      const std::string node = n1 == "0" ? n2 : n1;
      if (n1 != "0" && n2 != "0") {
        return parse_fail(line_no, "capacitors must be grounded in an RLC tree");
      }
      cap[node] += value;
      continue;
    }
    if (n1 == n2) {
      return parse_fail(line_no, "element shorts node '" + n1 + "' to itself");
    }
    SeriesEdge e1{n2, 0.0, 0.0};
    SeriesEdge e2{n1, 0.0, 0.0};
    if (kind == 'r') {
      e1.resistance = e2.resistance = value;
    } else {
      e1.inductance = e2.inductance = value;
    }
    adj[n1].push_back(e1);
    adj[n2].push_back(e2);
  }

  if (input_node.empty()) {
    if (adj.count("in") != 0) {
      input_node = "in";
    } else {
      return Status(ErrorCode::kParseError, "read_spice: no V card and no node named 'in'");
    }
  }
  if (adj.count(input_node) == 0) {
    return Status(ErrorCode::kParseError, "read_spice: input node has no series elements");
  }

  RlcTree tree;
  // DFS from the input, collapsing chains of series elements through
  // unloaded degree-2 nodes into single sections.
  struct Work {
    std::string node;      // node to expand
    SectionId section;     // tree section ending at `node` (kInput at start)
    std::string came_from; // avoid walking back up the edge we arrived on
  };
  std::vector<Work> stack{{input_node, kInput, ""}};
  std::map<std::string, bool> visited{{input_node, true}};

  while (!stack.empty()) {
    const Work w = stack.back();
    stack.pop_back();
    for (const SeriesEdge& first : adj[w.node]) {
      if (first.other == w.came_from) continue;
      if (visited.count(first.other) != 0) {
        // In a tree the only edge to a visited node is the one we arrived
        // on (came_from); any other such edge closes a cycle.
        return Status(ErrorCode::kCycle,
                      "read_spice: circuit graph contains a loop at node " + first.other);
      }
      // Walk the chain until a node that carries a C, branches, or is a leaf.
      double r_acc = first.resistance;
      double l_acc = first.inductance;
      std::string prev = w.node;
      std::string cur = first.other;
      while (true) {
        const auto& nbrs = adj[cur];
        const bool loaded = cap.count(cur) != 0;
        if (loaded || nbrs.size() != 2) break;
        const SeriesEdge& next = nbrs[0].other == prev ? nbrs[1] : nbrs[0];
        r_acc += next.resistance;
        l_acc += next.inductance;
        prev = cur;
        cur = next.other;
        if (visited.count(cur) != 0) {
          return Status(ErrorCode::kCycle,
                        "read_spice: circuit graph contains a loop at node " + cur);
        }
      }
      if (visited.count(cur) != 0) {
        return Status(ErrorCode::kCycle,
                      "read_spice: circuit graph contains a loop at node " + cur);
      }
      visited[cur] = true;
      const double c = cap.count(cur) != 0 ? cap.at(cur) : 0.0;
      try {
        const SectionId sec = tree.add_section(w.section, {r_acc, l_acc, c}, cur);
        stack.push_back({cur, sec, prev});
      } catch (const std::invalid_argument& e) {
        // Accumulated series values can only misbehave numerically
        // (negative cards were rejected per line); report with node context.
        return Status(ErrorCode::kInvalidArgument,
                      std::string("read_spice: node '") + cur + "': " + e.what());
      }
    }
  }
  if (tree.empty()) {
    return Status(ErrorCode::kEmptyTree, "read_spice: no tree sections found");
  }
  if (Status s = validate_parsed(tree, ctx); !s.is_ok()) return s;
  return tree;
}

}  // namespace

Result<RlcTree> read_spice_checked(std::istream& is) {
  return read_spice_checked(is, ReadContext{});
}

Result<RlcTree> read_spice_checked(std::istream& is, const ReadContext& ctx) {
  return with_context(ctx, [&] { return read_spice_impl(is, ctx); });
}

RlcTree read_spice(std::istream& is) {
  Result<RlcTree> res = read_spice_checked(is);
  if (!res.is_ok()) throw FaultError(res.status());
  return std::move(res).value();
}

}  // namespace relmore::circuit
