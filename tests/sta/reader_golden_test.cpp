// Golden output of the text readers over the checked-in fuzz seeds.
//
// Every seed under tests/fuzz/corpus/{design,tree_netlist,parse_spice_value}
// is fed to its reader, and everything the reader promises is rendered as
// text: the Status (code, message, node, line, net), every DiagnosticsReport
// entry in order, and for accepted inputs a digest over every field of the
// result (a Design's nets, trees, FlatTree bits, taps, instances, ports,
// levels, topological order, loads, epochs and library). A 400-net
// synthetic corpus adds resolution at scale. The rendering is
// compared with tests/testdata/reader_golden.txt, so a reader rewrite that
// moves one bit or one byte of a message fails here, naming the seed.
//
// The seeds the expected file lists must all exist. On a failure the full
// rendering of every seed present is written to reader_golden.actual.txt
// in the working directory, which is what to diff (or copy over the
// expected file, when a change in output is intended).

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "relmore/circuit/netlist.hpp"
#include "relmore/sta/design.hpp"
#include "relmore/sta/synthetic.hpp"
#include "relmore/util/diagnostics.hpp"

namespace relmore {
namespace {

namespace fs = std::filesystem;

const fs::path kCorpus = fs::path(RELMORE_TESTDATA_DIR) / ".." / "fuzz" / "corpus";
const fs::path kExpected = fs::path(RELMORE_TESTDATA_DIR) / "reader_golden.txt";
constexpr const char* kKinds[] = {"design", "tree_netlist", "parse_spice_value"};

std::string slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// Printable ASCII stays; every other byte (and the double quote and
/// backslash that delimit the rendering) becomes \xHH, so a message
/// carrying a NUL, CR or newline keeps one line of the expected file.
std::string escape(const std::string& s) {
  std::string out;
  for (const char ch : s) {
    const auto c = static_cast<unsigned char>(ch);
    if (c < 0x20 || c >= 0x7f || c == '"' || c == '\\') {
      char buf[5];
      std::snprintf(buf, sizeof buf, "\\x%02x", c);
      out += buf;
    } else {
      out += ch;
    }
  }
  return out;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// FNV-1a over a little-endian byte stream of typed fields.
class Digest {
 public:
  void u64(std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h_ ^= (v >> (8 * b)) & 0xFFU;
      h_ *= 0x100000001B3ULL;
    }
  }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void str(const std::string& s) {
    u64(s.size());
    for (const char c : s) {
      h_ ^= static_cast<unsigned char>(c);
      h_ *= 0x100000001B3ULL;
    }
  }
  template <typename T>
  void ints(const std::vector<T>& v) {
    u64(v.size());
    for (const T x : v) i64(x);
  }
  void doubles(const std::vector<double>& v) {
    u64(v.size());
    for (const double x : v) f64(x);
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ULL;
};

void digest_tree(Digest& d, const circuit::RlcTree& tree) {
  d.u64(tree.size());
  for (const circuit::Section& s : tree.sections()) {
    d.i64(s.parent);
    d.f64(s.v.resistance);
    d.f64(s.v.inductance);
    d.f64(s.v.capacitance);
    d.str(s.name);
  }
}

void digest_table(Digest& d, const sta::TimingTable& t) {
  d.doubles(t.slew_axis());
  d.doubles(t.load_axis());
  for (const double s : t.slew_axis()) {
    for (const double l : t.load_axis()) d.f64(t.lookup(s, l));
  }
}

std::uint64_t digest_design(const sta::Design& design) {
  Digest d;
  d.str(design.name);
  d.f64(design.clock_period);
  d.u64(design.epoch);
  d.u64(design.library.size());
  for (std::size_t i = 0; i < design.library.size(); ++i) {
    const sta::Cell& cell = design.library.cell(i);
    d.str(cell.name);
    d.f64(cell.input_cap);
    digest_table(d, cell.delay);
    digest_table(d, cell.output_slew);
  }
  d.u64(design.nets.size());
  for (const sta::Net& net : design.nets) {
    d.str(net.name);
    digest_tree(d, net.tree);
    const circuit::FlatTree& f = net.flat;
    d.ints(f.parent());
    d.doubles(f.resistance());
    d.doubles(f.inductance());
    d.doubles(f.capacitance());
    d.ints(f.child_count());
    d.ints(f.level());
    d.i64(f.depth());
    d.u64(f.names().size());
    for (const std::string& name : f.names()) d.str(name);
    d.u64(net.epoch);
    d.f64(net.total_cap);
    d.i64(static_cast<int>(net.driver_kind));
    d.i64(net.driver_index);
    d.u64(net.taps.size());
    for (const sta::Net::Tap& tap : net.taps) {
      d.i64(tap.node);
      d.i64(tap.is_port ? 1 : 0);
      d.i64(tap.index);
      d.i64(tap.pin);
    }
    d.i64(net.level);
  }
  d.u64(design.instances.size());
  for (const sta::Instance& inst : design.instances) {
    d.str(inst.name);
    d.i64(inst.cell);
    d.i64(inst.out_net);
    d.u64(inst.inputs.size());
    for (const sta::Instance::Pin& pin : inst.inputs) {
      d.i64(pin.net);
      d.i64(pin.tap);
    }
  }
  d.u64(design.ports.size());
  for (const sta::DesignPort& port : design.ports) {
    d.str(port.name);
    d.i64(port.is_input ? 1 : 0);
    d.i64(port.net);
    d.i64(port.tap);
    d.f64(port.arrival);
    d.f64(port.slew);
    d.f64(port.required);
    d.i64(port.has_required ? 1 : 0);
  }
  d.ints(design.topo_nets);
  return d.value();
}

std::string render_status(const util::Status& s) {
  if (s.is_ok()) return "status ok\n";
  return "status " + std::string(util::error_code_name(s.code())) +
         " line=" + std::to_string(s.line()) + " node=" + std::to_string(s.node()) + " net=\"" +
         escape(s.net()) + "\" msg=\"" + escape(s.message()) + "\"\n";
}

std::string render_report(const util::DiagnosticsReport& report) {
  std::string out;
  for (const util::Diagnostic& e : report.entries()) {
    out += std::string(e.warning ? "warn " : "error ") + util::error_code_name(e.code) +
           " line=" + std::to_string(e.line) + " node=" + std::to_string(e.node) + " net=\"" +
           escape(e.net) + "\" path=\"" + escape(e.path) + "\" msg=\"" + escape(e.message) +
           "\"\n";
  }
  return out;
}

std::string render_design(const std::string& text) {
  util::DiagnosticsReport report;
  std::istringstream is(text);
  const util::Result<sta::Design> r = sta::read_design_checked(is, sta::generic_library(), &report);
  std::string out = render_status(r.status());
  if (r.is_ok()) {
    const sta::Design& d = r.value();
    out += "design nets=" + std::to_string(d.nets.size()) +
           " instances=" + std::to_string(d.instances.size()) +
           " ports=" + std::to_string(d.ports.size()) + " digest=" + hex64(digest_design(d)) +
           "\n";
  }
  return out + render_report(report);
}

std::string render_tree(const util::Result<circuit::RlcTree>& r) {
  std::string out = render_status(r.status());
  if (r.is_ok()) {
    Digest d;
    digest_tree(d, r.value());
    out += "tree sections=" + std::to_string(r.value().size()) + " digest=" + hex64(d.value()) +
           "\n";
  }
  return out;
}

std::string render_tree_netlist(const std::string& text) {
  std::istringstream plain(text);
  std::string out = "plain " + render_tree(circuit::read_tree_netlist_checked(plain));
  // The design reader's path: net-tagged findings, lines offset, report mirror.
  util::DiagnosticsReport report;
  circuit::ReadContext ctx;
  ctx.net = "ctx";
  ctx.line_offset = 100;
  ctx.report = &report;
  std::istringstream in_context(text);
  out += "context " + render_tree(circuit::read_tree_netlist_checked(in_context, ctx));
  return out + render_report(report);
}

std::string render_spice_value(const std::string& text) {
  const util::Result<double> r = circuit::parse_spice_value_checked(text);
  if (!r.is_ok()) return render_status(r.status());
  return "value " + hex64(std::bit_cast<std::uint64_t>(r.value())) + "\n";
}

std::string render(const std::string& kind, const std::string& text) {
  if (kind == "design") return render_design(text);
  if (kind == "tree_netlist") return render_tree_netlist(text);
  return render_spice_value(text);
}

/// "== kind/name" headers, each followed by that seed's rendering.
std::map<std::string, std::string> parse_expected(const std::string& text) {
  std::map<std::string, std::string> entries;
  std::istringstream is(text);
  std::string line;
  std::string* current = nullptr;
  while (std::getline(is, line)) {
    if (line.rfind("== ", 0) == 0) {
      current = &entries[line.substr(3)];
    } else if (current != nullptr) {
      *current += line + "\n";
    }
  }
  return entries;
}

TEST(ReaderGolden, EverySeedRendersAsRecorded) {
  // Render every seed present, in a fixed order.
  std::map<std::string, std::string> actual;
  for (const char* kind : kKinds) {
    std::vector<fs::path> files;
    for (const auto& entry : fs::directory_iterator(kCorpus / kind)) {
      if (entry.is_regular_file()) files.push_back(entry.path());
    }
    std::sort(files.begin(), files.end());
    for (const fs::path& f : files) {
      actual[std::string(kind) + "/" + f.filename().string()] = render(kind, slurp(f));
    }
  }
  // One corpus at scale: hundreds of nets, instances and ports to resolve.
  sta::SyntheticSpec spec;
  spec.nets = 400;
  spec.seed = 7;
  spec.topo_classes = 8;
  spec.chain_depth = 4;
  actual["synthetic/nets400"] = render_design(sta::make_synthetic_design_text(spec));
  const std::map<std::string, std::string> expected = parse_expected(slurp(kExpected));
  std::map<std::string, std::size_t> per_kind;
  for (const auto& [key, body] : expected) {
    ++per_kind[key.substr(0, key.find('/'))];
    const auto it = actual.find(key);
    if (it == actual.end()) {
      ADD_FAILURE() << "seed " << key << " is listed in " << kExpected << " but missing";
      continue;
    }
    EXPECT_EQ(it->second, body) << "seed " << key
                                << " (full rendering in reader_golden.actual.txt)";
  }
  // The seeds the fuzz replays start from, plus the reader edge cases.
  EXPECT_GE(per_kind["design"], 25u);
  EXPECT_GE(per_kind["tree_netlist"], 23u);
  EXPECT_GE(per_kind["parse_spice_value"], 30u);
  EXPECT_EQ(per_kind["synthetic"], 1u);
  if (HasFailure()) {
    std::ofstream out("reader_golden.actual.txt", std::ios::binary);
    for (const auto& [key, body] : actual) out << "== " << key << "\n" << body;
  }
}

}  // namespace
}  // namespace relmore
