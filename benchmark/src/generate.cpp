#include "generate.hpp"

#include <cstdio>
#include <set>
#include <utility>

namespace bench {

namespace {

constexpr std::size_t kChainDepth = 4;

struct Shape {
  std::vector<int> parents;
  bool rlc = false;
};

/// Parent of each section drawn from the `window` sections before it
/// (window 0: anywhere before it). Section 0 is the only root.
std::vector<int> random_parents(std::size_t n, std::size_t window, Rng& rng) {
  std::vector<int> parents(n);
  parents[0] = -1;
  for (std::size_t i = 1; i < n; ++i) {
    const std::size_t lo = window == 0 || i <= window ? 0 : i - window;
    parents[i] = static_cast<int>(lo + rng.below(i - lo));
  }
  return parents;
}

std::string format_value(double v) {
  char buf[32];
  const int len = std::snprintf(buf, sizeof buf, "%.6g", v);
  return std::string(buf, static_cast<std::size_t>(len));
}

void append_value(std::string& out, char key, double v) {
  out += ' ';
  out += key;
  out += '=';
  out += format_value(v);
}

std::string tap_of(const NetInfo& net) {
  return net.name + ":s" + std::to_string(net.sections - 1);
}

/// Emits chains of depth 4: net c*4+s of chain c uses shapes[c*4+s]; every
/// instance taps the last section of its input nets.
GeneratedDesign emit_chains(const std::string& name, const std::vector<const Shape*>& shapes,
                            const WireRange& wire, double clock_period, std::uint64_t seed) {
  GeneratedDesign g;
  g.wire = wire;
  g.clock_period = clock_period;
  std::string& t = g.text;
  t += "design " + name + "\nclock " + format_value(clock_period) + "\n";

  const std::size_t chains = shapes.size() / kChainDepth;
  g.nets.reserve(shapes.size());
  for (std::size_t i = 0; i < shapes.size(); ++i) {
    const Shape& shape = *shapes[i];
    Rng rng{seed ^ (0xD1B54A32D192ED03ULL * (i + 1))};
    NetInfo net;
    char name_buf[48];
    std::snprintf(name_buf, sizeof name_buf, "n%zu_%zu", i / kChainDepth, i % kChainDepth);
    net.name = name_buf;
    net.sections = shape.parents.size();
    net.rlc = shape.rlc;
    t += "net " + net.name + "\n";
    net.block_begin = t.size();
    for (std::size_t k = 0; k < shape.parents.size(); ++k) {
      t += "  section s" + std::to_string(k);
      if (shape.parents[k] < 0) {
        t += " -";
      } else {
        t += " s";
        t += std::to_string(shape.parents[k]);
      }
      append_value(t, 'R', wire.r_lo + (wire.r_hi - wire.r_lo) * rng.unit());
      append_value(t, 'L', shape.rlc ? wire.l_hi * (0.5 + rng.unit()) : 0.0);
      append_value(t, 'C', wire.c_lo + (wire.c_hi - wire.c_lo) * rng.unit());
      t += '\n';
    }
    net.block_size = t.size() - net.block_begin;
    t += "end\n";
    g.nets.push_back(std::move(net));
  }

  Rng cells{seed ^ 0x5DEECE66DULL};
  for (std::size_t c = 0; c < chains; ++c) {
    const std::string chain = std::to_string(c);
    t += "input in" + chain + " " + g.nets[c * kChainDepth].name + " at=0 slew=20p\n";
    for (std::size_t s = 0; s + 1 < kChainDepth; ++s) {
      const std::size_t i = c * kChainDepth + s;
      const std::string inst = "u" + chain + "_" + std::to_string(s);
      const std::string& out = g.nets[i + 1].name;
      // Side input from the neighbouring chain's same-stage net: same
      // topological level, so no cycle can form.
      if (c > 0 && cells.below(7) == 0) {
        t += "inst " + inst + " nand2_x1 " + out + " " + tap_of(g.nets[i]) + " " +
             tap_of(g.nets[i - kChainDepth]) + "\n";
        continue;
      }
      const bool x4 = cells.below(2) == 1;
      t += "inst " + inst + (x4 ? " buf_x4 " : " buf_x1 ") + out + " " + tap_of(g.nets[i]) + "\n";
      g.buffers.push_back(inst);
      g.buffer_is_x4.push_back(x4);
    }
    g.endpoints.push_back("out" + chain);
    t += "output out" + chain + " " + tap_of(g.nets[c * kChainDepth + kChainDepth - 1]) + "\n";
  }
  return g;
}

}  // namespace

GeneratedDesign make_small(std::size_t nets, std::uint64_t seed) {
  Rng rng{seed * 0x9E3779B97F4A7C15ULL + 0x5EED};
  std::set<std::vector<int>> seen;
  std::vector<Shape> classes(8);
  for (std::size_t k = 0; k < classes.size(); ++k) {
    classes[k].parents = random_parents(5 + k, 3, rng);
    classes[k].rlc = k % 2 == 1;
    seen.insert(classes[k].parents);
  }
  // Unique topologies need 9+ sections: a 5-section tree has too few
  // distinct shapes for thousands of nets, and a shape shared by 4 nets
  // would be batched.
  std::vector<Shape> own;
  own.reserve(nets / 2);
  while (own.size() < nets / 2) {
    Shape s;
    s.parents = random_parents(9 + rng.below(4), 0, rng);
    s.rlc = rng.below(2) == 1;
    if (seen.insert(s.parents).second) own.push_back(std::move(s));
  }
  std::vector<const Shape*> shapes(nets);
  for (std::size_t i = 0; i < nets; ++i) {
    shapes[i] = i % 2 == 0 ? &classes[(i / 2) % classes.size()] : &own[i / 2];
  }
  const WireRange wire{10.0, 100.0, 1e-12, 5e-15, 50e-15};
  // The clock sits near the median endpoint arrival, so about half the
  // endpoints miss it and TNS sums many slacks.
  return emit_chains("small_" + std::to_string(nets), shapes, wire, 0.5e-9, seed);
}

GeneratedDesign make_large(std::uint64_t seed) {
  Rng rng{seed * 0x9E3779B97F4A7C15ULL + 0x1A26E};
  std::vector<Shape> topologies(kChainDepth);
  for (std::size_t k = 0; k < topologies.size(); ++k) {
    topologies[k].parents = random_parents(1023, 8, rng);
    topologies[k].rlc = k % 2 == 1;
  }
  std::vector<const Shape*> shapes(256);
  for (std::size_t i = 0; i < shapes.size(); ++i) shapes[i] = &topologies[i % kChainDepth];
  const WireRange wire{0.5, 2.0, 2e-14, 0.2e-15, 1e-15};
  // Near the median endpoint arrival, as in make_small.
  return emit_chains("large_256x1023", shapes, wire, 1.2e-9, seed);
}

}  // namespace bench
