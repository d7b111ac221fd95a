#pragma once

/// \file design.hpp
/// The design corpus model: many named nets (each an RLC tree), the cell
/// instances connecting them, and the boundary ports — the input the
/// chip-scale timing flow (timing_graph.hpp) consumes.
///
/// Corpus text format (SPEF-subset in spirit: per-net parasitic trees with
/// named taps; line-oriented so fuzz seeds stay human-readable):
///
///     design <name>
///     cell <name> r=<ohm> cap=<F> intrinsic=<s> [slewgain=<x>] [slewfactor=<x>]
///     net <name>
///       <tree netlist lines, see circuit/netlist.hpp>
///     end
///     input <port> <net> [at=<s>] [slew=<s>]
///     output <port> <net>:<node> [required=<s>]
///     inst <name> <cell> <outnet> <innet>:<node> [<innet>:<node> ...]
///     clock <period-seconds>
///
/// Values accept SPICE SI suffixes and are read in the C locale, whatever
/// the process locale is (circuit::parse_spice_value_checked). `cell`
/// lines extend/override the base library. Every `inst` input pin taps a
/// named node of its input net; the pin capacitance is folded into that
/// node's shunt C before the net's FlatTree snapshot is taken, so the wire
/// model sees the real load.
///
/// `read_design_checked` validates everything it resolves (unknown
/// cells/nets/nodes, double-driven or undriven nets, combinational
/// cycles, a negative input `slew=`; `at=` is signed) and tags every
/// finding with the offending net/instance name (Diagnostic::net), then
/// *finalizes* the design: pin caps folded, per-net FlatTree snapshots
/// stamped with the design epoch, total load per net precomputed, per-net
/// tap offsets summed, and nets levelized into a topological order.

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "relmore/circuit/flat_tree.hpp"
#include "relmore/circuit/rlc_tree.hpp"
#include "relmore/sta/liberty.hpp"
#include "relmore/util/diagnostics.hpp"
#include "relmore/util/name_index.hpp"

namespace relmore::sta {

/// Who drives a net.
enum class DriverKind : std::uint8_t {
  kNone = 0,   ///< unresolved (an error after finalize)
  kPort,       ///< a primary input port
  kInstance,   ///< a cell instance output pin
};

/// One net: a named RLC tree plus its resolved connectivity.
struct Net {
  std::string name;
  circuit::RlcTree tree;      ///< parsed tree, pin caps folded into tap nodes
  circuit::FlatTree flat;     ///< SoA snapshot of `tree` (analysis hot path)
  std::uint64_t epoch = 0;    ///< design epoch at which `flat` was snapshot
  double total_cap = 0.0;     ///< load the net presents to its driver [F]

  DriverKind driver_kind = DriverKind::kNone;
  int driver_index = -1;      ///< port or instance index, per driver_kind

  /// Tap points: instance input pins and output ports attached to nodes of
  /// this net (parallel arrays; sink_kind true = output port).
  struct Tap {
    circuit::SectionId node = circuit::kInput;
    bool is_port = false;  ///< true: output port `index`; false: instance input
    int index = -1;        ///< port index, or instance index
    int pin = -1;          ///< input pin position within the instance (ports: -1)
  };
  std::vector<Tap> taps;

  int level = -1;  ///< topological level (0 = driven by an input port)
};

/// One cell instance: output net plus one tap per input pin.
struct Instance {
  std::string name;
  int cell = -1;      ///< index into Design::library
  int out_net = -1;   ///< net driven by the output pin
  /// Input pins: (net index, tap index within that net), pin order.
  struct Pin {
    int net = -1;
    int tap = -1;
  };
  std::vector<Pin> inputs;
};

/// A boundary port. Input ports launch arrivals at a net's driving point;
/// output ports are timing endpoints at a tap node.
struct DesignPort {
  std::string name;
  bool is_input = false;
  int net = -1;
  int tap = -1;                ///< output ports: tap index in the net; inputs: -1
  double arrival = 0.0;        ///< input ports: launch time [s]
  double slew = 0.0;           ///< input ports: 10-90% edge rate [s] (0 = step, >= 0)
  double required = 0.0;       ///< output ports: required time [s]
  bool has_required = false;   ///< false: fall back to the design clock
};

/// The whole corpus, finalized and ready for analysis.
struct Design {
  std::string name;
  CellLibrary library;
  std::vector<Net> nets;
  std::vector<Instance> instances;
  std::vector<DesignPort> ports;
  double clock_period = 0.0;   ///< 0 = unconstrained endpoints
  std::uint64_t epoch = 0;     ///< bumped by each finalize; stamps Net::flat

  /// Net indices in propagation order (every net appears after the nets
  /// that feed its driver).
  std::vector<int> topo_nets;

  /// Where each net's taps start in the design-wide per-tap arrays of a
  /// TimingResult: the prefix sums of the nets' tap counts, so net `ni`
  /// owns slots [tap_offset[ni], tap_offset[ni + 1]) and the last entry
  /// is the design's tap total. Size nets.size() + 1.
  std::vector<std::size_t> tap_offset;

  /// Name -> index tables over `nets`, `instances` and `ports`, written by
  /// read_design_checked. Each is one util::NameIndex that compares names
  /// through the vector it indexes, so it holds no copy of a name. A read
  /// is accepted only with unique names and with the i-th item read at
  /// index i, so a position a table gives is that item's index. Lookups
  /// see the names as read: a design assembled by hand has empty tables
  /// and finds nothing, and an item renamed after the read is not found.
  util::NameIndex net_index;
  util::NameIndex inst_names;
  util::NameIndex port_names;

  /// Index of the net, instance or port named `name`, or -1: one hash
  /// probe through the tables above.
  [[nodiscard]] int find_net(const std::string& name) const;
  [[nodiscard]] int find_instance(const std::string& name) const;
  [[nodiscard]] int find_port(const std::string& name) const;
  [[nodiscard]] std::size_t endpoint_count() const;
};

/// Parses and finalizes a corpus file. `base` seeds the cell library
/// (corpus `cell` lines extend/override it); `report`, when given,
/// collects every finding — errors and warnings — instead of only the
/// first error the Status carries. Never throws.
[[nodiscard]] util::Result<Design> read_design_checked(std::istream& is,
                                                       CellLibrary base = generic_library(),
                                                       util::DiagnosticsReport* report = nullptr);

}  // namespace relmore::sta
