// libFuzzer harness for circuit::parse_spice_value(_checked).
//
// Invariants checked (abort on violation):
//  - the checked variant never throws, whatever the bytes;
//  - an accepted value is always finite;
//  - the throwing shim agrees with the checked variant bit-for-bit;
//  - the checked variant agrees with the strtod reference it replaced
//    (tests/circuit/spice_value_reference.hpp) on the verdict, the error
//    code and message, and the bits.

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "../circuit/spice_value_reference.hpp"
#include "relmore/circuit/netlist.hpp"
#include "relmore/util/diagnostics.hpp"

namespace rc = relmore::circuit;

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
  if (size > 4096) return 0;  // a value token is one line; bound the cost
  const std::string text(reinterpret_cast<const char*>(data), size);

  relmore::util::Result<double> checked(0.0);
  try {
    checked = rc::parse_spice_value_checked(text);
  } catch (...) {
    std::abort();  // the checked API promises "never throws"
  }
  if (checked.is_ok() && !std::isfinite(checked.value())) std::abort();

  const relmore::util::Result<double> reference = rc::reference::parse_spice_value_checked(text);
  if (checked.is_ok() != reference.is_ok()) std::abort();
  if (checked.is_ok() && std::bit_cast<std::uint64_t>(checked.value()) !=
                             std::bit_cast<std::uint64_t>(reference.value())) {
    std::abort();
  }
  if (!checked.is_ok() && (checked.status().code() != reference.status().code() ||
                           checked.status().message() != reference.status().message())) {
    std::abort();
  }

  try {
    const double v = rc::parse_spice_value(text);
    if (!checked.is_ok()) std::abort();             // shim accepted, checked rejected
    if (v != checked.value()) std::abort();         // must be the same bits
  } catch (const std::invalid_argument&) {
    if (checked.is_ok()) std::abort();              // shim rejected, checked accepted
  } catch (...) {
    std::abort();  // only util::FaultError (an invalid_argument) is documented
  }
  return 0;
}
