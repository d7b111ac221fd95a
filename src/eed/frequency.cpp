#include "relmore/eed/frequency.hpp"

#include <cmath>
#include <stdexcept>

namespace relmore::eed {

namespace {

bool is_rc_limit(const NodeModel& node) { return !std::isfinite(node.omega_n); }

}  // namespace

std::complex<double> transfer_function(const NodeModel& node, double omega) {
  if (omega < 0.0) throw std::invalid_argument("transfer_function: negative frequency");
  if (is_rc_limit(node)) {
    return 1.0 / std::complex<double>(1.0, omega * node.sum_rc);
  }
  const double x = omega / node.omega_n;  // normalized frequency
  return 1.0 / std::complex<double>(1.0 - x * x, 2.0 * node.zeta * x);
}

bool has_resonant_peak(const NodeModel& node) {
  return !is_rc_limit(node) && node.zeta < M_SQRT1_2;
}

double peak_frequency(const NodeModel& node) {
  if (!has_resonant_peak(node)) {
    throw std::invalid_argument("peak_frequency: node has no resonant peak");
  }
  return node.omega_n * std::sqrt(1.0 - 2.0 * node.zeta * node.zeta);
}

double peak_magnitude(const NodeModel& node) {
  if (!has_resonant_peak(node)) {
    throw std::invalid_argument("peak_magnitude: node has no resonant peak");
  }
  return 1.0 / (2.0 * node.zeta * std::sqrt(1.0 - node.zeta * node.zeta));
}

double bandwidth_3db(const NodeModel& node) {
  if (is_rc_limit(node)) return 1.0 / node.sum_rc;
  const double a = 1.0 - 2.0 * node.zeta * node.zeta;
  return node.omega_n * std::sqrt(a + std::sqrt(a * a + 1.0));
}

}  // namespace relmore::eed
