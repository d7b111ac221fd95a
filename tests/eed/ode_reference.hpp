#pragma once

// An ODE reference for the closed-form responses: the node's second-order
// model driven by any sim::Source, integrated with adaptive RK45. It shares
// no arithmetic with the closed forms, so a closed form that matches it to
// the integrator's tolerance has the right shape.

#include <cmath>
#include <stdexcept>
#include <utility>
#include <vector>

#include "relmore/eed/model.hpp"
#include "relmore/sim/source.hpp"
#include "relmore/sim/waveform.hpp"
#include "relmore/util/integrate.hpp"

namespace relmore::eed::reference {

/// Response of the second-order model to an arbitrary source, integrated
/// with adaptive RK45 on  v'' + 2 zeta omega_n v' + omega_n^2 v =
/// omega_n^2 u(t) (T v' + v = u on RC nodes). Sampled at `times` (must be
/// increasing from >= 0).
inline sim::Waveform arbitrary_input_waveform(const NodeModel& node, const sim::Source& source,
                                              const std::vector<double>& times) {
  if (times.empty()) throw std::invalid_argument("arbitrary_input_waveform: no sample times");
  if (!std::isfinite(node.omega_n)) {
    // First-order ODE: T v' + v = u.
    const double T = node.sum_rc;
    const util::OdeRhs rhs = [&](double t, const std::vector<double>& y,
                                 std::vector<double>& dy) {
      dy[0] = (sim::source_value(source, t) - y[0]) / T;
    };
    std::vector<double> out(times.size());
    std::vector<double> y{0.0};
    double t_prev = 0.0;
    for (std::size_t i = 0; i < times.size(); ++i) {
      y = util::integrate_ode(rhs, t_prev, std::move(y), times[i]);
      out[i] = y[0];
      t_prev = times[i];
    }
    return sim::Waveform(times, out);
  }
  const double z2w = 2.0 * node.zeta * node.omega_n;
  const double wn2 = node.omega_n * node.omega_n;
  const util::OdeRhs rhs = [&](double t, const std::vector<double>& y,
                               std::vector<double>& dy) {
    dy[0] = y[1];
    dy[1] = wn2 * (sim::source_value(source, t) - y[0]) - z2w * y[1];
  };
  std::vector<double> out(times.size());
  std::vector<double> y{0.0, 0.0};
  double t_prev = 0.0;
  for (std::size_t i = 0; i < times.size(); ++i) {
    if (times[i] < t_prev) {
      throw std::invalid_argument("arbitrary_input_waveform: times must be non-decreasing");
    }
    y = util::integrate_ode(rhs, t_prev, std::move(y), times[i]);
    out[i] = y[0];
    t_prev = times[i];
  }
  return sim::Waveform(times, out);
}

}  // namespace relmore::eed::reference
