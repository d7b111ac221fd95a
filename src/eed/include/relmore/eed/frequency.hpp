#pragma once

/// \file frequency.hpp
/// Frequency-domain view of the second-order node model: the transfer
/// function H(jw) and the closed-form resonance/bandwidth
/// quantities that follow from (zeta, omega_n). Inductive interconnect is
/// a resonant low-pass — the resonant peak is the frequency-domain twin of
/// the time-domain overshoot the paper characterizes, and the exact
/// state-space transfer (sim::ModalSolver::transfer) provides the
/// reference these closed forms are tested against.

#include <complex>

#include "relmore/eed/model.hpp"

namespace relmore::eed {

/// H(j·omega) of the node's second-order model
/// 1 / (1 + 2 zeta (s/wn) + (s/wn)^2). For pure-RC nodes, the Wyatt
/// single-pole 1/(1 + j w tau).
[[nodiscard]] std::complex<double> transfer_function(const NodeModel& node, double omega);

/// True when the magnitude response has a resonant peak (zeta < 1/sqrt(2)).
[[nodiscard]] bool has_resonant_peak(const NodeModel& node);

/// Resonant peak frequency  wn * sqrt(1 - 2 zeta^2); throws when no peak.
[[nodiscard]] double peak_frequency(const NodeModel& node);

/// Peak magnitude |H|max = 1 / (2 zeta sqrt(1 - zeta^2)); throws when no peak.
[[nodiscard]] double peak_magnitude(const NodeModel& node);

/// -3 dB bandwidth: wn * sqrt(1 - 2z^2 + sqrt((1 - 2z^2)^2 + 1)); for
/// pure-RC nodes, 1/tau.
[[nodiscard]] double bandwidth_3db(const NodeModel& node);

}  // namespace relmore::eed
