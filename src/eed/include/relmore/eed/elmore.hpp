#pragma once

/// \file elmore.hpp
/// The RC baselines the paper generalizes: the Elmore delay [15] (first
/// moment as the delay itself) and the Wyatt approximation [16] (first
/// moment as a single-pole time constant, delay = ln2 * tau). For RLC
/// trees both ignore inductance entirely — that gap is the paper's
/// motivation, and these are the baselines every figure bench prints.
/// Each node's Elmore time constant tau_i = sum_k C_k R_ki is its
/// NodeModel::sum_rc (eed::analyze).

namespace relmore::eed {

/// Elmore's original 50% delay estimate: the time constant itself.
[[nodiscard]] double elmore_delay_50(double tau);

/// Wyatt's single-pole 50% delay: ln2 * tau.
[[nodiscard]] double wyatt_delay_50(double tau);

/// Wyatt's single-pole 10-90% rise time: ln9 * tau.
[[nodiscard]] double wyatt_rise_time(double tau);

/// Wyatt single-pole step response 1 - e^{-t/tau} scaled by v_supply.
[[nodiscard]] double wyatt_step_response(double tau, double t, double v_supply = 1.0);

}  // namespace relmore::eed
