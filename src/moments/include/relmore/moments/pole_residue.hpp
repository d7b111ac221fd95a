#pragma once

/// \file pole_residue.hpp
/// Reduced-order pole/residue macromodels built from moments:
///  - awe_model(): the q-pole AWE (asymptotic waveform evaluation) model
///    via [q−1/q] Padé approximation of the moment series — the
///    higher-accuracy (but potentially unstable) alternative the paper
///    contrasts against [33]–[35];
///  - two_pole_model(): the Kahng–Muddu two-pole model [30] that matches
///    the exact first two moments — the paper's closest prior art baseline.

#include <complex>
#include <vector>

#include "relmore/circuit/rlc_tree.hpp"

namespace relmore::moments {

using Complex = std::complex<double>;

/// H(s) = sum_j residues[j] / (s − poles[j]); strictly proper with H(0)=1
/// for the models produced here.
struct PoleResidueModel {
  std::vector<Complex> poles;
  std::vector<Complex> residues;

  /// True when every pole has a strictly negative real part.
  [[nodiscard]] bool stable() const;

  /// DC gain H(0) (≈ 1 for well-formed interconnect models).
  [[nodiscard]] double dc_gain() const;

  /// Unit-step response scaled by v_supply: v(t) = V·(H(0) + Σ r_j/p_j e^{p_j t}).
  [[nodiscard]] double step_response(double t, double v_supply = 1.0) const;

  /// Response to the exponential input V(1 − e^{−t/tau}) via residue
  /// algebra (simple poles; tau perturbed minutely on pole collision).
  [[nodiscard]] double exp_input_response(double t, double v_supply, double tau) const;

  /// Response to a finite linear ramp 0 → V over `rise` seconds.
  [[nodiscard]] double ramp_input_response(double t, double v_supply, double rise) const;
};

/// Builds the order-q AWE model from moments m_0..m_{2q−1} of one node
/// (`node_moments[k]` = m_k; must have size >= 2q). Throws
/// std::invalid_argument on insufficient moments and std::runtime_error
/// when the Hankel system is singular (moment degeneracy).
PoleResidueModel awe_model(const std::vector<double>& node_moments, int q);

/// Kahng–Muddu style two-pole model from the exact first two moments:
/// H(s) = 1/(1 + b1 s + b2 s²) with b1 = −m1, b2 = m1² − m2.
PoleResidueModel two_pole_model(double m1, double m2);

/// RICE-style whole-tree evaluation [35]: builds the order-q AWE model at
/// *every* node from one O(n·2q) moment computation. Nodes whose Hankel
/// system degenerates get the largest q' < q that succeeds (q' >= 1 always
/// succeeds for a physical tree).
std::vector<PoleResidueModel> awe_models_for_tree(const circuit::RlcTree& tree, int q);

/// Standard AWE stabilization: discards right-half-plane poles and rescales
/// the surviving residues to restore unit DC gain. Returns the input
/// unchanged when it is already stable. Throws std::invalid_argument when
/// *no* pole is stable.
PoleResidueModel stabilized(const PoleResidueModel& model);

}  // namespace relmore::moments
