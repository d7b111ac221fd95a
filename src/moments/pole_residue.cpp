#include "relmore/moments/pole_residue.hpp"

#include <cmath>
#include <stdexcept>

#include "relmore/linalg/matrix.hpp"
#include "relmore/moments/tree_moments.hpp"
#include "relmore/util/polynomial.hpp"

namespace relmore::moments {

bool PoleResidueModel::stable() const {
  for (const Complex& p : poles) {
    if (p.real() >= 0.0) return false;
  }
  return !poles.empty();
}

double PoleResidueModel::dc_gain() const {
  Complex acc{0.0, 0.0};
  for (std::size_t j = 0; j < poles.size(); ++j) acc += residues[j] / (-poles[j]);
  return acc.real();
}

double PoleResidueModel::step_response(double t, double v_supply) const {
  if (t < 0.0) return 0.0;
  Complex acc{0.0, 0.0};
  for (std::size_t j = 0; j < poles.size(); ++j) {
    acc += residues[j] / poles[j] * std::exp(poles[j] * t);
  }
  return v_supply * (dc_gain() + acc.real());
}

double PoleResidueModel::exp_input_response(double t, double v_supply, double tau) const {
  if (tau <= 0.0) throw std::invalid_argument("exp_input_response: tau must be positive");
  if (t <= 0.0) return 0.0;
  // Input poles at 0 and -a. Keep -a off the system poles.
  double a = 1.0 / tau;
  for (const Complex& p : poles) {
    if (std::abs(p + a) < 1e-9 * std::abs(p)) a *= 1.0 + 1e-7;
  }
  // v(t) = V [ H(0) - H(-a) e^{-a t} + sum_j r_j U(p_j) e^{p_j t} ] with
  // U(s) = 1/s - 1/(s + a).
  Complex h_at_minus_a{0.0, 0.0};
  Complex acc{0.0, 0.0};
  for (std::size_t j = 0; j < poles.size(); ++j) {
    h_at_minus_a += residues[j] / (-a - poles[j]);
    const Complex u = 1.0 / poles[j] - 1.0 / (poles[j] + a);
    acc += residues[j] * u * std::exp(poles[j] * t);
  }
  return v_supply * (dc_gain() - h_at_minus_a.real() * std::exp(-a * t) + acc.real());
}

double PoleResidueModel::ramp_input_response(double t, double v_supply, double rise) const {
  if (rise <= 0.0) return step_response(t, v_supply);
  if (t <= 0.0) return 0.0;
  // Integral of the step response: S(t) = H(0) t + sum_j (r_j/p_j^2)(e^{p_j t} - 1)
  // (r_j/p_j is the step-transient coefficient; one more /p_j integrates).
  const auto integrated = [&](double tt) {
    Complex acc{0.0, 0.0};
    for (std::size_t j = 0; j < poles.size(); ++j) {
      acc += residues[j] / (poles[j] * poles[j]) * (std::exp(poles[j] * tt) - 1.0);
    }
    return dc_gain() * tt + acc.real();
  };
  const double s_now = integrated(t);
  const double s_shift = t > rise ? integrated(t - rise) : 0.0;
  return v_supply / rise * (s_now - s_shift);
}

PoleResidueModel awe_model(const std::vector<double>& node_moments, int q) {
  if (q < 1) throw std::invalid_argument("awe_model: q must be >= 1");
  const std::size_t need = 2 * static_cast<std::size_t>(q);
  if (node_moments.size() < need) {
    throw std::invalid_argument("awe_model: need at least 2q moments (m_0..m_{2q-1})");
  }
  const std::size_t uq = static_cast<std::size_t>(q);

  // Circuit moments span many decades (m_k ~ tau^k); normalize time by
  // tau = |m_1| so the Hankel system is well scaled, then un-scale the
  // poles/residues at the end. Without this the system is numerically
  // singular for picosecond-scale interconnect.
  const double tau = std::abs(node_moments[1]);
  if (tau == 0.0) throw std::invalid_argument("awe_model: vanishing first moment");
  std::vector<double> m(need);
  double scale = 1.0;
  for (std::size_t k = 0; k < need; ++k) {
    m[k] = node_moments[k] / scale;
    scale *= tau;
  }

  // Solve for denominator coefficients b_1..b_q (scaled domain):
  //   m_k + sum_{j=1..q} b_j m_{k-j} = 0   for k = q .. 2q-1.
  linalg::Matrix A(uq, uq);
  std::vector<double> rhs(uq);
  for (std::size_t row = 0; row < uq; ++row) {
    const std::size_t k = uq + row;
    rhs[row] = -m[k];
    for (std::size_t j = 1; j <= uq; ++j) A(row, j - 1) = m[k - j];
  }
  std::vector<double> b;
  try {
    b = linalg::LuFactor(A).solve(rhs);
  } catch (const std::runtime_error&) {
    throw std::runtime_error("awe_model: singular Hankel system (degenerate moments)");
  }

  // Numerator a_0..a_{q-1}: a_k = m_k + sum_{j=1..min(k,q)} b_j m_{k-j}.
  std::vector<double> a(uq);
  for (std::size_t k = 0; k < uq; ++k) {
    double acc = m[k];
    for (std::size_t j = 1; j <= k; ++j) acc += b[j - 1] * m[k - j];
    a[k] = acc;
  }

  std::vector<double> den(uq + 1);
  den[0] = 1.0;
  for (std::size_t j = 1; j <= uq; ++j) den[j] = b[j - 1];
  const util::Polynomial denom{den};
  const util::Polynomial numer{a};
  const util::Polynomial dden = denom.derivative();

  PoleResidueModel model;
  model.poles = denom.roots();
  model.residues.reserve(model.poles.size());
  for (Complex& p : model.poles) {
    const Complex dp = dden(p);
    if (std::abs(dp) == 0.0) throw std::runtime_error("awe_model: repeated pole");
    // Un-scale: scaled s' = tau * s, so physical pole = p/tau and the
    // strictly-proper residue picks up a 1/tau as well.
    model.residues.push_back(numer(p) / dp / tau);
    p /= tau;
  }
  return model;
}

PoleResidueModel two_pole_model(double m1, double m2) {
  const double b1 = -m1;
  const double b2 = m1 * m1 - m2;
  if (b2 == 0.0) {
    // Degenerate single-pole case (pure RC first-order behaviour).
    if (b1 <= 0.0) throw std::invalid_argument("two_pole_model: non-causal moments");
    PoleResidueModel model;
    model.poles = {Complex{-1.0 / b1, 0.0}};
    model.residues = {Complex{1.0 / b1, 0.0}};
    return model;
  }
  // Poles: roots of 1 + b1 s + b2 s^2.
  const util::Polynomial denom{{1.0, b1, b2}};
  const util::Polynomial dden = denom.derivative();
  PoleResidueModel model;
  model.poles = denom.roots();
  for (const Complex& p : model.poles) {
    // Numerator is the constant 1, so the residue is 1/denom'(p).
    model.residues.push_back(Complex{1.0, 0.0} / dden(p));
  }
  return model;
}

std::vector<PoleResidueModel> awe_models_for_tree(const circuit::RlcTree& tree, int q) {
  if (q < 1) throw std::invalid_argument("awe_models_for_tree: q must be >= 1");
  const auto m = tree_moments(tree, 2 * q - 1);
  std::vector<PoleResidueModel> out;
  out.reserve(tree.size());
  std::vector<double> node_m(static_cast<std::size_t>(2 * q));
  for (std::size_t node = 0; node < tree.size(); ++node) {
    for (int k = 0; k < 2 * q; ++k) {
      node_m[static_cast<std::size_t>(k)] = m[static_cast<std::size_t>(k)][node];
    }
    PoleResidueModel model;
    bool done = false;
    for (int order = q; order >= 1 && !done; --order) {
      try {
        model = awe_model(node_m, order);
        done = true;
      } catch (const std::runtime_error&) {
        // Hankel degeneracy (the node's true order is lower): retry smaller.
      }
    }
    if (!done) throw std::runtime_error("awe_models_for_tree: no order succeeded");
    out.push_back(std::move(model));
  }
  return out;
}

PoleResidueModel stabilized(const PoleResidueModel& model) {
  if (model.stable()) return model;
  PoleResidueModel out;
  for (std::size_t i = 0; i < model.poles.size(); ++i) {
    if (model.poles[i].real() < 0.0) {
      out.poles.push_back(model.poles[i]);
      out.residues.push_back(model.residues[i]);
    }
  }
  if (out.poles.empty()) {
    throw std::invalid_argument("stabilized: model has no stable poles");
  }
  const double gain = out.dc_gain();
  if (gain == 0.0) throw std::invalid_argument("stabilized: zero DC gain after filtering");
  for (Complex& r : out.residues) r /= gain;
  return out;
}

}  // namespace relmore::moments
