#pragma once

/// \file waveform.hpp
/// Sampled signal with linear interpolation — the lingua franca between the
/// transient engines, the closed-form models, and the measurement code.

#include <cstddef>
#include <utility>
#include <vector>

namespace relmore::sim {

/// A sampled waveform v(t) on a strictly increasing time grid.
class Waveform {
 public:
  Waveform() = default;
  Waveform(std::vector<double> times, std::vector<double> values);

  [[nodiscard]] std::size_t size() const { return t_.size(); }
  [[nodiscard]] bool empty() const { return t_.empty(); }
  [[nodiscard]] const std::vector<double>& times() const { return t_; }
  [[nodiscard]] const std::vector<double>& values() const { return v_; }
  [[nodiscard]] double t_begin() const;
  [[nodiscard]] double t_end() const;

  /// Linear interpolation; clamps outside the sampled range.
  [[nodiscard]] double value_at(double t) const;

  /// First time v crosses `threshold` going upward, linearly interpolated;
  /// returns a negative value when no crossing exists.
  [[nodiscard]] double first_rise_crossing(double threshold) const;

  /// Global extrema of the sampled values.
  [[nodiscard]] double max_value() const;
  [[nodiscard]] double min_value() const;

  /// Last sampled value (steady-state estimate for settled waveforms).
  [[nodiscard]] double final_value() const;

  /// max_t |this(t) − other(t)| evaluated on this waveform's grid.
  [[nodiscard]] double max_abs_difference(const Waveform& other) const;

 private:
  std::vector<double> t_;
  std::vector<double> v_;
};

/// Uniform time grid [0, t_stop] with `samples` points (samples >= 2).
std::vector<double> uniform_grid(double t_stop, std::size_t samples);

/// Samples `response(t)` at every time of `times` — how a closed form
/// (eed::step_response and friends, a pole/residue model) becomes a
/// Waveform to measure or to compare with a simulation.
template <class Response>
[[nodiscard]] Waveform sample(const std::vector<double>& times, Response&& response) {
  std::vector<double> v(times.size());
  for (std::size_t i = 0; i < times.size(); ++i) v[i] = response(times[i]);
  return Waveform(times, std::move(v));
}

}  // namespace relmore::sim
