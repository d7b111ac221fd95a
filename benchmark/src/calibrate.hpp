#pragma once

/// \file calibrate.hpp
/// The machine's current speed, read from fixed work that does not touch
/// the library, so a change under src/ cannot move it.

namespace bench {

/// Seconds of one calibration pass: a pointer chase over 1.5 MiB with a
/// floating-point step per link, then a dependent floating-point and
/// integer chain that stays in registers. The fastest of three passes, so
/// one interrupt does not count.
[[nodiscard]] double calibration_pass_s();

/// calibration_pass_s() on the reference machine: a 4-vCPU Xeon VM at its
/// top clock. Host time × kReferencePassS / calibration_pass_s() is the
/// time the same work takes at the reference speed.
inline constexpr double kReferencePassS = 1.2e-3;

}  // namespace bench
