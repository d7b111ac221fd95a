#include "relmore/eed/elmore.hpp"

#include <cmath>

namespace relmore::eed {

double elmore_delay_50(double tau) { return tau; }

double wyatt_delay_50(double tau) { return std::log(2.0) * tau; }

double wyatt_rise_time(double tau) { return std::log(9.0) * tau; }

double wyatt_step_response(double tau, double t, double v_supply) {
  if (t <= 0.0) return 0.0;
  return v_supply * -std::expm1(-t / tau);
}

}  // namespace relmore::eed
