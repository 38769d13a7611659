#include "serving/arrivals.h"

#include <cmath>

namespace fexiot {

Status ValidateArrivalConfig(const ArrivalConfig& config) {
  if (!(config.rate_hz > 0.0)) {
    return Status::InvalidArgument("arrivals: rate_hz must be > 0");
  }
  if (!(config.burst_factor >= 1.0)) {
    return Status::InvalidArgument("arrivals: burst_factor must be >= 1");
  }
  if (!(config.burst_fraction >= 0.0 && config.burst_fraction < 1.0)) {
    return Status::InvalidArgument(
        "arrivals: burst_fraction must be in [0, 1)");
  }
  if (config.burst_fraction > 0.0 && !(config.burst_period_s > 0.0)) {
    return Status::InvalidArgument(
        "arrivals: burst_period_s must be > 0 when bursting");
  }
  return Status::OK();
}

double ArrivalGenerator::Next() {
  double rate = config_.rate_hz;
  if (config_.burst_fraction > 0.0 && config_.burst_factor > 1.0) {
    const double phase = std::fmod(t_, config_.burst_period_s);
    if (phase < config_.burst_fraction * config_.burst_period_s) {
      rate *= config_.burst_factor;
    }
  }
  // Exponential gap via inverse CDF; 1 - U is in (0, 1], so the log is
  // finite and the gap strictly positive.
  const double u = rng_.Uniform();
  t_ += -std::log(1.0 - u) / rate;
  return t_;
}

}  // namespace fexiot
