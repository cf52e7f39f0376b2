#include "net/cellular.h"

#include <cassert>

namespace tokyonet::net {

DeviceCapTracker::DeviceCapTracker(const CapParams& params, int num_days)
    : params_(params), daily_mb_(static_cast<std::size_t>(num_days), 0.0) {}

void DeviceCapTracker::add_download_mb(int day, double mb) {
  assert(day >= 0 && static_cast<std::size_t>(day) < daily_mb_.size());
  daily_mb_[static_cast<std::size_t>(day)] += mb;
}

double DeviceCapTracker::lookback_mb(int day) const noexcept {
  double sum = 0;
  for (int d = day - 3; d < day; ++d) {
    if (d < 0) continue;
    sum += daily_mb_[static_cast<std::size_t>(d)];
  }
  return sum;
}

bool DeviceCapTracker::capped_on(int day) const noexcept {
  return lookback_mb(day) > params_.threshold_mb;
}

double DeviceCapTracker::demand_multiplier(Carrier carrier, int day,
                                           int hour) const noexcept {
  if (!capped_on(day)) return 1.0;
  const bool peak =
      hour >= params_.peak_from_hour && hour < params_.peak_to_hour;
  if (!peak) return 1.0;
  return params_.relaxed[static_cast<int>(carrier)]
             ? params_.relaxed_suppression
             : params_.suppression;
}

}  // namespace tokyonet::net
