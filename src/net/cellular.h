// Cellular access model: per-device radio technology (3G vs LTE) and the
// Japanese soft bandwidth cap (§3.8) — 1 GB over the previous three days
// triggers peak-hour throttling, which suppresses realized demand.
#pragma once

#include <vector>

#include "core/scenario.h"
#include "core/types.h"

namespace tokyonet::net {

/// Rolling 3-day cellular download volume of a *single* device, and
/// whether (and how strongly) the carrier throttles a given day/hour.
/// The cap policy is purely per-device, so each simulated device owns
/// one tracker and no state is shared across threads.
class DeviceCapTracker {
 public:
  DeviceCapTracker(const CapParams& params, int num_days);

  /// Records cellular download volume for one day. Must be called with
  /// non-decreasing days (the simulator runs day by day).
  void add_download_mb(int day, double mb);

  /// Total cellular download over the three days before `day` (the
  /// cap's lookback window).
  [[nodiscard]] double lookback_mb(int day) const noexcept;

  /// True if the device is over the threshold on `day`.
  [[nodiscard]] bool capped_on(int day) const noexcept;

  /// Realized-demand multiplier for a cellular transfer on `day` at
  /// `hour`. 1.0 when not capped or outside peak hours; the configured
  /// suppression otherwise (relaxed carriers suppress less).
  [[nodiscard]] double demand_multiplier(Carrier carrier, int day,
                                         int hour) const noexcept;

 private:
  CapParams params_;
  std::vector<double> daily_mb_;  // [day]
};

}  // namespace tokyonet::net
