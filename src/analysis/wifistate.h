// WiFi interface-state profiles by device OS (§3.3.4, Fig 9): the share
// of Android devices that are WiFi users / WiFi-off / WiFi-available per
// hour of the week, and the iOS WiFi-user share (iOS reports no detailed
// interface state, §2).
#pragma once

#include <array>

#include "analysis/common.h"
#include "analysis/query/fwd.h"
#include "core/records.h"

namespace tokyonet::analysis {

struct WifiStateProfiles {
  WeeklyProfile android_user;       // associated
  WeeklyProfile android_off;        // interface explicitly off
  WeeklyProfile android_available;  // on but unassociated
  WeeklyProfile ios_user;

  /// Time-averaged shares (means of the weekly ratio curves).
  [[nodiscard]] double mean_android_off() const noexcept {
    return android_off.mean_ratio();
  }
  [[nodiscard]] double mean_android_available() const noexcept {
    return android_available.mean_ratio();
  }
};

[[nodiscard]] WifiStateProfiles compute_wifi_states(
    const query::DataSource& src);
/// The same kernel as an entry of `sweep` (Fig 9 runs it with the
/// carrier check below in one pass).
[[nodiscard]] query::Pending<WifiStateProfiles> compute_wifi_states(
    query::Sweep& sweep);

/// §3.3.4's carrier check: mean WiFi-user ratio of iOS devices per
/// cellular carrier. The paper finds no difference between the three
/// iPhone carriers — OS, not carrier, drives WiFi connectivity.
[[nodiscard]] std::array<double, kNumCarriers> ios_wifi_user_by_carrier(
    const query::DataSource& src);
[[nodiscard]] query::Pending<std::array<double, kNumCarriers>>
ios_wifi_user_by_carrier(query::Sweep& sweep);

}  // namespace tokyonet::analysis
