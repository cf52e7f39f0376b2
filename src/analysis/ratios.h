// WiFi-traffic ratio and WiFi-user ratio (§3.3.2-§3.3.3, Figs 6-8).
//
// WiFi-traffic ratio: WiFi download / total download per one-hour bin.
// WiFi-user ratio: share of devices associated with WiFi per bin.
// Both are also split by user class (heavy hitters vs light users),
// where class is assigned per user-day (§2).
#pragma once

#include <cstdint>
#include <vector>

#include "analysis/common.h"
#include "analysis/query/fwd.h"
#include "core/records.h"

namespace tokyonet::analysis {

struct WifiRatios {
  WeeklyProfile traffic_all;
  WeeklyProfile users_all;
  WeeklyProfile traffic_heavy;
  WeeklyProfile traffic_light;
  WeeklyProfile users_heavy;
  WeeklyProfile users_light;

  [[nodiscard]] bool operator==(const WifiRatios&) const = default;
};

/// Computes all six weekly ratio profiles in one pass over the campaign.
/// `days` and `classes` carry global device ids (AnalysisContext's
/// days() and classifier()).
[[nodiscard]] WifiRatios compute_wifi_ratios(const query::DataSource& src,
                                             const std::vector<UserDay>& days,
                                             const UserClassifier& classes);

}  // namespace tokyonet::analysis
