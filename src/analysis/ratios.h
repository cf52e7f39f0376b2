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

/// One sample's contribution to a (traffic, users) profile pair: its
/// WiFi and total download bytes (only when it downloaded anything) and
/// whether it was associated, out of one sample. The one per-sample add
/// behind compute_wifi_ratios() and the streaming profiles
/// (analysis/incremental.h).
inline void add_ratio_sample(WeeklyProfile& traffic, WeeklyProfile& users,
                             int hour, std::uint32_t wifi_rx,
                             std::uint32_t cell_rx, bool associated) noexcept {
  const std::uint64_t total = std::uint64_t{wifi_rx} + cell_rx;
  if (total > 0) traffic.add_hour(hour, wifi_rx, total);
  users.add_hour(hour, associated ? 1 : 0);
}

/// Computes all six weekly ratio profiles in one pass over the campaign.
/// `days` and `classes` carry global device ids (AnalysisContext's
/// days() and classifier()).
[[nodiscard]] WifiRatios compute_wifi_ratios(const query::DataSource& src,
                                             const std::vector<UserDay>& days,
                                             const UserClassifier& classes);

}  // namespace tokyonet::analysis
