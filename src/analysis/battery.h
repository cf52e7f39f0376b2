// Battery analysis.
//
// The measurement software records battery status with every sample
// (§2), and "battery drain" is one of the survey's reasons for keeping
// WiFi off (Table 9). This module summarizes the recorded levels: the
// weekly charge profile, how much of the day devices spend low, and
// whether WiFi-off users actually see better battery life — the check
// the survey answer invites.
#pragma once

#include "analysis/common.h"
#include "analysis/query/fwd.h"
#include "core/records.h"

namespace tokyonet::analysis {

struct BatteryAnalysis {
  /// Mean battery level per hour of week.
  WeeklyProfile mean_level;
  /// Share of samples below 20%.
  double low_share = 0;
  /// Mean level over all samples.
  double mean = 0;
  /// Mean level for samples in the WiFi-off vs other interface states —
  /// the §4.2 claim check ("battery life was not a significant concern").
  double mean_wifi_off = 0;
  double mean_wifi_on = 0;
};

[[nodiscard]] BatteryAnalysis battery_analysis(const query::DataSource& src);

}  // namespace tokyonet::analysis
