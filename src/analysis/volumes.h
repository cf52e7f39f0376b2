// Daily user traffic volumes: dataset overview (Table 1), growth table
// (Table 3), daily-volume CDFs (Figs 3/4) and their headline statistics.
#pragma once

#include <vector>

#include "analysis/common.h"
#include "analysis/query/fwd.h"
#include "core/records.h"
#include "stats/distribution.h"

namespace tokyonet::analysis {

/// Table 1 row.
struct DatasetOverview {
  int n_android = 0;
  int n_ios = 0;
  int n_total = 0;
  /// Share of cellular download carried over LTE (Table 1's %LTE).
  double lte_traffic_share = 0;
};

[[nodiscard]] DatasetOverview overview(const query::DataSource& src);

/// Exact byte sums behind Table 1's %LTE: total cellular download and
/// the LTE-carried part (u64, so block partials add byte-identically).
struct LteTrafficSums {
  std::uint64_t lte = 0;
  std::uint64_t total = 0;
};

/// Table 3 row set (download volumes, MB/day).
struct DailyVolumeStats {
  double median_all = 0, mean_all = 0;
  double median_cell = 0, mean_cell = 0;
  double median_wifi = 0, mean_wifi = 0;
};

/// Computes Table 3's per-year numbers. Matches the paper's filtering:
/// user-days downloading less than `min_total_mb` in total are omitted
/// from the "All" series; cell/WiFi series keep zero-interface days.
[[nodiscard]] DailyVolumeStats daily_volume_stats(
    const std::vector<UserDay>& days, double min_total_mb = 0.1);

/// Fig 4's headline facts for one campaign.
struct DailyVolumeFacts {
  double zero_cell_share = 0;   // 8% in 2015
  double zero_wifi_share = 0;   // 20% in 2015
  double over_cap_share = 0;    // user-days with 3-day window > 1 GB (1.4%)
  double max_daily_rx_mb = 0;   // top heavy hitter (11 GB in the paper)
};

[[nodiscard]] DailyVolumeFacts daily_volume_facts(
    const std::vector<UserDay>& days, double cap_threshold_mb = 1000.0);

/// CDF inputs for Figs 3/4.
struct DailyVolumeCdfs {
  stats::Ecdf all_rx, all_tx;                    // Fig 3 (one year)
  stats::Ecdf cell_rx, cell_tx, wifi_rx, wifi_tx;  // Fig 4
};

[[nodiscard]] DailyVolumeCdfs daily_volume_cdfs(
    const std::vector<UserDay>& days, double min_total_mb = 0.1);

}  // namespace tokyonet::analysis
