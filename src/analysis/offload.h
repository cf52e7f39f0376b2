// Offload-impact estimates (§4.1): how smartphone WiFi offloading shows
// up in residential broadband traffic.
#pragma once

#include <vector>

#include "analysis/classify.h"
#include "analysis/common.h"
#include "analysis/query/fwd.h"
#include "core/records.h"

namespace tokyonet::analysis {

struct OffloadImpact {
  double median_cell_rx_mb = 0;   // 36 MB/day in 2015
  double median_wifi_rx_mb = 0;   // 51 MB/day
  double wifi_share = 0;          // 58% of smartphone traffic
  double wifi_to_cell_ratio = 0;  // 1.4 : 1
  /// Estimated share of total residential broadband volume that is
  /// smartphone WiFi traffic: cellular share of RBB (Fig 1's 20%) times
  /// the WiFi:cellular ratio, scaled by the at-home share of WiFi.
  double est_rbb_share = 0;       // ~28%
  /// One smartphone's share of a median residential customer's daily
  /// download (436 MB/day, [9]).
  double est_home_share = 0;      // ~12%
};

struct OffloadAssumptions {
  /// Nationwide cellular / RBB volume ratio at the end of 2014 (Fig 1).
  double cellular_share_of_rbb = 0.20;
  /// Median residential download per customer per day [9].
  double rbb_median_daily_mb = 436.0;
};

[[nodiscard]] OffloadImpact offload_impact(
    const query::DataSource& src, const std::vector<UserDay>& days,
    const ApClassification& cls, const OffloadAssumptions& assume = {});

}  // namespace tokyonet::analysis
