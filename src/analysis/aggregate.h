// Aggregated traffic time series (Fig 2) and per-location WiFi traffic
// series (Fig 11), in Mbps per campaign hour.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "analysis/classify.h"
#include "analysis/query/fwd.h"
#include "core/records.h"

namespace tokyonet::analysis {

/// Mbps per one-hour bin across the campaign.
struct HourlySeries {
  std::vector<double> mbps;  // size = num_days * 24

  [[nodiscard]] double total_mb() const noexcept {
    double sum = 0;
    for (double v : mbps) sum += v;
    return sum * 3600.0 / 8.0;  // Mbps-hours back to MB
  }
};

/// Which traffic stream to aggregate.
enum class Stream : std::uint8_t {
  CellRx,
  CellTx,
  WifiRx,
  WifiTx,
};

/// Fig 2: one aggregated series per stream — aggregate_all_streams()'s
/// hour sums for `stream`, converted once, so the result is
/// byte-identical at any shard count.
[[nodiscard]] HourlySeries aggregate_series(const query::DataSource& src,
                                            Stream stream);

/// The Mbps conversion aggregate_series() applies to its hour sums.
[[nodiscard]] HourlySeries hourly_series_from_sums(
    std::span<const std::uint64_t> sums);

/// Every per-stream hour-sum vector, from one fused pass over the
/// traffic columns (exact u64 sums, so the result is the same at any
/// shard count).
struct AllStreamSums {
  /// Indexed by Stream (CellRx, CellTx, WifiRx, WifiTx).
  std::vector<std::uint64_t> hour_sums[4];
};

[[nodiscard]] AllStreamSums aggregate_all_streams(const query::DataSource& src);

/// Fig 11: WiFi traffic restricted to APs of one inferred class
/// (office = ApClass::Other with the office flag).
struct LocationFilter {
  ApClass ap_class = ApClass::Home;
  bool office_only = false;  // only meaningful with ApClass::Other
};

/// Share summary used in §3.4.1: home / public / office share of total
/// WiFi volume (95% / ~4% in the paper).
struct WifiLocationShares {
  double home = 0;
  double publik = 0;
  double office = 0;
  double other = 0;  // non-office remainder of Other
};

/// Associated WiFi bytes per AP location bucket and campaign hour, from
/// one scan: the exact sums behind every Fig 11 series and
/// wifi_location_shares(). Buckets are home, public, office (Other with
/// the office flag) and the non-office rest of Other.
struct WifiLocationHours {
  enum Bucket : std::uint8_t { kHome, kPublic, kOffice, kOther, kNumBuckets };
  /// [bucket][hour], num_days * 24 hours each.
  std::array<std::vector<std::uint64_t>, kNumBuckets> rx_sums, tx_sums;

  /// Fig 11's series for one filter, in Mbps.
  [[nodiscard]] HourlySeries series(LocationFilter filter, bool rx) const;
  /// The buckets' shares of the associated rx + tx bytes.
  [[nodiscard]] WifiLocationShares shares() const;
};

[[nodiscard]] WifiLocationHours wifi_location_hours(
    const query::DataSource& src, const ApClassification& cls);
/// The same kernel as an entry of `sweep`; `cls` is read at
/// registration only.
[[nodiscard]] query::Pending<WifiLocationHours> wifi_location_hours(
    query::Sweep& sweep, const ApClassification& cls);

/// §3.1: cellular traffic is smaller on weekends, WiFi the opposite.
struct WeekSplit {
  double weekday_mbps = 0;  // mean rate over weekday hours
  double weekend_mbps = 0;
};

/// The split of one series (Fig 2 has all four series from one
/// aggregate_all_streams() pass).
[[nodiscard]] WeekSplit week_split(const HourlySeries& series,
                                   const CampaignCalendar& cal, int num_days);

/// wifi_location_hours(src, cls).shares().
[[nodiscard]] WifiLocationShares wifi_location_shares(
    const query::DataSource& src, const ApClassification& cls);

}  // namespace tokyonet::analysis
