// Aggregated traffic time series (Fig 2) and per-location WiFi traffic
// series (Fig 11), in Mbps per campaign hour.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "analysis/classify.h"
#include "analysis/query/fwd.h"
#include "analysis/volumes.h"
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

/// Every per-stream hour-sum vector plus the LTE byte sums, from one
/// fused pass over the traffic columns. The LTE sums are byte-identical
/// to overview()'s — all accumulators are exact u64 sums, so fusing the
/// loops changes only the order of associative additions. The
/// out-of-core backend is the hot caller: it pays this pass once per
/// shard.
struct AllStreamSums {
  /// Indexed by Stream (CellRx, CellTx, WifiRx, WifiTx).
  std::vector<std::uint64_t> hour_sums[4];
  LteTrafficSums lte;
};

[[nodiscard]] AllStreamSums aggregate_all_streams(const query::DataSource& src);

/// Fig 11: WiFi traffic restricted to APs of one inferred class
/// (office = ApClass::Other with the office flag).
struct LocationFilter {
  ApClass ap_class = ApClass::Home;
  bool office_only = false;  // only meaningful with ApClass::Other
};

[[nodiscard]] HourlySeries location_series(const query::DataSource& src,
                                           const ApClassification& cls,
                                           LocationFilter filter,
                                           bool rx);
/// The same kernel as an entry of `sweep` (Fig 11 runs six series and
/// the shares below in one pass); `cls` must outlive sweep.run().
[[nodiscard]] query::Pending<HourlySeries> location_series(
    query::Sweep& sweep, const ApClassification& cls, LocationFilter filter,
    bool rx);

/// §3.1: cellular traffic is smaller on weekends, WiFi the opposite.
struct WeekSplit {
  double weekday_mbps = 0;  // mean rate over weekday hours
  double weekend_mbps = 0;
};

[[nodiscard]] WeekSplit weekday_weekend_split(const query::DataSource& src,
                                              Stream stream);

/// The split over an already-computed series (Fig 2 has all four
/// series from one aggregate_all_streams() pass).
[[nodiscard]] WeekSplit week_split(const HourlySeries& series,
                                   const CampaignCalendar& cal, int num_days);

/// Share summary used in §3.4.1: home / public / office share of total
/// WiFi volume (95% / ~4% in the paper).
struct WifiLocationShares {
  double home = 0;
  double publik = 0;
  double office = 0;
  double other = 0;  // non-office remainder of Other
};

[[nodiscard]] WifiLocationShares wifi_location_shares(
    const query::DataSource& src, const ApClassification& cls);
[[nodiscard]] query::Pending<WifiLocationShares> wifi_location_shares(
    query::Sweep& sweep, const ApClassification& cls);

}  // namespace tokyonet::analysis
