// Tests for aggregated traffic series (Fig 2), per-location series
// (Fig 11) and the user-type analysis (Fig 5).
#include <gtest/gtest.h>

#include "analysis/aggregate.h"
#include "analysis/usertype.h"
#include "testutil.h"

namespace tokyonet::analysis {
namespace {

using test::campaign;
using test::campaign_source;
using test::campaign_classification;

TEST(Aggregate, SeriesLengthAndConservation) {
  const Dataset& ds = campaign(Year::Y2015);
  const auto& src = campaign_source(Year::Y2015);
  const HourlySeries wifi_rx = aggregate_series(src, Stream::WifiRx);
  ASSERT_EQ(wifi_rx.mbps.size(), static_cast<std::size_t>(ds.num_days()) * 24);
  double raw_mb = 0;
  for (const std::uint32_t rx : ds.samples.wifi_rx) raw_mb += rx / 1e6;
  EXPECT_NEAR(wifi_rx.total_mb(), raw_mb, raw_mb * 1e-6);
}

TEST(Aggregate, WifiExceedsCellularIn2015) {
  // Fig 2's headline: aggregate WiFi volume exceeds cellular.
  const auto& src = campaign_source(Year::Y2015);
  EXPECT_GT(aggregate_series(src, Stream::WifiRx).total_mb(),
            aggregate_series(src, Stream::CellRx).total_mb());
}

TEST(Aggregate, DownloadDominatesUpload) {
  const auto& src = campaign_source(Year::Y2015);
  EXPECT_GT(aggregate_series(src, Stream::WifiRx).total_mb(),
            3 * aggregate_series(src, Stream::WifiTx).total_mb());
  EXPECT_GT(aggregate_series(src, Stream::CellRx).total_mb(),
            3 * aggregate_series(src, Stream::CellTx).total_mb());
}

TEST(Aggregate, CellularPeaksMorningWifiPeaksNight) {
  // §3.1: cellular peaks at commute hours, WiFi at 23:00-01:00.
  const Dataset& ds = campaign(Year::Y2015);
  const auto& src = campaign_source(Year::Y2015);
  const HourlySeries cell = aggregate_series(src, Stream::CellRx);
  const HourlySeries wifi = aggregate_series(src, Stream::WifiRx);
  // Average over weekdays: hour 8 vs hour 3 for cellular.
  double cell_8 = 0, cell_3 = 0, wifi_23 = 0, wifi_15 = 0;
  int n = 0;
  for (int day = 0; day < ds.num_days(); ++day) {
    if (ds.calendar.is_weekend_day(day)) continue;
    cell_8 += cell.mbps[static_cast<std::size_t>(day * 24 + 8)];
    cell_3 += cell.mbps[static_cast<std::size_t>(day * 24 + 3)];
    wifi_23 += wifi.mbps[static_cast<std::size_t>(day * 24 + 23)];
    wifi_15 += wifi.mbps[static_cast<std::size_t>(day * 24 + 15)];
    ++n;
  }
  ASSERT_GT(n, 0);
  EXPECT_GT(cell_8, 2 * cell_3);
  EXPECT_GT(wifi_23, wifi_15);
}

TEST(Aggregate, LocationSeriesPartitionWifi) {
  const auto& src = campaign_source(Year::Y2015);
  const ApClassification& cls = campaign_classification(Year::Y2015);
  const double total = aggregate_series(src, Stream::WifiRx).total_mb();
  const WifiLocationHours hours = wifi_location_hours(src, cls);
  const double home = hours.series({ApClass::Home, false}, true).total_mb();
  const double pub = hours.series({ApClass::Public, false}, true).total_mb();
  const double other = hours.series({ApClass::Other, false}, true).total_mb();
  EXPECT_NEAR(home + pub + other, total, total * 1e-6);
  const double office = hours.series({ApClass::Other, true}, true).total_mb();
  EXPECT_LE(office, other);
}

TEST(Aggregate, HomeDominatesWifiVolume) {
  // §3.4.1: home networks carry ~95% of WiFi volume; public+office are
  // a few percent.
  for (Year y : kAllYears) {
    const WifiLocationShares s =
        wifi_location_shares(campaign_source(y), campaign_classification(y));
    EXPECT_GT(s.home, 0.88);
    EXPECT_LT(s.publik + s.office, 0.08);
    EXPECT_NEAR(s.home + s.publik + s.office + s.other, 1.0, 1e-9);
  }
}

TEST(UserType, FractionsPartitionAndMatchPaperBands) {
  const Dataset& ds13 = campaign(Year::Y2013);
  const Dataset& ds15 = campaign(Year::Y2015);
  const UserTypeStats s13 =
      user_type_stats(ds13.devices.size(), user_days(ds13));
  const UserTypeStats s15 =
      user_type_stats(ds15.devices.size(), user_days(ds15));
  for (const UserTypeStats& s : {s13, s15}) {
    EXPECT_NEAR(s.cellular_intensive_frac + s.wifi_intensive_frac +
                    s.mixed_frac,
                1.0, 1e-9);
  }
  // Fig 5: cellular-intensive shrinks 35% -> 22%; WiFi-intensive ~8%.
  EXPECT_GT(s13.cellular_intensive_frac, s15.cellular_intensive_frac);
  EXPECT_NEAR(s13.cellular_intensive_frac, 0.35, 0.10);
  EXPECT_NEAR(s15.cellular_intensive_frac, 0.22, 0.08);
  EXPECT_NEAR(s15.wifi_intensive_frac, 0.08, 0.05);
  // §3.3.1: a majority of mixed user-days sit above the diagonal.
  EXPECT_GT(s15.mixed_above_diagonal_frac, 0.5);
}

TEST(UserType, HeatmapCountsActiveDays) {
  const Dataset& ds = campaign(Year::Y2014);
  const auto days = user_days(ds);
  const auto heat = user_day_heatmap(days);
  std::size_t active = 0;
  for (const UserDay& d : days) {
    active += d.cell_rx_mb > 0 || d.wifi_rx_mb > 0;
  }
  EXPECT_DOUBLE_EQ(heat.total(), static_cast<double>(active));
}

}  // namespace
}  // namespace tokyonet::analysis
