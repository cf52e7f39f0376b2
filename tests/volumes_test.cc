// Tests for analysis/common (user-day rollups, classes, weekly profiles)
// and analysis/volumes (Tables 1/3, Figs 3/4).
#include <gtest/gtest.h>

#include "analysis/update.h"
#include "analysis/volumes.h"
#include "stats/descriptive.h"
#include "testutil.h"

namespace tokyonet::analysis {
namespace {

using test::add_sample;
using test::campaign;
using test::campaign_source;
using test::empty_dataset;

TEST(UserDays, OneRowPerDevicePerDay) {
  const Dataset& ds = campaign(Year::Y2013);
  const auto days = user_days(ds);
  EXPECT_EQ(days.size(),
            ds.devices.size() * static_cast<std::size_t>(ds.num_days()));
  // Ordered by (device, day).
  for (std::size_t i = 1; i < days.size(); ++i) {
    ASSERT_TRUE(value(days[i - 1].device) < value(days[i].device) ||
                (days[i - 1].device == days[i].device &&
                 days[i - 1].day < days[i].day));
  }
}

TEST(UserDays, VolumesConserveSampleBytes) {
  const Dataset& ds = campaign(Year::Y2013);
  UserDayOptions keep_all;
  keep_all.exclude_tethering = false;
  const auto days = user_days(ds, keep_all);
  double rollup = 0, raw = 0, tether = 0;
  for (const UserDay& d : days) rollup += d.total_rx_mb() + d.total_tx_mb();
  const SampleColumns& c = ds.samples;
  for (std::size_t i = 0; i < c.size(); ++i) {
    const double mb = (std::uint64_t{c.cell_rx[i]} + c.wifi_rx[i] +
                       c.cell_tx[i] + c.wifi_tx[i]) /
                      1e6;
    raw += mb;
    if ((c.flags[i] & SampleColumns::kFlagTethering) != 0) tether += mb;
  }
  EXPECT_NEAR(rollup, raw, raw * 1e-9);

  // The default rollup applies the paper's cleaning: exactly the
  // tethering bytes are stripped (§2).
  double cleaned = 0;
  for (const UserDay& d : user_days(ds)) {
    cleaned += d.total_rx_mb() + d.total_tx_mb();
  }
  EXPECT_NEAR(cleaned, raw - tether, raw * 1e-9);
}

TEST(UserDays, UpdateDaysExcluded) {
  Dataset ds = empty_dataset(1, 5);
  std::vector<test::Row> rows;
  for (int d = 0; d < 5; ++d) {
    add_sample(rows, 0, static_cast<TimeBin>(d * kBinsPerDay), 1'000'000u, 0);
  }
  test::set_rows(ds, rows);
  std::vector<std::int32_t> update_bins{2 * kBinsPerDay};  // update on day 2
  UserDayOptions opt;
  opt.update_bin_by_device = &update_bins;
  const auto days = user_days(ds, opt);
  EXPECT_EQ(days.size(), 3u);  // days 2 and 3 dropped
  for (const UserDay& d : days) {
    EXPECT_TRUE(d.day != 2 && d.day != 3);
  }
}

TEST(UserClassifier, BoundariesFromPercentiles) {
  Dataset ds = empty_dataset(1, 1);
  ds.build_index();
  std::vector<UserDay> days;
  for (int i = 1; i <= 100; ++i) {
    UserDay d;
    d.device = DeviceId{0};
    d.day = 0;
    d.cell_rx_mb = i;  // 1..100 MB
    days.push_back(d);
  }
  const UserClassifier c(days);
  EXPECT_NEAR(c.light_lo(), 40.6, 1.0);
  EXPECT_NEAR(c.light_hi(), 60.4, 1.0);
  EXPECT_NEAR(c.heavy_threshold(), 95.05, 1.0);
  UserDay probe;
  probe.cell_rx_mb = 50;
  EXPECT_EQ(c.classify(probe), UserClass::Light);
  probe.cell_rx_mb = 99;
  EXPECT_EQ(c.classify(probe), UserClass::Heavy);
  probe.cell_rx_mb = 10;
  EXPECT_EQ(c.classify(probe), UserClass::Neither);
}

TEST(WeeklyProfile, HourOfWeekStartsSaturday) {
  const CampaignCalendar cal(Date{2015, 2, 28}, 9);  // day 0 = Saturday
  EXPECT_EQ(WeeklyProfile::hour_of_week(cal, 0), 0);
  EXPECT_EQ(WeeklyProfile::hour_of_week(cal, 6), 1);  // 01:00 Saturday
  EXPECT_EQ(WeeklyProfile::hour_of_week(cal, kBinsPerDay), 24);  // Sunday
  // Day 7 folds back onto Saturday.
  EXPECT_EQ(WeeklyProfile::hour_of_week(
                cal, static_cast<TimeBin>(7 * kBinsPerDay)),
            0);
}

TEST(WeeklyProfile, RatioAndMean) {
  const CampaignCalendar cal(Date{2015, 2, 28}, 7);
  WeeklyProfile p;
  p.add_hour(WeeklyProfile::hour_of_week(cal, 0), 1, 2);
  p.add_hour(WeeklyProfile::hour_of_week(cal, 1), 1, 2);  // same hour
  p.add_hour(WeeklyProfile::hour_of_week(
                 cal, static_cast<TimeBin>(kBinsPerDay)),
             3, 4);
  const auto r = p.ratio_series();
  EXPECT_DOUBLE_EQ(r[0], 0.5);
  EXPECT_DOUBLE_EQ(r[24], 0.75);
  EXPECT_DOUBLE_EQ(r[1], 0.0);  // no data
  EXPECT_DOUBLE_EQ(p.mean_ratio(), (0.5 + 0.75) / 2);
}

TEST(Overview, MatchesTable1Shape) {
  // Device counts scale with the panel; %LTE grows 25% -> 80% (Table 1).
  const DatasetOverview o13 = overview(campaign_source(Year::Y2013));
  const DatasetOverview o15 = overview(campaign_source(Year::Y2015));
  EXPECT_GT(o13.n_android, 0);
  EXPECT_GT(o13.n_ios, 0);
  EXPECT_EQ(o13.n_total, o13.n_android + o13.n_ios);
  EXPECT_NEAR(o13.lte_traffic_share, 0.32, 0.08);
  EXPECT_NEAR(o15.lte_traffic_share, 0.85, 0.08);
  EXPECT_GT(o15.lte_traffic_share, o13.lte_traffic_share);
}

TEST(DailyVolumes, StatsOrderingAndGrowth) {
  DailyVolumeStats prev{};
  for (Year y : kAllYears) {
    const auto days = user_days(campaign(y));
    const DailyVolumeStats s = daily_volume_stats(days);
    EXPECT_GT(s.mean_all, s.median_all);  // heavy-tailed
    EXPECT_GT(s.median_all, prev.median_all);  // grows every year
    EXPECT_GT(s.mean_wifi, prev.mean_wifi);
    prev = s;
  }
}

TEST(DailyVolumes, WifiOvertakesCellularByMedianIn2015) {
  // §1 finding (2): even for light users WiFi > cellular as of 2015,
  // while 2013 was the other way around.
  const DailyVolumeStats s13 = daily_volume_stats(user_days(campaign(Year::Y2013)));
  const DailyVolumeStats s15 = daily_volume_stats(user_days(campaign(Year::Y2015)));
  EXPECT_GT(s13.median_cell, s13.median_wifi);
  EXPECT_GT(s15.median_wifi, s15.median_cell);
}

TEST(DailyVolumes, MinTotalFilterApplies) {
  Dataset ds = empty_dataset(1, 1);
  ds.build_index();
  std::vector<UserDay> days(3);
  days[0].cell_rx_mb = 0.05;  // below the 0.1 MB cut
  days[1].cell_rx_mb = 10;
  days[2].cell_rx_mb = 20;
  for (auto& d : days) d.device = DeviceId{0};
  const DailyVolumeStats s = daily_volume_stats(days);
  EXPECT_DOUBLE_EQ(s.median_all, 15.0);  // 0.05 filtered out of "All"
  EXPECT_DOUBLE_EQ(s.median_cell, 10.0);  // cell series keeps all rows
}

TEST(DailyVolumes, FactsMatchPaperBands2015) {
  const auto days = user_days(campaign(Year::Y2015));
  const DailyVolumeFacts f = daily_volume_facts(days);
  // Fig 4: 8% idle cellular, 20% idle WiFi, 1.4% over-cap user-days.
  EXPECT_NEAR(f.zero_cell_share, 0.08, 0.05);
  EXPECT_NEAR(f.zero_wifi_share, 0.20, 0.10);
  EXPECT_LT(f.over_cap_share, 0.05);
  EXPECT_GT(f.max_daily_rx_mb, 1000.0);  // multi-GB heavy hitters exist
}

TEST(DailyVolumes, CdfsAreConsistentWithStats) {
  const auto days = user_days(campaign(Year::Y2014));
  const DailyVolumeCdfs cdfs = daily_volume_cdfs(days);
  const DailyVolumeStats s = daily_volume_stats(days);
  EXPECT_NEAR(cdfs.all_rx.quantile(0.5), s.median_all, 1e-9);
  EXPECT_NEAR(cdfs.wifi_rx.quantile(0.5), s.median_wifi, 1e-9);
  // RX dominates TX (Fig 3: RX about 5x TX).
  EXPECT_GT(cdfs.all_rx.quantile(0.5), 3 * cdfs.all_tx.quantile(0.5));
}

TEST(DailyVolumes, AgrAcrossYearsHasPaperOrdering) {
  // WiFi grows much faster than cellular (Table 3: 134% vs 35% medians).
  std::vector<double> med_cell, med_wifi;
  for (Year y : kAllYears) {
    const auto s = daily_volume_stats(user_days(campaign(y)));
    med_cell.push_back(s.median_cell);
    med_wifi.push_back(s.median_wifi);
  }
  EXPECT_GT(stats::annual_growth_rate(med_wifi),
            2 * stats::annual_growth_rate(med_cell));
}

}  // namespace
}  // namespace tokyonet::analysis
