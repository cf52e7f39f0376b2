// Tests for the battery model (§2's battery status) and tethering
// (§2's data cleaning).
#include <gtest/gtest.h>

#include "analysis/battery.h"
#include "analysis/volumes.h"
#include "testutil.h"

namespace tokyonet::analysis {
namespace {

using test::campaign;
using test::campaign_source;

TEST(Battery, LevelsInRange) {
  const Dataset& ds = campaign(Year::Y2015);
  for (const Sample& s : ds.samples) {
    ASSERT_GE(s.battery_pct, 1);
    ASSERT_LE(s.battery_pct, 100);
  }
}

TEST(Battery, ChargesOvernightDrainsByEvening) {
  const auto& src = campaign_source(Year::Y2015);
  const BatteryAnalysis b = battery_analysis(src);
  const auto profile = b.mean_level.ratio_series();
  // Mean level at 07:00 (post-charge) clearly exceeds 21:00 (post-day).
  const int monday = 2 * 24;
  EXPECT_GT(profile[monday + 7], profile[monday + 21] + 10);
  EXPECT_GT(profile[monday + 7], 80);
}

TEST(Battery, SummaryStatsSane) {
  const BatteryAnalysis b = battery_analysis(campaign_source(Year::Y2015));
  EXPECT_GT(b.mean, 40);
  EXPECT_LT(b.mean, 95);
  EXPECT_GE(b.low_share, 0.0);
  EXPECT_LT(b.low_share, 0.30);
  EXPECT_GT(b.mean_wifi_off, 0);
  EXPECT_GT(b.mean_wifi_on, 0);
}

TEST(Battery, IntraDayMonotoneWhileAwayFromPower) {
  // For a worker's office hours (no charging opportunity unless low),
  // battery never increases except from the low-battery top-up.
  const Dataset& ds = campaign(Year::Y2015);
  int violations = 0, checked = 0;
  for (const DeviceInfo& dev : ds.devices) {
    const auto samples = ds.device_samples(dev.id);
    for (std::size_t i = 1; i < samples.size(); ++i) {
      const Sample& prev = samples[i - 1];
      const Sample& cur = samples[i];
      if (cur.bin != prev.bin + 1) continue;
      const int hour = ds.calendar.hour_of(cur.bin);
      if (hour < 10 || hour >= 17) continue;
      ++checked;
      if (cur.battery_pct > prev.battery_pct + 1 && prev.battery_pct > 25) {
        ++violations;
      }
    }
  }
  ASSERT_GT(checked, 1000);
  EXPECT_EQ(violations, 0);
}

TEST(Tethering, AndroidOnlyAndMatchesTruth) {
  const Dataset& ds = campaign(Year::Y2015);
  for (const Sample& s : ds.samples) {
    if (!s.tethering) continue;
    EXPECT_EQ(ds.devices[value(s.device)].os, Os::Android);
    EXPECT_TRUE(ds.truth.devices[value(s.device)].is_tetherer);
    // Hotspot mode keeps the client WiFi radio off.
    EXPECT_EQ(s.wifi_state, WifiState::Off);
    EXPECT_EQ(s.wifi_rx, 0u);
  }
}

TEST(Tethering, SomeTetherTrafficExists) {
  const Dataset& ds = campaign(Year::Y2015);
  double tether_mb = 0;
  std::size_t tether_bins = 0;
  for (const Sample& s : ds.samples) {
    if (s.tethering) {
      tether_mb += s.cell_rx / 1e6;
      ++tether_bins;
    }
  }
  EXPECT_GT(tether_bins, 5u);
  // Laptop-grade volumes: tens of MB per 10-minute bin on average.
  EXPECT_GT(tether_mb / static_cast<double>(tether_bins), 20.0);
}

TEST(Tethering, ExclusionMirrorsPaperCleaning) {
  const Dataset& ds = campaign(Year::Y2015);
  UserDayOptions keep;
  keep.exclude_tethering = false;
  const auto with = user_days(ds, keep);
  const auto without = user_days(ds);  // default: excluded
  ASSERT_EQ(with.size(), without.size());
  double with_cell = 0, without_cell = 0;
  for (const UserDay& d : with) with_cell += d.cell_rx_mb;
  for (const UserDay& d : without) without_cell += d.cell_rx_mb;
  EXPECT_GT(with_cell, without_cell);  // tether volume stripped
}

TEST(Tethering, NonTetherersUnaffectedByExclusion) {
  const Dataset& ds = campaign(Year::Y2015);
  UserDayOptions keep;
  keep.exclude_tethering = false;
  const auto with = user_days(ds, keep);
  const auto without = user_days(ds);
  for (std::size_t i = 0; i < with.size(); ++i) {
    if (ds.truth.devices[value(with[i].device)].is_tetherer) continue;
    ASSERT_DOUBLE_EQ(with[i].cell_rx_mb, without[i].cell_rx_mb);
  }
}

}  // namespace
}  // namespace tokyonet::analysis
