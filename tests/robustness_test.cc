// Failure-injection tests: the analysis layer must behave sensibly on
// degenerate record streams — empty datasets, devices with no samples,
// upload gaps, and idle populations.
#include <gtest/gtest.h>

#include "analysis/aggregate.h"
#include "analysis/availability.h"
#include "analysis/cap.h"
#include "analysis/classify.h"
#include "analysis/quality.h"
#include "analysis/ratios.h"
#include "analysis/update.h"
#include "analysis/usertype.h"
#include "analysis/volumes.h"
#include "analysis/wifistate.h"
#include "analysis/wifiusage.h"
#include "testutil.h"

namespace tokyonet::analysis {
namespace {

using test::add_ap;
using test::add_sample;
using test::campaign;
using test::empty_dataset;

TEST(Robustness, EmptyDatasetEverywhere) {
  Dataset ds = empty_dataset(0, 1);
  ds.build_index();
  const query::InMemorySource src(ds);
  const ApClassification cls = classify_aps(src);
  const auto days = user_days(ds);
  EXPECT_TRUE(days.empty());
  EXPECT_EQ(cls.counts().total, 0);
  EXPECT_EQ(detect_updates(ds).num_ios, 0);
  EXPECT_EQ(scan_availability(src).all_24.size(), 0u);
  EXPECT_EQ(offload_opportunity(src).num_wifi_available_users, 0);
  const CapAnalysis cap = analyze_cap(ds.devices.size(), days);
  EXPECT_DOUBLE_EQ(cap.capped_user_share, 0.0);
  const UserTypeStats ut = user_type_stats(ds.devices.size(), days);
  EXPECT_DOUBLE_EQ(ut.mixed_frac, 0.0);
  const auto agg = aggregate_series(src, Stream::WifiRx);
  EXPECT_DOUBLE_EQ(agg.total_mb(), 0.0);
}

TEST(Robustness, DeviceWithNoSamples) {
  Dataset ds = empty_dataset(3, 2);
  std::vector<test::Row> rows;
  // Only device 1 reports anything (devices 0 and 2 failed to upload).
  add_sample(rows, 1, 0, 1'000'000u, 0);
  test::set_rows(ds, rows);
  EXPECT_EQ(ds.index().device_begin(0), ds.index().device_end(0));
  EXPECT_EQ(ds.index().device_end(1) - ds.index().device_begin(1), 1u);
  const auto days = user_days(ds);
  EXPECT_EQ(days.size(), 6u);  // rows exist for idle devices too
  const auto cls = classify_aps(query::InMemorySource(ds));
  EXPECT_EQ(cls.home_ap_of_device[0], kNoAp);
}

TEST(Robustness, UploadGapsSplitAssociationRuns) {
  // A gap in the record stream must not merge two association runs.
  Dataset ds = empty_dataset(1, 1);
  std::vector<test::Row> rows;
  const ApId ap = add_ap(ds, "cafe-wifi-01");
  add_sample(rows, 0, 10, 0, 100, WifiState::Associated, ap);
  add_sample(rows, 0, 11, 0, 100, WifiState::Associated, ap);
  // bins 12-19 missing (upload failure)
  add_sample(rows, 0, 20, 0, 100, WifiState::Associated, ap);
  test::set_rows(ds, rows);
  const query::InMemorySource src(ds);
  ApClassification cls = classify_aps(src);
  const AssociationDurations d = association_durations(src, cls);
  std::size_t runs =
      d.home_hours.size() + d.public_hours.size() + d.office_hours.size();
  // The AP is "other" (non-office here), so durations may be empty; use
  // a public ESSID variant to observe runs instead.
  Dataset ds2 = empty_dataset(1, 1);
  rows.clear();
  const ApId pub = add_ap(ds2, "0000docomo");
  add_sample(rows, 0, 10, 0, 100, WifiState::Associated, pub);
  add_sample(rows, 0, 11, 0, 100, WifiState::Associated, pub);
  add_sample(rows, 0, 20, 0, 100, WifiState::Associated, pub);
  test::set_rows(ds2, rows);
  const query::InMemorySource src2(ds2);
  cls = classify_aps(src2);
  const AssociationDurations d2 = association_durations(src2, cls);
  ASSERT_EQ(d2.public_hours.size(), 2u);  // split, not merged
  EXPECT_DOUBLE_EQ(d2.public_hours[0], 2.0 / 6);
  EXPECT_DOUBLE_EQ(d2.public_hours[1], 1.0 / 6);
  (void)runs;
}

TEST(Robustness, AllZeroTrafficPopulation) {
  Dataset ds = empty_dataset(4, 3);
  std::vector<test::Row> rows;
  for (std::uint32_t dev = 0; dev < 4; ++dev) {
    for (int b = 0; b < 3 * kBinsPerDay; b += 36) {
      add_sample(rows, dev, static_cast<TimeBin>(b), 0, 0);
    }
  }
  test::set_rows(ds, rows);
  const auto days = user_days(ds);
  const DailyVolumeStats s = daily_volume_stats(days);
  EXPECT_DOUBLE_EQ(s.median_all, 0.0);
  const DailyVolumeFacts f = daily_volume_facts(days);
  EXPECT_DOUBLE_EQ(f.zero_cell_share, 1.0);
  EXPECT_DOUBLE_EQ(f.zero_wifi_share, 1.0);
  const UserClassifier classes(days);
  const WifiRatios r =
      compute_wifi_ratios(query::InMemorySource(ds), days, classes);
  for (double v : r.traffic_all.ratio_series()) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(Robustness, CapAnalysisNeedsFullLookback) {
  // Days 0-2 can never be classified (no 3-day history) and must not
  // produce ratios.
  Dataset ds = empty_dataset(1, 3);
  std::vector<test::Row> rows;
  for (int d = 0; d < 3; ++d) {
    add_sample(rows, 0, static_cast<TimeBin>(d * kBinsPerDay), 500'000'000u, 0);
  }
  test::set_rows(ds, rows);
  const CapAnalysis c = analyze_cap(ds.devices.size(), user_days(ds));
  EXPECT_EQ(c.ratio_capped.size() + c.ratio_others.size(), 0u);
}

TEST(Robustness, WeeklyProfilesHandlePartialWeeks) {
  // A 3-day campaign only populates some hours of the weekly frame.
  Dataset ds = empty_dataset(1, 3);
  std::vector<test::Row> rows;
  add_sample(rows, 0, 0, 1'000'000u, 0);
  test::set_rows(ds, rows);
  const query::InMemorySource src(ds);
  const WifiStateProfiles p = compute_wifi_states(src);
  const auto series = p.android_user.ratio_series();
  EXPECT_EQ(series.size(), static_cast<std::size_t>(WeeklyProfile::kHours));
}

TEST(Robustness, HeatmapIgnoresIdleDays) {
  Dataset ds = empty_dataset(1, 2);
  ds.build_index();
  std::vector<UserDay> days(2);
  days[0].device = DeviceId{0};
  days[1].device = DeviceId{0};
  days[1].day = 1;
  days[1].wifi_rx_mb = 5.0;
  const auto heat = user_day_heatmap(days);
  EXPECT_DOUBLE_EQ(heat.total(), 1.0);
}

TEST(Robustness, RssiAnalysisWithNoWifi) {
  Dataset ds = empty_dataset(2, 2);
  std::vector<test::Row> rows;
  add_sample(rows, 0, 0, 1'000'000u, 0);
  test::set_rows(ds, rows);
  const query::InMemorySource src(ds);
  const auto cls = classify_aps(src);
  const RssiAnalysis r = rssi_analysis(src, cls);
  EXPECT_TRUE(r.home_max_rssi.empty());
  EXPECT_DOUBLE_EQ(r.home_mean, 0.0);
}

TEST(Robustness, LargeVolumesDoNotOverflowRollups) {
  Dataset ds = empty_dataset(1, 1);
  std::vector<test::Row> rows;
  for (int b = 0; b < 100; ++b) {
    add_sample(rows, 0, static_cast<TimeBin>(b), 4'000'000'000u, 0);
  }
  test::set_rows(ds, rows);
  const auto days = user_days(ds);
  EXPECT_NEAR(days[0].cell_rx_mb, 400'000.0, 1.0);  // 400 GB day
}

}  // namespace
}  // namespace tokyonet::analysis
