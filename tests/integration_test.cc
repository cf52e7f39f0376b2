// Cross-year integration tests: the longitudinal findings of §1 must
// hold end-to-end — simulate each campaign, run the paper's analysis
// pipeline, and check every headline trend's *direction*.
#include <gtest/gtest.h>

#include "analysis/aggregate.h"
#include "analysis/availability.h"
#include "analysis/classify.h"
#include "analysis/quality.h"
#include "analysis/ratios.h"
#include "analysis/update.h"
#include "analysis/volumes.h"
#include "analysis/wifistate.h"
#include "analysis/wifiusage.h"
#include "stats/descriptive.h"
#include "testutil.h"

namespace tokyonet::analysis {
namespace {

using test::campaign;
using test::campaign_source;
using test::campaign_classification;

TEST(Longitudinal, WifiShareOfTrafficGrows) {
  // §3.1: WiFi share of total volume 59% (2013) -> 67% (2015).
  double prev = 0;
  for (Year y : kAllYears) {
    const auto& src = campaign_source(y);
    const double wifi = aggregate_series(src, Stream::WifiRx).total_mb() +
                        aggregate_series(src, Stream::WifiTx).total_mb();
    const double cell = aggregate_series(src, Stream::CellRx).total_mb() +
                        aggregate_series(src, Stream::CellTx).total_mb();
    const double share = wifi / (wifi + cell);
    EXPECT_GT(share, prev);
    prev = share;
  }
  EXPECT_NEAR(prev, 0.67, 0.08);  // 2015
}

TEST(Longitudinal, HomeApInferenceGrows) {
  // §3.4.1: 66% -> 73% -> 79% of users with an inferred home AP.
  double prev = 0;
  for (Year y : kAllYears) {
    const double share = campaign_classification(y).home_ap_device_share();
    EXPECT_GT(share, prev);
    prev = share;
  }
  EXPECT_NEAR(prev, 0.79, 0.10);
}

TEST(Longitudinal, PublicApCountsGrow) {
  // Table 4: associated public APs double over the period; home counts
  // track the panel; office counts stay roughly stable.
  auto counts13 = campaign_classification(Year::Y2013).counts();
  auto counts15 = campaign_classification(Year::Y2015).counts();
  EXPECT_GT(counts15.publik, counts13.publik * 3 / 2);
  EXPECT_NEAR(counts15.office, counts13.office,
              std::max(8, counts13.office / 2));
}

TEST(Longitudinal, MultiApDaysBecomeCommon) {
  // §1 finding (3): by 2015 ~40% of WiFi user-days touch >= 2 APs.
  const Dataset& ds15 = campaign(Year::Y2015);
  const auto& src15 = campaign_source(Year::Y2015);
  const auto days15 = user_days(ds15);
  const ApsPerDay a15 = aps_per_day(src15, days15, UserClassifier(days15));
  const double multi15 = 1.0 - a15.share[0][0];
  EXPECT_NEAR(multi15, 0.40, 0.10);

  const Dataset& ds13 = campaign(Year::Y2013);
  const auto& src13 = campaign_source(Year::Y2013);
  const auto days13 = user_days(ds13);
  const ApsPerDay a13 = aps_per_day(src13, days13, UserClassifier(days13));
  EXPECT_GT(multi15, 1.0 - a13.share[0][0]);
}

TEST(Longitudinal, OffloadEnvironmentImproves) {
  // WiFi-traffic ratio, WiFi-user ratio and the WiFi-off share all move
  // the right way between consecutive years.
  double prev_traffic = 0, prev_users = 0, prev_off = 1;
  for (Year y : kAllYears) {
    const Dataset& ds = campaign(y);
    const auto& src = campaign_source(y);
    const auto days = user_days(ds);
    const UserClassifier classes(days);
    const WifiRatios r = compute_wifi_ratios(src, days, classes);
    const WifiStateProfiles st = compute_wifi_states(src);
    EXPECT_GE(r.traffic_all.mean_ratio(), prev_traffic - 0.02);
    EXPECT_GE(r.users_all.mean_ratio(), prev_users - 0.02);
    EXPECT_LE(st.mean_android_off(), prev_off + 0.02);
    prev_traffic = r.traffic_all.mean_ratio();
    prev_users = r.users_all.mean_ratio();
    prev_off = st.mean_android_off();
  }
}

TEST(Longitudinal, Table3GrowthRatesOrdered) {
  // Table 3: WiFi AGR >> All AGR > cellular AGR (medians).
  std::vector<double> med_all, med_cell, med_wifi;
  for (Year y : kAllYears) {
    const auto s = daily_volume_stats(user_days(campaign(y)));
    med_all.push_back(s.median_all);
    med_cell.push_back(s.median_cell);
    med_wifi.push_back(s.median_wifi);
  }
  const double agr_all = stats::annual_growth_rate(med_all);
  const double agr_cell = stats::annual_growth_rate(med_cell);
  const double agr_wifi = stats::annual_growth_rate(med_wifi);
  EXPECT_GT(agr_wifi, agr_all);
  EXPECT_GT(agr_all, agr_cell);
  EXPECT_NEAR(agr_all, 0.55, 0.35);
}

TEST(Longitudinal, UpdateExclusionLowersMeasuredVolumes) {
  // §2: dropping the iOS 8.2 days removes the 565 MB bursts from the
  // main analysis.
  const Dataset& ds = campaign(Year::Y2015);
  UpdateDetectOptions opt;
  opt.min_day = 9;
  const UpdateDetection det = detect_updates(ds, opt);
  UserDayOptions with;
  with.update_bin_by_device = &det.update_bin;
  const auto days_with = user_days(ds);
  const auto days_without = user_days(ds, with);
  EXPECT_LT(days_without.size(), days_with.size());
  EXPECT_LE(daily_volume_stats(days_without).mean_wifi,
            daily_volume_stats(days_with).mean_wifi);
}

TEST(Longitudinal, ScanCoverageImproves) {
  // §3.5: cells with strong public coverage multiply, and 5 GHz goes
  // from a rarity to common.
  const auto strong_share = [](Year y) {
    const ScanAvailability s = scan_availability(campaign_source(y));
    std::size_t with5 = 0;
    for (double v : s.strong_5) with5 += v > 0;
    return static_cast<double>(with5) / static_cast<double>(s.strong_5.size());
  };
  EXPECT_GT(strong_share(Year::Y2015), strong_share(Year::Y2013) * 1.5);
}

TEST(Longitudinal, DatasetSizesTrackTable1) {
  // Table 1 panel sizes shrink slightly every year at full scale; the
  // fixture scale preserves the proportion.
  const auto n13 = campaign(Year::Y2013).devices.size();
  const auto n15 = campaign(Year::Y2015).devices.size();
  EXPECT_GT(n13, n15);
  EXPECT_NEAR(static_cast<double>(n13) / static_cast<double>(n15),
              1755.0 / 1616.0, 0.08);
}

}  // namespace
}  // namespace tokyonet::analysis
