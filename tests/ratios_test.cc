// Tests for WiFi-traffic/WiFi-user ratios (Figs 6-8) and the per-OS
// interface-state profiles (Fig 9).
#include <gtest/gtest.h>

#include "analysis/ratios.h"
#include "analysis/wifistate.h"
#include "testutil.h"

namespace tokyonet::analysis {
namespace {

using test::campaign;

struct YearRatios {
  WifiRatios ratios;
  WifiStateProfiles states;
};

const YearRatios& year_ratios(Year y) {
  static const YearRatios* cache[kNumYears] = {};
  const int i = static_cast<int>(y);
  if (cache[i] == nullptr) {
    const Dataset& ds = campaign(y);
    const auto days = user_days(ds);
    const UserClassifier classes(days);
    auto* yr = new YearRatios{compute_wifi_ratios(ds, days, classes),
                              compute_wifi_states(test::campaign_source(y))};
    cache[i] = yr;
  }
  return *cache[i];
}

TEST(WifiRatios, AllSeriesBounded) {
  const WifiRatios& r = year_ratios(Year::Y2015).ratios;
  for (const WeeklyProfile* p :
       {&r.traffic_all, &r.users_all, &r.traffic_heavy, &r.traffic_light,
        &r.users_heavy, &r.users_light}) {
    for (double v : p->ratio_series()) {
      ASSERT_GE(v, 0.0);
      ASSERT_LE(v, 1.0);
    }
  }
}

TEST(WifiRatios, MeansGrowAcrossYears) {
  // Fig 6: WiFi-traffic ratio 0.58 -> 0.71; WiFi-user ratio 0.32 -> 0.48.
  const double t13 = year_ratios(Year::Y2013).ratios.traffic_all.mean_ratio();
  const double t15 = year_ratios(Year::Y2015).ratios.traffic_all.mean_ratio();
  const double u13 = year_ratios(Year::Y2013).ratios.users_all.mean_ratio();
  const double u15 = year_ratios(Year::Y2015).ratios.users_all.mean_ratio();
  EXPECT_NEAR(t13, 0.58, 0.08);
  EXPECT_NEAR(t15, 0.71, 0.08);
  EXPECT_NEAR(u13, 0.36, 0.09);
  EXPECT_NEAR(u15, 0.48, 0.08);
  EXPECT_GT(t15, t13);
  EXPECT_GT(u15, u13);
}

TEST(WifiRatios, HeavyHittersOffloadMoreThanLightUsers) {
  // Figs 7/8: heavy hitters lead light users in both ratios, every year.
  for (Year y : kAllYears) {
    const WifiRatios& r = year_ratios(y).ratios;
    EXPECT_GT(r.traffic_heavy.mean_ratio(), r.traffic_light.mean_ratio());
    EXPECT_GT(r.users_heavy.mean_ratio(), r.users_light.mean_ratio());
  }
}

TEST(WifiRatios, HeavyTrafficRatioBandsMatchPaper) {
  // Fig 7: heavy hitters 73% (2013) -> 89% (2015); light 42% -> 52%.
  const WifiRatios& r13 = year_ratios(Year::Y2013).ratios;
  const WifiRatios& r15 = year_ratios(Year::Y2015).ratios;
  EXPECT_NEAR(r13.traffic_heavy.mean_ratio(), 0.73, 0.16);
  EXPECT_NEAR(r15.traffic_heavy.mean_ratio(), 0.89, 0.12);
  EXPECT_NEAR(r13.traffic_light.mean_ratio(), 0.42, 0.12);
  EXPECT_NEAR(r15.traffic_light.mean_ratio(), 0.52, 0.15);
}

TEST(WifiRatios, DiurnalPattern) {
  // WiFi share of traffic peaks late evening and dips in the afternoon
  // (Fig 6a). Compare Monday 23h vs Monday 14h.
  const WifiRatios& r = year_ratios(Year::Y2015).ratios;
  const auto series = r.traffic_all.ratio_series();
  const int monday = 2 * 24;  // Sat, Sun, Mon
  EXPECT_GT(series[monday + 23], series[monday + 14]);
}

TEST(WifiStates, AndroidStatesPartitionUnity) {
  const WifiStateProfiles& p = year_ratios(Year::Y2015).states;
  const auto user = p.android_user.ratio_series();
  const auto off = p.android_off.ratio_series();
  const auto avail = p.android_available.ratio_series();
  for (int h = 0; h < WeeklyProfile::kHours; ++h) {
    const double sum = user[static_cast<std::size_t>(h)] +
                       off[static_cast<std::size_t>(h)] +
                       avail[static_cast<std::size_t>(h)];
    ASSERT_NEAR(sum, 1.0, 1e-9) << "hour " << h;
  }
}

TEST(WifiStates, WifiOffShareDropsFrom2013To2015) {
  // Fig 9: ~50% of Android users off during the day in 2013 -> ~40%.
  const double off13 = year_ratios(Year::Y2013).states.mean_android_off();
  const double off15 = year_ratios(Year::Y2015).states.mean_android_off();
  EXPECT_GT(off13, off15 + 0.03);
  EXPECT_NEAR(off13, 0.45, 0.12);
  EXPECT_NEAR(off15, 0.33, 0.12);
}

TEST(WifiStates, WifiAvailableShareStable) {
  // Fig 9: the WiFi-available share stays around 0.25.
  for (Year y : kAllYears) {
    EXPECT_NEAR(year_ratios(y).states.mean_android_available(), 0.26, 0.09);
  }
}

TEST(WifiStates, IosConnectsMoreThanAndroid) {
  // §3.3.4: iOS WiFi connectivity is ~30% higher than Android's.
  for (Year y : kAllYears) {
    const WifiStateProfiles& p = year_ratios(y).states;
    EXPECT_GT(p.ios_user.mean_ratio(), p.android_user.mean_ratio() * 1.03);
  }
}

TEST(WifiStates, OffPeaksDuringBusinessHours) {
  // Fig 9: WiFi-off peaks 10:00-18:00, dips at night.
  const WifiStateProfiles& p = year_ratios(Year::Y2013).states;
  const auto off = p.android_off.ratio_series();
  const int tuesday = 3 * 24;
  EXPECT_GT(off[tuesday + 14], off[tuesday + 2]);
}

}  // namespace
}  // namespace tokyonet::analysis
