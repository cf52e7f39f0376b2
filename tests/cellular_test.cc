#include "net/cellular.h"

#include <gtest/gtest.h>

namespace tokyonet::net {
namespace {

CapParams default_params() {
  CapParams p;
  p.threshold_mb = 1000;
  p.suppression = 0.2;
  p.peak_from_hour = 12;
  p.peak_to_hour = 23;
  p.relaxed = {false, false, false};
  p.relaxed_suppression = 0.9;
  return p;
}

TEST(CapTracker, LookbackWindowIsPreviousThreeDays) {
  DeviceCapTracker t(default_params(), 10);
  t.add_download_mb(0, 100);
  t.add_download_mb(1, 200);
  t.add_download_mb(2, 300);
  t.add_download_mb(3, 400);
  EXPECT_DOUBLE_EQ(t.lookback_mb(3), 600);  // days 0..2
  EXPECT_DOUBLE_EQ(t.lookback_mb(4), 900);  // days 1..3
  EXPECT_DOUBLE_EQ(t.lookback_mb(0), 0);    // nothing before day 0
  EXPECT_DOUBLE_EQ(t.lookback_mb(1), 100);
}

TEST(CapTracker, AccumulatesWithinDay) {
  DeviceCapTracker t(default_params(), 5);
  t.add_download_mb(0, 400);
  t.add_download_mb(0, 700);
  EXPECT_DOUBLE_EQ(t.lookback_mb(1), 1100);
  EXPECT_TRUE(t.capped_on(1));
}

TEST(CapTracker, ThresholdIsStrict) {
  DeviceCapTracker t(default_params(), 5);
  t.add_download_mb(0, 1000);
  EXPECT_FALSE(t.capped_on(1));  // exactly 1000 is not over
  t.add_download_mb(0, 0.1);
  EXPECT_TRUE(t.capped_on(1));
}

TEST(CapTracker, DevicesIndependent) {
  // One tracker per device: volume recorded on one never caps another.
  DeviceCapTracker heavy(default_params(), 5);
  const DeviceCapTracker light(default_params(), 5);
  heavy.add_download_mb(0, 5000);
  EXPECT_TRUE(heavy.capped_on(1));
  EXPECT_FALSE(light.capped_on(1));
  EXPECT_DOUBLE_EQ(light.lookback_mb(1), 0);
}

class CapMultiplier : public ::testing::TestWithParam<int> {};

TEST_P(CapMultiplier, OnlyPeakHoursSuppressed) {
  DeviceCapTracker t(default_params(), 5);
  t.add_download_mb(0, 2000);
  const int hour = GetParam();
  const double m = t.demand_multiplier(Carrier::CarrierA, 1, hour);
  if (hour >= 12 && hour < 23) {
    EXPECT_DOUBLE_EQ(m, 0.2);
  } else {
    EXPECT_DOUBLE_EQ(m, 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Hours, CapMultiplier,
                         ::testing::Values(0, 8, 11, 12, 15, 22, 23));

TEST(CapTracker, UncappedNeverSuppressed) {
  DeviceCapTracker t(default_params(), 5);
  t.add_download_mb(0, 100);
  for (int h = 0; h < 24; ++h) {
    EXPECT_DOUBLE_EQ(t.demand_multiplier(Carrier::CarrierA, 1, h), 1.0);
  }
}

TEST(CapTracker, RelaxedCarrierSuppressesLess) {
  CapParams p = default_params();
  p.relaxed = {true, false, false};  // carrier A relaxed (Feb 2015, §3.8)
  DeviceCapTracker t(p, 5);
  t.add_download_mb(0, 2000);
  EXPECT_DOUBLE_EQ(t.demand_multiplier(Carrier::CarrierA, 1, 15), 0.9);
  EXPECT_DOUBLE_EQ(t.demand_multiplier(Carrier::CarrierB, 1, 15), 0.2);
}

TEST(CapTracker, WindowSlidesOffOldDays) {
  DeviceCapTracker t(default_params(), 10);
  t.add_download_mb(0, 2000);
  EXPECT_TRUE(t.capped_on(1));
  EXPECT_TRUE(t.capped_on(3));
  EXPECT_FALSE(t.capped_on(4));  // day 0 is out of the window by now
}

}  // namespace
}  // namespace tokyonet::net
