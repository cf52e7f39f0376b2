#include "core/clock.h"

#include <gtest/gtest.h>

namespace tokyonet {
namespace {

TEST(CivilDate, KnownEpochs) {
  EXPECT_EQ(days_from_civil({1970, 1, 1}), 0);
  EXPECT_EQ(days_from_civil({1970, 1, 2}), 1);
  EXPECT_EQ(days_from_civil({1969, 12, 31}), -1);
  EXPECT_EQ(days_from_civil({2000, 3, 1}), 11017);
}

TEST(CivilDate, KnownWeekdays) {
  // Campaign start dates from Table 1.
  EXPECT_EQ(weekday_of({2013, 3, 7}), Weekday::Thursday);
  EXPECT_EQ(weekday_of({2014, 2, 28}), Weekday::Friday);
  EXPECT_EQ(weekday_of({2015, 2, 28}), Weekday::Saturday);
  // The iOS 8.2 release date (§3.7).
  EXPECT_EQ(weekday_of({2015, 3, 10}), Weekday::Tuesday);
}

TEST(CivilDate, LeapYearHandling) {
  EXPECT_EQ(days_from_civil({2012, 3, 1}) - days_from_civil({2012, 2, 28}), 2);
  EXPECT_EQ(days_from_civil({2013, 3, 1}) - days_from_civil({2013, 2, 28}), 1);
}

class DateRoundTrip : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(DateRoundTrip, CivilFromDaysInvertsDaysFromCivil) {
  const std::int64_t z = GetParam();
  const Date d = civil_from_days(z);
  EXPECT_EQ(days_from_civil(d), z);
  EXPECT_GE(d.month, 1);
  EXPECT_LE(d.month, 12);
  EXPECT_GE(d.day, 1);
  EXPECT_LE(d.day, 31);
}

INSTANTIATE_TEST_SUITE_P(Sweep, DateRoundTrip,
                         ::testing::Values(-719468, -1, 0, 1, 15000, 15795,
                                           16493, 16858, 20000, 40000));

TEST(CampaignCalendar, BinArithmetic) {
  const CampaignCalendar cal(Date{2015, 2, 28}, 26);
  EXPECT_EQ(cal.num_bins(), 26 * 144);
  EXPECT_EQ(cal.day_of(0), 0);
  EXPECT_EQ(cal.day_of(143), 0);
  EXPECT_EQ(cal.day_of(144), 1);
  EXPECT_EQ(cal.hour_of(0), 0);
  EXPECT_EQ(cal.hour_of(5), 0);
  EXPECT_EQ(cal.hour_of(6), 1);
  EXPECT_EQ(cal.hour_of(143), 23);
}

TEST(CampaignCalendar, WeekdayProgression) {
  const CampaignCalendar cal(Date{2015, 2, 28}, 26);  // starts Saturday
  EXPECT_EQ(cal.weekday_of_day(0), Weekday::Saturday);
  EXPECT_EQ(cal.weekday_of_day(1), Weekday::Sunday);
  EXPECT_EQ(cal.weekday_of_day(2), Weekday::Monday);
  EXPECT_EQ(cal.weekday_of_day(7), Weekday::Saturday);
  EXPECT_TRUE(cal.is_weekend_day(0));
  EXPECT_TRUE(cal.is_weekend_day(1));
  EXPECT_FALSE(cal.is_weekend_day(2));
}

TEST(CampaignCalendar, DateOfDayCrossesMonth) {
  const CampaignCalendar cal(Date{2015, 2, 28}, 26);
  EXPECT_EQ(cal.date_of_day(0), (Date{2015, 2, 28}));
  EXPECT_EQ(cal.date_of_day(1), (Date{2015, 3, 1}));
  EXPECT_EQ(cal.date_of_day(10), (Date{2015, 3, 10}));  // iOS 8.2 day
}

TEST(CampaignCalendar, HourWindowPlain) {
  const CampaignCalendar cal(Date{2015, 2, 28}, 2);
  const TimeBin eleven_am = 11 * kBinsPerHour;
  EXPECT_TRUE(cal.in_hour_window(eleven_am, 11, 17));
  EXPECT_FALSE(cal.in_hour_window(eleven_am, 12, 17));
  const TimeBin five_pm = 17 * kBinsPerHour;
  EXPECT_FALSE(cal.in_hour_window(five_pm, 11, 17));
}

TEST(CampaignCalendar, HourWindowWrapsMidnight) {
  // The home-inference window is 22:00-06:00 (§3.4.1).
  const CampaignCalendar cal(Date{2015, 2, 28}, 2);
  EXPECT_TRUE(cal.in_hour_window(23 * kBinsPerHour, 22, 6));
  EXPECT_TRUE(cal.in_hour_window(0, 22, 6));
  EXPECT_TRUE(cal.in_hour_window(5 * kBinsPerHour, 22, 6));
  EXPECT_FALSE(cal.in_hour_window(6 * kBinsPerHour, 22, 6));
  EXPECT_FALSE(cal.in_hour_window(12 * kBinsPerHour, 22, 6));
}

TEST(CampaignCalendar, DayLabelMatchesPaperAxis) {
  const CampaignCalendar cal(Date{2015, 2, 28}, 8);
  EXPECT_EQ(cal.day_label(0), "28 Sat");
  EXPECT_EQ(cal.day_label(1), "01 Sun");
  EXPECT_EQ(cal.day_label(2), "02 Mon");
}

class HourWindowProperty
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(HourWindowProperty, EveryHourClassifiedConsistently) {
  const auto [from, to] = GetParam();
  const CampaignCalendar cal(Date{2015, 2, 28}, 1);
  int inside = 0;
  for (int h = 0; h < 24; ++h) {
    inside += cal.in_hour_window(static_cast<TimeBin>(h * kBinsPerHour),
                                 from, to);
  }
  int expect = to - from;
  if (expect <= 0) expect += 24;
  EXPECT_EQ(inside, expect);
}

INSTANTIATE_TEST_SUITE_P(Sweep, HourWindowProperty,
                         ::testing::Values(std::pair{22, 6}, std::pair{11, 17},
                                           std::pair{0, 24}, std::pair{12, 23},
                                           std::pair{23, 1}));

}  // namespace
}  // namespace tokyonet
