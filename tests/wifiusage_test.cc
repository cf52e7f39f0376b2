// Tests for WiFi usage patterns: APs per day (Fig 12), HPO breakdown
// (Table 5), association durations (Fig 13), band fractions (Fig 14).
#include <gtest/gtest.h>

#include <array>
#include <initializer_list>
#include <map>
#include <vector>

#include "analysis/query/source.h"
#include "analysis/wifiusage.h"
#include "stats/descriptive.h"
#include "testutil.h"

namespace tokyonet::analysis {
namespace {

using test::add_ap;
using test::add_sample;
using test::campaign;
using test::campaign_source;
using test::campaign_classification;
using test::empty_dataset;

/// Appends associated samples on `aps`, one per bin from `first`.
void associate(std::vector<test::Row>& rows, std::uint32_t device, int day,
               std::initializer_list<ApId> aps, int first = 0) {
  auto bin = static_cast<TimeBin>(day * kBinsPerDay + first);
  for (const ApId ap : aps) {
    add_sample(rows, device, bin++, 0, 100, WifiState::Associated, ap);
  }
}

TEST(ApsPerDay, SharesNormalizedPerClass) {
  const Dataset& ds = campaign(Year::Y2015);
  const auto& src = campaign_source(Year::Y2015);
  const auto days = user_days(ds);
  const ApsPerDay a = aps_per_day(src, days, UserClassifier(days));
  for (int c = 0; c < 3; ++c) {
    double sum = 0;
    for (int k = 0; k < 4; ++k) {
      sum += a.share[static_cast<std::size_t>(c)][static_cast<std::size_t>(k)];
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST(ApsPerDay, SingleApShareDeclinesOverYears) {
  // Fig 12: the one-AP-per-day share falls ~10 points from 2013 to 2015.
  double prev = 1.0;
  for (Year y : kAllYears) {
    const Dataset& ds = campaign(y);
    const auto& src = campaign_source(y);
    const auto days = user_days(ds);
    const ApsPerDay a = aps_per_day(src, days, UserClassifier(days));
    EXPECT_LE(a.share[0][0], prev + 0.02);
    prev = a.share[0][0];
  }
  const Dataset& ds13 = campaign(Year::Y2013);
  const auto& src13 = campaign_source(Year::Y2013);
  const auto days13 = user_days(ds13);
  const double one13 =
      aps_per_day(src13, days13, UserClassifier(days13)).share[0][0];
  EXPECT_GT(one13 - prev, 0.03);
}

TEST(ApsPerDay, HeavyAndLightSimilarMobility) {
  // §3.4.2: traffic volume does not correlate with mobility pattern.
  const Dataset& ds = campaign(Year::Y2015);
  const auto& src = campaign_source(Year::Y2015);
  const auto days = user_days(ds);
  const ApsPerDay a = aps_per_day(src, days, UserClassifier(days));
  EXPECT_NEAR(a.share[1][0], a.share[2][0], 0.15);
}

TEST(Hpo, SharesSumToOne) {
  const auto& src = campaign_source(Year::Y2015);
  const HpoBreakdown h =
      hpo_breakdown(src, campaign_classification(Year::Y2015));
  double sum = h.four_plus;
  for (const auto& [key, share] : h.share) sum += share;
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(Hpo, SingleHomeDominates) {
  // Table 5: HPO=100 is the top pattern every year (46-55%).
  for (Year y : kAllYears) {
    const auto& src = campaign_source(y);
    const HpoBreakdown h = hpo_breakdown(src, campaign_classification(y));
    const std::array<int, 3> home_only{1, 0, 0};
    ASSERT_TRUE(h.share.count(home_only));
    const double home_share = h.share.at(home_only);
    EXPECT_GT(home_share, 0.30);
    for (const auto& [key, share] : h.share) {
      EXPECT_LE(share, home_share + 1e-12);
    }
  }
}

TEST(Hpo, CountsDistinctEssidsPerClass) {
  Dataset ds = empty_dataset(2, 3);
  const ApId home_a = add_ap(ds, "aterm-AB12-g");
  const ApId home_b = add_ap(ds, "aterm-AB12-g");  // same ESSID and class
  const ApId fon_home = add_ap(ds, "FON_FREE_INTERNET");
  const ApId fon_public = add_ap(ds, "FON_FREE_INTERNET");
  const ApId pub = add_ap(ds, "0000docomo");
  const ApId office = add_ap(ds, "corp-ap-01");
  const ApId cafe = add_ap(ds, "cafe-wifi-99");
  ApClassification cls;
  cls.ap_class = {ApClass::Home,   ApClass::Home,  ApClass::Home,
                  ApClass::Public, ApClass::Public, ApClass::Other,
                  ApClass::Other};
  cls.associated.assign(ds.aps.size(), true);
  cls.is_office.assign(ds.aps.size(), false);
  cls.is_mobile.assign(ds.aps.size(), false);

  std::vector<test::Row> rows;
  // Device 0, day 0: two BSSIDs of one home ESSID -> (1, 0, 0).
  associate(rows, 0, 0, {home_a, home_a, home_b, home_a, home_b});
  // Day 1: only rows without an AP -> not a counted user-day.
  add_sample(rows, 0, TimeBin{kBinsPerDay + 3}, 0, 0, WifiState::Associated, kNoAp);
  add_sample(rows, 0, TimeBin{kBinsPerDay + 4}, 0, 0, WifiState::OnUnassociated);
  // Day 2: one ESSID as home and as public -> (1, 1, 0).
  associate(rows, 0, 2, {fon_home, fon_public, fon_home});
  // Device 1, day 0: four distinct ESSIDs -> 4+.
  associate(rows, 1, 0, {home_a, pub, office, cafe, pub});
  // Day 2: the home ESSID again, through the other BSSID -> (1, 0, 0).
  associate(rows, 1, 2, {home_b, home_b}, 40);
  test::set_rows(ds, rows);

  const HpoBreakdown h = hpo_breakdown(query::InMemorySource(ds), cls);
  const std::map<std::array<int, 3>, double> want{{{1, 0, 0}, 0.5},
                                                  {{1, 1, 0}, 0.25}};
  EXPECT_EQ(h.share, want);
  EXPECT_DOUBLE_EQ(h.four_plus, 0.25);
}

TEST(ApsPerDay, CountsDistinctBssidsPerDay) {
  Dataset ds = empty_dataset(1, 3);
  const ApId a = add_ap(ds, "aterm-AB12-g");
  const ApId b = add_ap(ds, "aterm-AB12-g");
  const ApId c = add_ap(ds, "0000docomo");
  std::vector<test::Row> rows;
  associate(rows, 0, 0, {a, b, a, a, b});  // 2 APs
  associate(rows, 0, 1, {c, c, c});        // 1 AP
  add_sample(rows, 0, TimeBin{2 * kBinsPerDay}, 0, 0, WifiState::Associated, kNoAp);
  test::set_rows(ds, rows);
  const auto days = user_days(ds);
  const ApsPerDay got =
      aps_per_day(query::InMemorySource(ds), days, UserClassifier(days));
  const std::array<double, 4> want{0.5, 0.5, 0, 0};
  EXPECT_EQ(got.share[0], want);
}

TEST(Hpo, KeysAreSmallCounts) {
  const auto& src = campaign_source(Year::Y2014);
  const HpoBreakdown h =
      hpo_breakdown(src, campaign_classification(Year::Y2014));
  for (const auto& [key, share] : h.share) {
    EXPECT_GE(key[0], 0);
    EXPECT_LE(key[0] + key[1] + key[2], 3);  // 4+ folded separately
    EXPECT_GT(share, 0.0);
  }
}

TEST(Durations, PaperOrderingHomeOfficePublic) {
  // Fig 13: 90th percentiles ~12h home, ~8h office, ~1h public.
  const auto& src = campaign_source(Year::Y2015);
  const AssociationDurations d =
      association_durations(src, campaign_classification(Year::Y2015));
  ASSERT_GT(d.home_hours.size(), 100u);
  ASSERT_GT(d.public_hours.size(), 50u);
  const double p90_home = stats::percentile(d.home_hours, 90);
  const double p90_public = stats::percentile(d.public_hours, 90);
  EXPECT_GT(p90_home, 5.0);
  EXPECT_LT(p90_home, 20.0);
  EXPECT_LT(p90_public, 3.0);
  EXPECT_GT(p90_home, p90_public);
  if (d.office_hours.size() > 20) {
    const double p90_office = stats::percentile(d.office_hours, 90);
    EXPECT_LT(p90_office, p90_home);
    EXPECT_GT(p90_office, p90_public);
  }
}

TEST(Durations, AllPositiveAndBoundedByCampaign) {
  const Dataset& ds = campaign(Year::Y2013);
  const auto& src = campaign_source(Year::Y2013);
  const AssociationDurations d =
      association_durations(src, campaign_classification(Year::Y2013));
  const double max_hours = ds.num_days() * 24.0;
  for (const auto* v : {&d.home_hours, &d.public_hours, &d.office_hours}) {
    for (double h : *v) {
      ASSERT_GT(h, 0.0);
      ASSERT_LE(h, max_hours);
    }
  }
}

TEST(Durations, StableAcrossYears) {
  // §3.4.2: duration distributions do not change across the years.
  const auto p90 = [](Year y) {
    const auto& src = campaign_source(y);
    const AssociationDurations d =
        association_durations(src, campaign_classification(y));
    return stats::percentile(d.home_hours, 90);
  };
  EXPECT_NEAR(p90(Year::Y2013), p90(Year::Y2015), 4.0);
}

TEST(BandFractions, PublicLeadsAndGrows) {
  // Fig 14: public 5 GHz share grows to >50% by 2015 while home/office
  // stay under 20%.
  const BandFractions f13 = band_fractions(campaign_source(Year::Y2013),
                                          campaign_classification(Year::Y2013));
  const BandFractions f15 = band_fractions(campaign_source(Year::Y2015),
                                          campaign_classification(Year::Y2015));
  EXPECT_GT(f15.publik, 0.45);
  EXPECT_GT(f15.publik, f13.publik);
  EXPECT_LT(f15.home, 0.25);
  EXPECT_LT(f13.home, 0.15);
  EXPECT_GT(f15.publik, f15.home);
}

TEST(BandFractions, Bounded) {
  for (Year y : kAllYears) {
    const BandFractions f =
        band_fractions(campaign_source(y), campaign_classification(y));
    for (double v : {f.home, f.office, f.publik}) {
      EXPECT_GE(v, 0.0);
      EXPECT_LE(v, 1.0);
    }
  }
}

}  // namespace
}  // namespace tokyonet::analysis
