// Tests for WiFi quality analyses: RSSI (Fig 15), channels (Fig 16),
// AP density maps (Fig 10), scan availability (Fig 17) and the §3.5
// offload-opportunity estimate.
#include <gtest/gtest.h>

#include "analysis/availability.h"
#include "analysis/quality.h"
#include "geo/region.h"
#include "testutil.h"

namespace tokyonet::analysis {
namespace {

using test::campaign_source;
using test::campaign_classification;

TEST(Rssi, HomeStrongerThanPublic) {
  // Fig 15: home networks center near -54 dBm, public near -60 dBm.
  const RssiAnalysis r = rssi_analysis(campaign_source(Year::Y2015),
                                       campaign_classification(Year::Y2015));
  ASSERT_GT(r.home_max_rssi.size(), 50u);
  ASSERT_GT(r.public_max_rssi.size(), 50u);
  EXPECT_NEAR(r.home_mean, -54, 6);
  EXPECT_NEAR(r.public_mean, -60, 6);
  EXPECT_GT(r.home_mean, r.public_mean);
}

TEST(Rssi, SubparShareMatchesPaper) {
  // Fig 15 / §3.4.4: ~3% of home and ~12% of public networks < -70 dBm.
  const RssiAnalysis r = rssi_analysis(campaign_source(Year::Y2015),
                                       campaign_classification(Year::Y2015));
  EXPECT_LT(r.home_below_70_share, 0.10);
  EXPECT_NEAR(r.public_below_70_share, 0.12, 0.09);
  EXPECT_GT(r.public_below_70_share, r.home_below_70_share);
}

TEST(Rssi, ValuesWithinRadioRange) {
  const RssiAnalysis r = rssi_analysis(campaign_source(Year::Y2014),
                                       campaign_classification(Year::Y2014));
  for (const auto* v : {&r.home_max_rssi, &r.public_max_rssi}) {
    for (double rssi : *v) {
      ASSERT_GE(rssi, -95);
      ASSERT_LE(rssi, -25);
    }
  }
}

TEST(Rssi, PdfHistogramsNormalized) {
  const RssiAnalysis r = rssi_analysis(campaign_source(Year::Y2015),
                                       campaign_classification(Year::Y2015));
  const auto h = r.home_pdf();
  double integral = 0;
  for (int i = 0; i < h.bins(); ++i) integral += h.pdf(i) * h.bin_width();
  EXPECT_NEAR(integral, 1.0, 1e-9);
}

TEST(Channels, PmfsNormalized) {
  const ChannelAnalysis c = channel_analysis(
      campaign_source(Year::Y2015), campaign_classification(Year::Y2015));
  double home = 0, pub = 0;
  for (int ch = 0; ch < 14; ++ch) {
    home += c.home_pmf[static_cast<std::size_t>(ch)];
    pub += c.public_pmf[static_cast<std::size_t>(ch)];
  }
  EXPECT_NEAR(home, 1.0, 1e-9);
  EXPECT_NEAR(pub, 1.0, 1e-9);
  EXPECT_DOUBLE_EQ(c.home_pmf[0], 0.0);  // channel numbering starts at 1
}

TEST(Channels, PublicConcentratedOnNonOverlapping) {
  // Fig 16: public deployments use 1/6/11.
  const ChannelAnalysis c = channel_analysis(
      campaign_source(Year::Y2015), campaign_classification(Year::Y2015));
  const double non_overlap =
      c.public_pmf[1] + c.public_pmf[6] + c.public_pmf[11];
  EXPECT_GT(non_overlap, 0.70);
}

TEST(Channels, HomeChannelOnePileUpRelaxesOverYears) {
  // Fig 16: 2013's home Ch1 concentration disperses by 2015.
  const ChannelAnalysis c13 = channel_analysis(
      campaign_source(Year::Y2013), campaign_classification(Year::Y2013));
  const ChannelAnalysis c15 = channel_analysis(
      campaign_source(Year::Y2015), campaign_classification(Year::Y2015));
  EXPECT_GT(c13.home_pmf[1], 0.20);
  EXPECT_GT(c13.home_pmf[1], c15.home_pmf[1] - 0.01);
  // Home Ch1 exceeds planned-deployment-style spread in 2013.
  EXPECT_GT(c13.home_pmf[1], c13.home_pmf[6] + 0.08);
}

TEST(Density, CountsMatchClassifiedAps) {
  const auto& src = campaign_source(Year::Y2015);
  const ApClassification& cls = campaign_classification(Year::Y2015);
  const geo::TokyoRegion region;
  const ApDensityMap m =
      ap_density_map(src, cls, ApClass::Home, region.grid().num_cells());
  int total = 0;
  for (int n : m.count_by_cell) total += n;
  EXPECT_EQ(total, cls.counts().home);
  EXPECT_GT(m.cells_with_ap, 10);
  EXPECT_GE(m.max_count, 1);
}

TEST(Density, PublicCoverageSpreadsOverYears) {
  // Fig 10: cells with at least one public AP grow 2013 -> 2015.
  const geo::TokyoRegion region;
  const ApDensityMap m13 = ap_density_map(
      campaign_source(Year::Y2013), campaign_classification(Year::Y2013),
      ApClass::Public, region.grid().num_cells());
  const ApDensityMap m15 = ap_density_map(
      campaign_source(Year::Y2015), campaign_classification(Year::Y2015),
      ApClass::Public, region.grid().num_cells());
  EXPECT_GT(m15.cells_with_ap, m13.cells_with_ap);
  EXPECT_GE(m15.max_count, m13.max_count);
}

TEST(Scan, SeriesOnlyFromAvailableAndroids) {
  const ScanAvailability s = scan_availability(campaign_source(Year::Y2015));
  ASSERT_GT(s.all_24.size(), 1000u);
  EXPECT_EQ(s.all_24.size(), s.strong_24.size());
  EXPECT_EQ(s.all_24.size(), s.all_5.size());
}

TEST(Scan, StrongStochasticallyBelowAll) {
  const ScanAvailability s = scan_availability(campaign_source(Year::Y2015));
  double all = 0, strong = 0;
  for (std::size_t i = 0; i < s.all_24.size(); ++i) {
    all += s.all_24[i];
    strong += s.strong_24[i];
    ASSERT_LE(s.strong_24[i], s.all_24[i]);
  }
  EXPECT_LT(strong, all * 0.5);
}

TEST(Scan, MostDevicesSeeFewAps) {
  // Fig 17: 90% of WiFi-available device-bins see < 10 2.4 GHz APs.
  const ScanAvailability s = scan_availability(campaign_source(Year::Y2015));
  const auto e = s.ccdf_all_24();
  EXPECT_LT(e.ccdf(10), 0.25);
  EXPECT_GT(e.ccdf(0.5), 0.05);  // but some do see hotspots
}

TEST(Scan, FiveGhzDetectionGrowsOverYears) {
  // §3.5: 5 GHz public deployment improves markedly by 2015.
  const auto share5 = [](Year y) {
    const ScanAvailability s = scan_availability(campaign_source(y));
    double all24 = 0, all5 = 0;
    for (double v : s.all_24) all24 += v;
    for (double v : s.all_5) all5 += v;
    return all5 / (all5 + all24);
  };
  EXPECT_GT(share5(Year::Y2015), share5(Year::Y2013) + 0.1);
}

TEST(Opportunity, BandsMatchPaper) {
  // §3.5: ~60% of WiFi-available users have a stable public option and
  // 15-20% of their cellular traffic is offloadable.
  const OffloadOpportunity o =
      offload_opportunity(campaign_source(Year::Y2015));
  ASSERT_GT(o.num_wifi_available_users, 10);
  EXPECT_GT(o.users_with_stable_opportunity, 0.30);
  EXPECT_LE(o.users_with_stable_opportunity, 1.0);
  EXPECT_NEAR(o.offloadable_cell_share, 0.18, 0.12);
}

TEST(Opportunity, GrowsWithDeployment) {
  const OffloadOpportunity o13 =
      offload_opportunity(campaign_source(Year::Y2013));
  const OffloadOpportunity o15 =
      offload_opportunity(campaign_source(Year::Y2015));
  EXPECT_GT(o15.users_with_stable_opportunity,
            o13.users_with_stable_opportunity);
}

}  // namespace
}  // namespace tokyonet::analysis
