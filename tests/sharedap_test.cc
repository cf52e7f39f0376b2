#include "analysis/sharedap.h"

#include <gtest/gtest.h>

#include "core/scenario.h"
#include "testutil.h"

namespace tokyonet::analysis {
namespace {

using test::add_ap;
using test::add_sample;
using test::campaign;
using test::campaign_source;
using test::campaign_classification;
using test::empty_dataset;

Dataset dataset_with_pair(std::uint64_t b1, std::uint64_t b2,
                          std::string e1, std::string e2) {
  Dataset ds = empty_dataset(1, 2);
  std::vector<Sample> rows;
  const ApId a = add_ap(ds, std::move(e1));
  const ApId b = add_ap(ds, std::move(e2));
  ds.aps.mut()[value(a)].bssid = b1;
  ds.aps.mut()[value(b)].bssid = b2;
  add_sample(rows, 0, 60, 0, 100, WifiState::Associated, a);
  add_sample(rows, 0, 61, 0, 100, WifiState::Associated, b);
  test::set_rows(ds, rows);
  return ds;
}

TEST(SharedAp, DetectsAdjacentBssidsAcrossProviders) {
  const Dataset ds = dataset_with_pair(0x00254B000010, 0x00254B000011,
                                       "0000docomo", "0001softbank");
  const query::InMemorySource src(ds);
  const auto cls = classify_aps(src);
  const SharedApAnalysis s = detect_shared_aps(src, cls);
  ASSERT_EQ(s.groups.size(), 1u);
  EXPECT_EQ(s.groups[0].size(), 2u);
  EXPECT_DOUBLE_EQ(s.shared_share, 1.0);
}

TEST(SharedAp, SameProviderNotGrouped) {
  // Two radios of one provider are ordinary infrastructure, not a §4.3
  // multi-provider box.
  const Dataset ds = dataset_with_pair(0x00254B000010, 0x00254B000011,
                                       "0000docomo", "0000docomo");
  const query::InMemorySource src(ds);
  const auto cls = classify_aps(src);
  EXPECT_TRUE(detect_shared_aps(src, cls).groups.empty());
}

TEST(SharedAp, DistantBssidsNotGrouped) {
  const Dataset ds = dataset_with_pair(0x00254B000010, 0x00254B000019,
                                       "0000docomo", "0001softbank");
  const query::InMemorySource src(ds);
  const auto cls = classify_aps(src);
  EXPECT_TRUE(detect_shared_aps(src, cls).groups.empty());
}

TEST(SharedAp, DifferentOuiNotGrouped) {
  const Dataset ds = dataset_with_pair(0x00254B000010, 0x00266C000011,
                                       "0000docomo", "0001softbank");
  const query::InMemorySource src(ds);
  const auto cls = classify_aps(src);
  EXPECT_TRUE(detect_shared_aps(src, cls).groups.empty());
}

TEST(SharedAp, NonPublicIgnored) {
  Dataset ds = empty_dataset(1, 2);
  std::vector<Sample> rows;
  const ApId a = add_ap(ds, "corp-ap-01");
  const ApId b = add_ap(ds, "corp-ap-02");
  ds.aps.mut()[value(a)].bssid = 0x0017DF000010;
  ds.aps.mut()[value(b)].bssid = 0x0017DF000011;
  add_sample(rows, 0, 60, 0, 100, WifiState::Associated, a);
  add_sample(rows, 0, 61, 0, 100, WifiState::Associated, b);
  test::set_rows(ds, rows);
  const query::InMemorySource src(ds);
  const auto cls = classify_aps(src);
  const SharedApAnalysis s = detect_shared_aps(src, cls);
  EXPECT_EQ(s.public_aps, 0);
  EXPECT_TRUE(s.groups.empty());
}

TEST(SharedAp, CampaignShareTracksDeploymentAndGrows) {
  // The deployment plants multi-provider boxes at a per-year rate
  // (scenario_config); detection over associated publics should land in
  // the same band and grow 2013 -> 2015 (§4.3).
  const SharedApAnalysis s13 = detect_shared_aps(
      campaign_source(Year::Y2013), campaign_classification(Year::Y2013));
  const SharedApAnalysis s15 = detect_shared_aps(
      campaign_source(Year::Y2015), campaign_classification(Year::Y2015));
  ASSERT_GT(s15.public_aps, 100);
  EXPECT_GT(s15.shared_share, s13.shared_share);
  // Both ESSIDs of a box must be *associated* to be detectable, so the
  // observed share undershoots the deployed fraction.
  const double deployed15 =
      scenario_config(Year::Y2015).deployment.multi_provider_frac;
  EXPECT_LT(s15.shared_share, 2 * deployed15);
  EXPECT_GT(s15.shared_share, 0.005);
}

TEST(SharedAp, GroupsContainDistinctProviders) {
  const Dataset& ds = campaign(Year::Y2015);
  const auto& src = campaign_source(Year::Y2015);
  const SharedApAnalysis s =
      detect_shared_aps(src, campaign_classification(Year::Y2015));
  for (const auto& group : s.groups) {
    ASSERT_GE(group.size(), 2u);
    for (std::size_t i = 1; i < group.size(); ++i) {
      EXPECT_NE(ds.aps[value(group[i - 1])].essid,
                ds.aps[value(group[i])].essid);
    }
  }
}

}  // namespace
}  // namespace tokyonet::analysis
