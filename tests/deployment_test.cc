#include "net/deployment.h"

#include <gtest/gtest.h>

#include <set>

#include "net/essid.h"

namespace tokyonet::net {
namespace {

class DeploymentTest : public ::testing::Test {
 protected:
  DeploymentTest()
      : config_(scenario_config(Year::Y2015, 0.1)),
        rng_(123, 0, 0),
        deployment_(config_, region_, rng_) {}

  ScenarioConfig config_;
  geo::TokyoRegion region_;
  stats::PhiloxRng rng_;
  Deployment deployment_;
};

TEST_F(DeploymentTest, UniverseSizesScale) {
  std::size_t pub = 0, venue = 0, mobile = 0;
  for (const AccessPoint& ap : deployment_.aps()) {
    pub += ap.placement == ApPlacement::Public;
    venue += ap.placement == ApPlacement::OtherVenue;
    mobile += ap.placement == ApPlacement::MobileHotspot;
  }
  // Multi-provider siblings (§4.3) add up to multi_provider_frac extra
  // public networks on top of the configured base.
  const auto base = static_cast<std::size_t>(
      config_.scaled(config_.deployment.n_public_aps));
  EXPECT_GE(pub, base);
  EXPECT_LE(pub, base + static_cast<std::size_t>(
                            base * config_.deployment.multi_provider_frac *
                            1.2) + 2);
  EXPECT_EQ(venue, static_cast<std::size_t>(
                       config_.scaled(config_.deployment.n_venue_aps)));
  EXPECT_EQ(mobile, static_cast<std::size_t>(
                        config_.scaled(config_.deployment.n_mobile_aps)));
}

TEST_F(DeploymentTest, BssidsUnique) {
  std::set<std::uint64_t> seen;
  for (const AccessPoint& ap : deployment_.aps()) {
    EXPECT_TRUE(seen.insert(ap.info.bssid).second);
  }
}

TEST_F(DeploymentTest, PublicApsHaveProviderEssids) {
  for (const AccessPoint& ap : deployment_.aps()) {
    if (ap.placement == ApPlacement::Public) {
      EXPECT_TRUE(is_public_essid(ap.info.essid)) << ap.info.essid;
    }
  }
}

TEST_F(DeploymentTest, HomeApCreatedAtRequestedCell) {
  const geo::Point where{90, 75};
  const ApId id = deployment_.create_home_ap(where, rng_);
  const AccessPoint& ap = deployment_.ap(id);
  EXPECT_EQ(ap.placement, ApPlacement::Home);
  EXPECT_EQ(ap.cell, region_.grid().cell_at(where));
}

TEST_F(DeploymentTest, SomeHomeApsAreFon) {
  int fon = 0;
  const int n = 2000;
  for (int i = 0; i < n; ++i) {
    const ApId id = deployment_.create_home_ap({50, 50}, rng_);
    fon += is_fon_essid(deployment_.ap(id).info.essid);
  }
  // home_fon_frac = 2%.
  EXPECT_GT(fon, 10);
  EXPECT_LT(fon, 90);
}

TEST_F(DeploymentTest, OfficeApBand) {
  int five = 0;
  const int n = 1000;
  for (int i = 0; i < n; ++i) {
    const ApId id = deployment_.create_office_ap({90, 75}, rng_);
    five += deployment_.ap(id).info.band == Band::B5GHz;
  }
  EXPECT_NEAR(static_cast<double>(five) / n,
              config_.deployment.office_5ghz_frac, 0.05);
}

TEST_F(DeploymentTest, PickPublicApReturnsLocalAp) {
  // Downtown Tokyo must have public APs.
  const geo::Point tokyo{90, 75};
  const auto id = deployment_.pick_public_ap(tokyo, rng_);
  ASSERT_TRUE(id.has_value());
  const AccessPoint& ap = deployment_.ap(*id);
  EXPECT_EQ(ap.placement, ApPlacement::Public);
  EXPECT_EQ(ap.cell, region_.grid().cell_at(tokyo));
}

TEST_F(DeploymentTest, PickPublicApEmptyCell) {
  // The far corner of the region should have no hotspots at small scale.
  EXPECT_FALSE(deployment_.pick_public_ap({1, 149}, rng_).has_value());
}

TEST_F(DeploymentTest, AssociationDistancesOrdered) {
  double home = 0, pub = 0;
  for (int i = 0; i < 2000; ++i) {
    home += deployment_.draw_association_distance_m(ApPlacement::Home, rng_);
    pub += deployment_.draw_association_distance_m(ApPlacement::Public, rng_);
    EXPECT_GT(deployment_.draw_association_distance_m(ApPlacement::Home, rng_),
              0);
  }
  // Public cells are larger (Fig 15's weaker public RSSI).
  EXPECT_GT(pub, home);
}

TEST_F(DeploymentTest, ScanFieldPeaksDowntown) {
  const GeoCell downtown = region_.grid().cell_at({90, 75});
  const GeoCell rural = region_.grid().cell_at({2, 2});
  EXPECT_GT(deployment_.expected_scan_count(downtown),
            10 * deployment_.expected_scan_count(rural));
  EXPECT_GT(deployment_.expected_scan_count(rural), 0);
}

TEST_F(DeploymentTest, ExportParallelArrays) {
  Dataset ds;
  deployment_.export_to(ds);
  ASSERT_EQ(ds.aps.size(), deployment_.aps().size());
  ASSERT_EQ(ds.truth.aps.size(), deployment_.aps().size());
  for (std::size_t i = 0; i < ds.aps.size(); ++i) {
    EXPECT_EQ(ds.aps[i].bssid, deployment_.aps()[i].info.bssid);
    EXPECT_EQ(ds.truth.aps[i].placement, deployment_.aps()[i].placement);
  }
}

}  // namespace
}  // namespace tokyonet::net
