#include <gtest/gtest.h>

#include "geo/region.h"
#include "stats/philox.h"

namespace tokyonet::geo {
namespace {

TEST(Grid, CellRoundTrip) {
  const Grid g(36, 30);
  EXPECT_EQ(g.num_cells(), 1080);
  const Point p{12.0, 33.0};
  const GeoCell c = g.cell_at(p);
  EXPECT_EQ(g.cell_x(c), 2);
  EXPECT_EQ(g.cell_y(c), 6);
  const Point center = g.center_of(c);
  EXPECT_DOUBLE_EQ(center.x_km, 12.5);
  EXPECT_DOUBLE_EQ(center.y_km, 32.5);
}

TEST(Grid, ClampsOutOfBounds) {
  const Grid g(36, 30);
  EXPECT_EQ(g.cell_at({-5, -5}), g.cell_at({0, 0}));
  EXPECT_EQ(g.cell_at({1e6, 1e6}), g.cell_at({179.9, 149.9}));
}

TEST(Grid, CellDistance) {
  const Grid g(36, 30);
  const GeoCell a = g.cell_at({2.5, 2.5});
  const GeoCell b = g.cell_at({7.5, 2.5});
  EXPECT_DOUBLE_EQ(g.cell_distance_km(a, b), 5.0);
  EXPECT_DOUBLE_EQ(g.cell_distance_km(a, a), 0.0);
}

TEST(Region, CitiesPresent) {
  const TokyoRegion region;
  const auto cities = region.cities();
  ASSERT_EQ(cities.size(), 10u);  // the ten Fig 10 anchors
  bool has_tokyo = false, has_yokohama = false;
  double home_weight_sum = 0;
  for (const City& c : cities) {
    has_tokyo |= c.name == "Tokyo";
    has_yokohama |= c.name == "Yokohama";
    home_weight_sum += c.home_weight;
    EXPECT_GT(c.sigma_km, 0);
  }
  EXPECT_TRUE(has_tokyo);
  EXPECT_TRUE(has_yokohama);
  EXPECT_NEAR(home_weight_sum, 1.0, 0.01);
}

class RegionSampling : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RegionSampling, SamplesStayInBounds) {
  const TokyoRegion region;
  stats::PhiloxRng rng(GetParam(), 0, 0);
  for (int i = 0; i < 500; ++i) {
    for (const Point p : {region.sample_home(rng), region.sample_office(rng),
                          region.sample_public_spot(rng)}) {
      EXPECT_GE(p.x_km, 0);
      EXPECT_LT(p.x_km, region.grid().width_km());
      EXPECT_GE(p.y_km, 0);
      EXPECT_LT(p.y_km, region.grid().height_km());
    }
  }
}

TEST_P(RegionSampling, OfficesMoreConcentratedThanHomes) {
  const TokyoRegion region;
  stats::PhiloxRng rng(GetParam(), 0, 0);
  const Point tokyo{90, 75};
  double home_dist = 0, office_dist = 0;
  const int n = 2000;
  for (int i = 0; i < n; ++i) {
    home_dist += distance_km(region.sample_home(rng), tokyo);
    office_dist += distance_km(region.sample_office(rng), tokyo);
  }
  EXPECT_LT(office_dist / n, home_dist / n);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RegionSampling, ::testing::Values(1ull, 2ull, 77ull));

TEST(Region, DowntownFactorBoundsAndPeak) {
  const TokyoRegion region;
  const Grid& g = region.grid();
  double max_factor = 0;
  GeoCell peak_cell = 0;
  for (int c = 0; c < g.num_cells(); ++c) {
    const double f = region.downtown_factor(static_cast<GeoCell>(c));
    EXPECT_GE(f, 0.0);
    EXPECT_LE(f, 1.0);
    if (f > max_factor) {
      max_factor = f;
      peak_cell = static_cast<GeoCell>(c);
    }
  }
  EXPECT_GT(max_factor, 0.90);
  // Peak should be at the Tokyo anchor.
  EXPECT_LT(distance_km(g.center_of(peak_cell), {90, 75}), 10.0);
}

TEST(Region, DowntownFactorFallsWithDistance) {
  const TokyoRegion region;
  const Grid& g = region.grid();
  const double center = region.downtown_factor(g.cell_at({90, 75}));
  const double edge = region.downtown_factor(g.cell_at({2, 2}));
  EXPECT_GT(center, 10 * edge);
}

TEST(Region, AlongPathInterpolates) {
  const Point a{0, 0}, b{10, 20};
  const Point mid = TokyoRegion::along_path(a, b, 0.5);
  EXPECT_DOUBLE_EQ(mid.x_km, 5);
  EXPECT_DOUBLE_EQ(mid.y_km, 10);
  const Point start = TokyoRegion::along_path(a, b, 0.0);
  EXPECT_DOUBLE_EQ(start.x_km, 0);
}

}  // namespace
}  // namespace tokyonet::geo
