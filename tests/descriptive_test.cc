#include "stats/descriptive.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "stats/philox.h"

namespace tokyonet::stats {
namespace {

TEST(Descriptive, MeanAndVariance) {
  const std::vector<double> xs{1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(mean(xs), 3.0);
  EXPECT_DOUBLE_EQ(variance(xs), 2.5);
  EXPECT_NEAR(stddev(xs), 1.5811, 1e-3);
}

TEST(Descriptive, EmptyAndSingleton) {
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
  EXPECT_DOUBLE_EQ(variance({}), 0.0);
  EXPECT_DOUBLE_EQ(median({}), 0.0);
  const std::vector<double> one{7.0};
  EXPECT_DOUBLE_EQ(mean(one), 7.0);
  EXPECT_DOUBLE_EQ(median(one), 7.0);
  EXPECT_DOUBLE_EQ(variance(one), 0.0);
}

TEST(Descriptive, MedianEvenOdd) {
  EXPECT_DOUBLE_EQ(median(std::vector<double>{3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(median(std::vector<double>{4, 1, 3, 2}), 2.5);
}

TEST(Descriptive, PercentileEndpoints) {
  const std::vector<double> xs{10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(percentile(xs, 0), 10);
  EXPECT_DOUBLE_EQ(percentile(xs, 100), 40);
  EXPECT_DOUBLE_EQ(percentile(xs, 50), 25);
}

class PercentileOracle : public ::testing::TestWithParam<double> {};

TEST_P(PercentileOracle, MatchesNearestRankWithinOneGap) {
  // Property: the interpolated percentile lies between the two nearest
  // order statistics.
  PhiloxRng rng(99, 0, 0);
  std::vector<double> xs;
  for (int i = 0; i < 501; ++i) xs.push_back(rng.uniform(0, 100));
  const double p = GetParam();
  const double v = percentile(xs, p);
  std::sort(xs.begin(), xs.end());
  const double rank = p / 100.0 * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  EXPECT_GE(v, xs[lo] - 1e-12);
  EXPECT_LE(v, xs[hi] + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Sweep, PercentileOracle,
                         ::testing::Values(0.0, 5.0, 40.0, 50.0, 60.0, 95.0,
                                           99.9, 100.0));

TEST(Descriptive, SummaryOrdering) {
  PhiloxRng rng(5, 0, 0);
  std::vector<double> xs;
  for (int i = 0; i < 1000; ++i) xs.push_back(rng.lognormal(1, 1));
  const Summary s = summarize(xs);
  EXPECT_EQ(s.n, 1000u);
  EXPECT_LE(s.min, s.p05);
  EXPECT_LE(s.p05, s.median);
  EXPECT_LE(s.median, s.p95);
  EXPECT_LE(s.p95, s.max);
  EXPECT_GT(s.mean, s.median);  // lognormal skew
}

TEST(Descriptive, AnnualGrowthRateReproducesTable3) {
  // Paper Table 3: median All 57.9 -> 90.3 -> 126.5 has AGR 48%.
  const std::vector<double> all{57.9, 90.3, 126.5};
  EXPECT_NEAR(annual_growth_rate(all), 0.48, 0.005);
  // Median WiFi 9.2 -> 24.3 -> 50.7: AGR 134%.
  const std::vector<double> wifi{9.2, 24.3, 50.7};
  EXPECT_NEAR(annual_growth_rate(wifi), 1.34, 0.02);
  // Median cellular 19.5 -> 27.6 -> 35.6: AGR 35%.
  const std::vector<double> cell{19.5, 27.6, 35.6};
  EXPECT_NEAR(annual_growth_rate(cell), 0.35, 0.01);
  // Mean All 102.9 -> 179.9 -> 239.5: AGR 53%.
  const std::vector<double> mean_all{102.9, 179.9, 239.5};
  EXPECT_NEAR(annual_growth_rate(mean_all), 0.53, 0.01);
}

TEST(Descriptive, AnnualGrowthRateEdgeCases) {
  EXPECT_DOUBLE_EQ(annual_growth_rate(std::vector<double>{5.0}), 0.0);
  EXPECT_DOUBLE_EQ(annual_growth_rate(std::vector<double>{0.0, 5.0}), 0.0);
  EXPECT_DOUBLE_EQ(annual_growth_rate(std::vector<double>{5.0, 5.0}), 0.0);
}

TEST(Descriptive, LinearFitExact) {
  const std::vector<double> xs{0, 1, 2, 3};
  const std::vector<double> ys{1, 3, 5, 7};
  const LinearFit f = linear_fit(xs, ys);
  EXPECT_NEAR(f.slope, 2.0, 1e-12);
  EXPECT_NEAR(f.intercept, 1.0, 1e-12);
  EXPECT_NEAR(f.r2, 1.0, 1e-12);
}

TEST(Descriptive, LinearFitNoisy) {
  PhiloxRng rng(3, 0, 0);
  std::vector<double> xs, ys;
  for (int i = 0; i < 200; ++i) {
    xs.push_back(i);
    ys.push_back(0.5 * i + 10 + rng.normal(0, 1));
  }
  const LinearFit f = linear_fit(xs, ys);
  EXPECT_NEAR(f.slope, 0.5, 0.01);
  EXPECT_NEAR(f.intercept, 10, 1.0);
  EXPECT_GT(f.r2, 0.95);
}

TEST(Descriptive, LinearFitDegenerate) {
  const std::vector<double> x1{1};
  const std::vector<double> y1{2};
  EXPECT_DOUBLE_EQ(linear_fit(x1, y1).slope, 0.0);
  const std::vector<double> same_x{2, 2, 2};
  const std::vector<double> ys{1, 2, 3};
  EXPECT_DOUBLE_EQ(linear_fit(same_x, ys).slope, 0.0);
}

}  // namespace
}  // namespace tokyonet::stats
