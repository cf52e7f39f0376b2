#include "stats/distribution.h"

#include <gtest/gtest.h>

#include "stats/philox.h"

namespace tokyonet::stats {
namespace {

TEST(Ecdf, BasicValues) {
  const std::vector<double> xs{1, 2, 3, 4};
  const Ecdf e(xs);
  EXPECT_DOUBLE_EQ(e.at(0.5), 0.0);
  EXPECT_DOUBLE_EQ(e.at(1.0), 0.25);
  EXPECT_DOUBLE_EQ(e.at(2.5), 0.5);
  EXPECT_DOUBLE_EQ(e.at(4.0), 1.0);
  EXPECT_DOUBLE_EQ(e.at(100), 1.0);
  EXPECT_DOUBLE_EQ(e.ccdf(2.5), 0.5);
}

TEST(Ecdf, EmptyIsZero) {
  const Ecdf e;
  EXPECT_TRUE(e.empty());
  EXPECT_DOUBLE_EQ(e.at(1.0), 0.0);
  EXPECT_DOUBLE_EQ(e.quantile(0.5), 0.0);
}

TEST(Ecdf, QuantileInvertsCdf) {
  PhiloxRng rng(1, 0, 0);
  std::vector<double> xs;
  for (int i = 0; i < 2000; ++i) xs.push_back(rng.lognormal(0, 1));
  const Ecdf e(xs);
  for (double q : {0.1, 0.25, 0.5, 0.75, 0.9}) {
    const double x = e.quantile(q);
    EXPECT_NEAR(e.at(x), q, 0.01);
  }
}

class EcdfMonotone : public ::testing::TestWithParam<bool> {};

TEST_P(EcdfMonotone, SeriesMonotoneAndBounded) {
  const bool log_spaced = GetParam();
  PhiloxRng rng(2, 0, 0);
  std::vector<double> xs;
  for (int i = 0; i < 500; ++i) xs.push_back(rng.lognormal(2, 1));
  const Ecdf e(xs);
  const auto s = e.series(64, log_spaced);
  ASSERT_EQ(s.x.size(), s.y.size());
  for (std::size_t i = 0; i < s.y.size(); ++i) {
    EXPECT_GE(s.y[i], 0.0);
    EXPECT_LE(s.y[i], 1.0);
    if (i > 0) {
      EXPECT_GE(s.y[i], s.y[i - 1]);
      EXPECT_GT(s.x[i], s.x[i - 1]);
    }
  }
  EXPECT_DOUBLE_EQ(s.y.back(), 1.0);
}

INSTANTIATE_TEST_SUITE_P(Spacing, EcdfMonotone, ::testing::Bool());

TEST(Ecdf, CcdfSeriesComplement) {
  const std::vector<double> xs{1, 2, 3, 4, 5};
  const Ecdf e(xs);
  const auto c = e.ccdf_series(16, false);
  const auto s = e.series(16, false);
  for (std::size_t i = 0; i < c.y.size(); ++i) {
    EXPECT_DOUBLE_EQ(c.y[i], 1.0 - s.y[i]);
  }
}

TEST(Histogram, CountsAndClamping) {
  Histogram h(0, 10, 10);
  h.add(0.5);
  h.add(5.5);
  h.add(5.6);
  h.add(-3);   // clamps to first bin
  h.add(100);  // clamps to last bin
  EXPECT_DOUBLE_EQ(h.count(0), 2);
  EXPECT_DOUBLE_EQ(h.count(5), 2);
  EXPECT_DOUBLE_EQ(h.count(9), 1);
  EXPECT_DOUBLE_EQ(h.total(), 5);
}

TEST(Histogram, PmfSumsToOne) {
  PhiloxRng rng(3, 0, 0);
  Histogram h(-90, -20, 25);
  for (int i = 0; i < 1000; ++i) h.add(rng.normal(-55, 8));
  double sum = 0;
  for (int i = 0; i < h.bins(); ++i) sum += h.pmf(i);
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(Histogram, PdfIntegratesToOne) {
  PhiloxRng rng(4, 0, 0);
  Histogram h(-95, -20, 30);
  for (int i = 0; i < 1000; ++i) h.add(rng.normal(-55, 8));
  double integral = 0;
  for (int i = 0; i < h.bins(); ++i) integral += h.pdf(i) * h.bin_width();
  EXPECT_NEAR(integral, 1.0, 1e-9);
}

TEST(Histogram, WeightedAdds) {
  Histogram h(0, 1, 2);
  h.add(0.25, 3.0);
  h.add(0.75, 1.0);
  EXPECT_DOUBLE_EQ(h.pmf(0), 0.75);
  EXPECT_DOUBLE_EQ(h.pmf(1), 0.25);
}

TEST(LogHist2d, TotalsAndPlacement) {
  LogHist2d h(-2, 3, 10);  // the Fig 5 axes
  EXPECT_EQ(h.bins(), 50);
  h.add(1.0, 1.0);      // 10^0 on both axes
  h.add(100.0, 0.01);   // extreme corners
  h.add(1e-9, 1e9);     // clamps into edge bins
  EXPECT_DOUBLE_EQ(h.total(), 3);
  double sum = 0;
  for (int x = 0; x < h.bins(); ++x) {
    for (int y = 0; y < h.bins(); ++y) sum += h.count(x, y);
  }
  EXPECT_DOUBLE_EQ(sum, 3);
}

TEST(LogHist2d, BinCentersGeometric) {
  LogHist2d h(-2, 3, 10);
  EXPECT_GT(h.bin_center(1), h.bin_center(0));
  const double ratio1 = h.bin_center(1) / h.bin_center(0);
  const double ratio2 = h.bin_center(2) / h.bin_center(1);
  EXPECT_NEAR(ratio1, ratio2, 1e-9);
}

}  // namespace
}  // namespace tokyonet::stats
