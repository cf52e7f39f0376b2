#include "app/catalog.h"

#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "stats/philox.h"

namespace tokyonet::app {
namespace {

/// mix() appending to `out`.
std::uint64_t mix_into(const AppMixer& mixer, Context context,
                       double demand_mb, stats::PhiloxRng& rng,
                       std::vector<AppTraffic>& out) {
  std::array<AppTraffic, AppMixer::kMaxRecords> records;
  AppTraffic* end = records.data();
  const std::uint64_t tx = mixer.mix(context, demand_mb, rng, end);
  out.insert(out.end(), records.data(), end);
  return tx;
}

TEST(Catalog, TxRatiosShapedPerCategory) {
  // Online storage sync is upload-heavy (Table 7's productivity rows);
  // video is download-dominated.
  EXPECT_GT(category_tx_ratio(AppCategory::Productivity), 1.0);
  EXPECT_LT(category_tx_ratio(AppCategory::Video), 0.1);
  EXPECT_LT(category_tx_ratio(AppCategory::Download), 0.05);
  EXPECT_GT(category_tx_ratio(AppCategory::Communication),
            category_tx_ratio(AppCategory::Browser));
}

class MixerConservation
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(MixerConservation, RxConservedAcrossCategories) {
  const auto [year, ctx] = GetParam();
  const AppMixer mixer(static_cast<Year>(year));
  stats::PhiloxRng rng(31, 0, 0);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<AppTraffic> out;
    const double demand_mb = rng.lognormal(1.0, 1.0);
    const std::uint64_t tx =
        mix_into(mixer, static_cast<Context>(ctx), demand_mb, rng, out);
    ASSERT_GE(out.size(), 1u);
    ASSERT_LE(out.size(), 3u);
    std::uint64_t rx_sum = 0, tx_sum = 0;
    for (const AppTraffic& at : out) {
      rx_sum += at.rx_bytes;
      tx_sum += at.tx_bytes;
    }
    // Sum of category RX equals the requested demand (within rounding).
    EXPECT_NEAR(static_cast<double>(rx_sum), demand_mb * 1e6, 3.0);
    EXPECT_EQ(tx_sum, tx);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllYearsAndContexts, MixerConservation,
    ::testing::Combine(::testing::Values(0, 1, 2),
                       ::testing::Values(0, 1, 2, 3, 4)));

TEST(Mixer, ZeroDemandProducesNothing) {
  const AppMixer mixer(Year::Y2015);
  stats::PhiloxRng rng(1, 0, 0);
  std::vector<AppTraffic> out;
  EXPECT_EQ(mix_into(mixer, Context::WifiHome, 0.0, rng, out), 0u);
  EXPECT_TRUE(out.empty());
}

TEST(Mixer, ExpectedSharesReflectPaperTrends) {
  // Browser dominates cellular in every year (Table 6).
  for (Year y : kAllYears) {
    const AppMixer m(y);
    EXPECT_GT(m.expected_share(Context::CellOther, AppCategory::Browser),
              m.expected_share(Context::CellOther, AppCategory::Video));
  }
  // Video explodes on home WiFi from 2014 (Table 6: 4.0% -> 30.4%).
  const AppMixer m13(Year::Y2013);
  const AppMixer m14(Year::Y2014);
  EXPECT_LT(m13.expected_share(Context::WifiHome, AppCategory::Video), 0.08);
  EXPECT_GT(m14.expected_share(Context::WifiHome, AppCategory::Video), 0.25);
  // Public WiFi 2013 was browsing-led (44.1%).
  EXPECT_GT(m13.expected_share(Context::WifiPublic, AppCategory::Browser),
            0.40);
  // Download surges on public WiFi in 2014 (22.5%).
  EXPECT_GT(m14.expected_share(Context::WifiPublic, AppCategory::Download),
            0.20);
}

TEST(Mixer, MinorCategoriesGetResidualShare) {
  const AppMixer m(Year::Y2015);
  const double travel = m.expected_share(Context::CellOther, AppCategory::Travel);
  EXPECT_GT(travel, 0.0);
  EXPECT_LT(travel, 0.05);
}

TEST(Mixer, EmpiricalSharesTrackExpected) {
  // Long-run realized volume shares should approximate the share table.
  const AppMixer m(Year::Y2014);
  stats::PhiloxRng rng(77, 0, 0);
  std::vector<AppTraffic> out;
  for (int i = 0; i < 30000; ++i) mix_into(m, Context::WifiHome, 1.0, rng, out);
  double video = 0, total = 0;
  for (const AppTraffic& at : out) {
    total += at.rx_bytes;
    if (at.category == AppCategory::Video) video += at.rx_bytes;
  }
  EXPECT_NEAR(video / total,
              m.expected_share(Context::WifiHome, AppCategory::Video), 0.05);
}

TEST(Mixer, DeterministicGivenRngState) {
  const AppMixer m(Year::Y2015);
  stats::PhiloxRng a(5, 9, 4), b(5, 9, 4);
  std::vector<AppTraffic> oa, ob;
  const auto ta = mix_into(m, Context::CellHome, 3.0, a, oa);
  const auto tb = mix_into(m, Context::CellHome, 3.0, b, ob);
  EXPECT_EQ(ta, tb);
  ASSERT_EQ(oa.size(), ob.size());
  for (std::size_t i = 0; i < oa.size(); ++i) {
    EXPECT_EQ(oa[i].category, ob[i].category);
    EXPECT_EQ(oa[i].rx_bytes, ob[i].rx_bytes);
  }
}

}  // namespace
}  // namespace tokyonet::app
