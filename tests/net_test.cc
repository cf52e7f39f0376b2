// Tests for the net substrate: ESSID vocabulary, radio propagation and
// channel-selection models.
#include <gtest/gtest.h>

#include <set>

#include "net/channel.h"
#include "net/essid.h"
#include "net/radio.h"
#include "stats/philox.h"

namespace tokyonet::net {
namespace {

TEST(Essid, PublicProvidersRecognized) {
  // The paper's §3.4.1 examples must be in the well-known list.
  EXPECT_TRUE(is_public_essid("0000docomo"));
  EXPECT_TRUE(is_public_essid("0001softbank"));
  EXPECT_TRUE(is_public_essid("eduroam"));
  EXPECT_TRUE(is_public_essid("7SPOT"));
  EXPECT_FALSE(is_public_essid("Buffalo-G-1234"));
  EXPECT_FALSE(is_public_essid(""));
  EXPECT_FALSE(is_public_essid("0000docomo2"));  // exact match only
}

TEST(Essid, FonIsSpecialCasedNotPublic) {
  EXPECT_TRUE(is_fon_essid("FON_FREE_INTERNET"));
  // FON must not be in the generic public list: the classifier handles
  // it via the overnight-camping rule instead.
  EXPECT_FALSE(is_public_essid("FON_FREE_INTERNET"));
}

class EssidFactoryYears : public ::testing::TestWithParam<int> {};

TEST_P(EssidFactoryYears, GeneratedNamesClassifyCorrectly) {
  const EssidFactory factory(GetParam());
  stats::PhiloxRng rng(42, 0, 0);
  for (int i = 0; i < 200; ++i) {
    EXPECT_TRUE(is_public_essid(factory.public_hotspot(rng)));
    EXPECT_FALSE(is_public_essid(factory.home(rng)));
    EXPECT_FALSE(is_public_essid(factory.office(rng)));
    EXPECT_FALSE(is_public_essid(factory.venue(rng)));
    EXPECT_FALSE(is_public_essid(factory.mobile_hotspot(rng)));
  }
  EXPECT_TRUE(is_fon_essid(factory.home_fon()));
}

TEST_P(EssidFactoryYears, HomeNamesDiverse) {
  const EssidFactory factory(GetParam());
  stats::PhiloxRng rng(7, 0, 0);
  std::set<std::string> names;
  for (int i = 0; i < 300; ++i) names.insert(factory.home(rng));
  EXPECT_GT(names.size(), 290u);
}

INSTANTIATE_TEST_SUITE_P(Years, EssidFactoryYears, ::testing::Values(0, 1, 2));

TEST(Radio, PathLossMonotoneInDistance) {
  const PathLossModel m;
  double prev = mean_rssi_dbm(m, 1, Band::B24GHz);
  for (double d : {2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 300.0}) {
    const double rssi = mean_rssi_dbm(m, d, Band::B24GHz);
    EXPECT_LT(rssi, prev);
    prev = rssi;
  }
}

TEST(Radio, FiveGhzWeakerThan24AtSameDistance) {
  const PathLossModel m;
  for (double d : {5.0, 15.0, 40.0}) {
    EXPECT_LT(mean_rssi_dbm(m, d, Band::B5GHz),
              mean_rssi_dbm(m, d, Band::B24GHz));
  }
}

TEST(Radio, LogDistanceSlope) {
  const PathLossModel m;
  // 10x the distance costs 10*n dB.
  const double r10 = mean_rssi_dbm(m, 10, Band::B24GHz);
  const double r100 = mean_rssi_dbm(m, 100, Band::B24GHz);
  EXPECT_NEAR(r10 - r100, 10 * m.exponent, 1e-9);
}

TEST(Radio, SubMeterClampedToReference) {
  const PathLossModel m;
  EXPECT_DOUBLE_EQ(mean_rssi_dbm(m, 0.1, Band::B24GHz),
                   mean_rssi_dbm(m, 1.0, Band::B24GHz));
}

class RadioSampling : public ::testing::TestWithParam<double> {};

TEST_P(RadioSampling, SamplesClampedAndCentered) {
  const PathLossModel m;
  stats::PhiloxRng rng(11, 0, 0);
  const double d = GetParam();
  const double expect = mean_rssi_dbm(m, d, Band::B24GHz);
  double sum = 0;
  for (int i = 0; i < 3000; ++i) {
    const double r = sample_rssi_dbm(m, d, Band::B24GHz, rng);
    ASSERT_GE(r, kMinRssiDbm);
    ASSERT_LE(r, kMaxRssiDbm);
    sum += r;
  }
  if (expect > kMinRssiDbm + 10 && expect < kMaxRssiDbm - 10) {
    EXPECT_NEAR(sum / 3000, expect, 0.5);
  }
}

INSTANTIATE_TEST_SUITE_P(Distances, RadioSampling,
                         ::testing::Values(2.0, 10.0, 30.0, 80.0));

TEST(Radio, QuantizeClamps) {
  EXPECT_EQ(quantize_rssi(-54.4), -54);
  EXPECT_EQ(quantize_rssi(-200), static_cast<std::int8_t>(-95));
  EXPECT_EQ(quantize_rssi(0), static_cast<std::int8_t>(-25));
}

TEST(Channel, RangesPerPolicy) {
  stats::PhiloxRng rng(5, 0, 0);
  for (auto policy : {ChannelPolicy::FactoryDefaultHeavy,
                      ChannelPolicy::AutoSelect,
                      ChannelPolicy::PlannedNonOverlap}) {
    for (int i = 0; i < 500; ++i) {
      const int ch = pick_channel_24(policy, rng);
      EXPECT_GE(ch, 1);
      EXPECT_LE(ch, 13);
    }
  }
}

TEST(Channel, PlannedFavorsNonOverlapping) {
  stats::PhiloxRng rng(6, 0, 0);
  int non_overlap = 0;
  const int n = 5000;
  for (int i = 0; i < n; ++i) {
    const int ch = pick_channel_24(ChannelPolicy::PlannedNonOverlap, rng);
    non_overlap += ch == 1 || ch == 6 || ch == 11;
  }
  EXPECT_GT(static_cast<double>(non_overlap) / n, 0.80);
}

TEST(Channel, FactoryDefaultPilesOnChannelOne) {
  stats::PhiloxRng rng(7, 0, 0);
  int ch1_factory = 0, ch1_auto = 0;
  const int n = 5000;
  for (int i = 0; i < n; ++i) {
    ch1_factory += pick_channel_24(ChannelPolicy::FactoryDefaultHeavy, rng) == 1;
    ch1_auto += pick_channel_24(ChannelPolicy::AutoSelect, rng) == 1;
  }
  EXPECT_GT(ch1_factory, 2 * ch1_auto);  // the Fig 16 2013 home pile-up
}

TEST(Channel, FiveGhzFromJapaneseSets) {
  stats::PhiloxRng rng(8, 0, 0);
  for (int i = 0; i < 200; ++i) {
    const int ch = pick_channel_5(rng);
    EXPECT_TRUE(ch == 36 || ch == 40 || ch == 44 || ch == 48 || ch == 52 ||
                ch == 100 || ch == 104 || ch == 108);
  }
}

TEST(Channel, FactoryDefaultShareDecreasesOverYears) {
  // Home channel hygiene improves 2013 -> 2015 (§3.4.5).
  EXPECT_GT(home_factory_default_share(0), home_factory_default_share(1));
  EXPECT_GT(home_factory_default_share(1), home_factory_default_share(2));
}

}  // namespace
}  // namespace tokyonet::net
