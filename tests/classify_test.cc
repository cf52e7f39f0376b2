#include "analysis/classify.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "analysis/query/source.h"
#include "core/hash.h"
#include "core/scenario.h"
#include "io/shard_store.h"
#include "sim/stream_runner.h"

#include "testutil.h"

namespace tokyonet::analysis {
namespace {

using test::add_ap;
using test::add_sample;
using test::campaign;
using test::campaign_classification;
using test::empty_dataset;

/// Builds a 3-day dataset where device 0 camps on AP "home" overnight.
Dataset overnight_dataset(double presence, std::string essid = "aterm-AB12-g") {
  Dataset ds = empty_dataset(1, 3);
  std::vector<test::Row> rows;
  const ApId home = add_ap(ds, std::move(essid));
  const int night_bins = 8 * kBinsPerHour;  // 22:00-06:00
  for (int day = 0; day < 2; ++day) {
    int placed = 0;
    for (int k = 0; k < night_bins; ++k) {
      const int hour_bin = 22 * kBinsPerHour + k;  // continues past midnight
      const auto bin = static_cast<TimeBin>(day * kBinsPerDay + hour_bin);
      if (bin >= ds.calendar.num_bins()) break;
      const bool assoc = placed < presence * night_bins;
      add_sample(rows, 0, bin, 0, assoc ? 1000u : 0u,
                 assoc ? WifiState::Associated : WifiState::OnUnassociated,
                 assoc ? home : kNoAp);
      ++placed;
    }
  }
  test::set_rows(ds, rows);
  return ds;
}

TEST(Classify, OvernightCamperGetsHomeAp) {
  const Dataset ds = overnight_dataset(1.0);
  const ApClassification cls = classify_aps(query::InMemorySource(ds));
  EXPECT_EQ(cls.home_ap_of_device[0], ApId{0});
  EXPECT_EQ(cls.class_of(ApId{0}), ApClass::Home);
  EXPECT_DOUBLE_EQ(cls.home_ap_device_share(), 1.0);
}

TEST(Classify, BelowPresenceThresholdNotHome) {
  const Dataset ds = overnight_dataset(0.5);  // below the 70% rule
  const ApClassification cls = classify_aps(query::InMemorySource(ds));
  EXPECT_EQ(cls.home_ap_of_device[0], kNoAp);
  EXPECT_EQ(cls.class_of(ApId{0}), ApClass::Other);
}

class HomeThresholdSweep : public ::testing::TestWithParam<double> {};

TEST_P(HomeThresholdSweep, ThresholdGatesClassification) {
  const double presence = 0.75;
  const Dataset ds = overnight_dataset(presence);
  ClassifyOptions opt;
  opt.home_presence_threshold = GetParam();
  const ApClassification cls = classify_aps(query::InMemorySource(ds), opt);
  if (GetParam() <= presence) {
    EXPECT_EQ(cls.home_ap_of_device[0], ApId{0});
  } else {
    EXPECT_EQ(cls.home_ap_of_device[0], kNoAp);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, HomeThresholdSweep,
                         ::testing::Values(0.5, 0.6, 0.7, 0.8, 0.9));

/// One digest over every field of each classification, in order.
std::uint64_t classification_digest(const std::vector<ApClassification>& v) {
  std::uint64_t h = 0;
  const auto fold_bits = [&h](const std::vector<bool>& bits) {
    const std::vector<std::uint8_t> bytes(bits.begin(), bits.end());
    h = core::hash_bytes(bytes.data(), bytes.size(), h);
  };
  for (const ApClassification& c : v) {
    h = core::hash_bytes(c.ap_class.data(), c.ap_class.size(), h);
    fold_bits(c.associated);
    fold_bits(c.is_office);
    fold_bits(c.is_mobile);
    h = core::hash_bytes(c.home_ap_of_device.data(),
                         c.home_ap_of_device.size() * sizeof(ApId), h);
  }
  return h;
}

TEST(Classify, ThresholdSweepMatchesOneScanPerThreshold) {
  // Pinned from five separate classify_aps() calls (one full scan per
  // threshold), before the sweep shared one scan between them.
  constexpr std::uint64_t kPinned = 0xab2a5b41119bb7f6ull;
  constexpr double kThresholds[] = {0.50, 0.60, 0.70, 0.80, 0.90};
  const std::vector<ApClassification> in_memory =
      classify_aps(test::campaign_source(Year::Y2015), {}, kThresholds);
  ASSERT_EQ(in_memory.size(), 5u);
  EXPECT_EQ(classification_digest(in_memory), kPinned)
      << "in memory: digest 0x" << std::hex
      << classification_digest(in_memory);

  test::ScratchDir tmp;
  sim::StreamCampaignOptions opts;
  opts.shards = 3;
  const sim::StreamCampaignResult w = sim::stream_campaign(
      scenario_config(Year::Y2015, test::kTestScale), tmp.path, opts);
  ASSERT_TRUE(w.ok()) << w.error;
  io::ShardedDataset store;
  const io::SnapshotResult r = io::ShardedDataset::open(tmp.path, store);
  ASSERT_TRUE(r.ok()) << r.error;
  ASSERT_EQ(store.num_shards(), 3u);
  const std::vector<ApClassification> sharded =
      classify_aps(query::ShardedSource(store), {}, kThresholds);
  EXPECT_EQ(classification_digest(sharded), kPinned)
      << "3 shards: digest 0x" << std::hex << classification_digest(sharded);
}

/// Device 0 over two nights on APs 0 and 1, associated in the order
/// `first`, `second`: `split` puts each night's first half on `first`
/// and its second half on `second` (a tie inside every window);
/// otherwise night 0 is all `first` and night 1 all `second` (each
/// window has one winner, and the two winners tie on votes).
Dataset two_ap_nights(bool second_is_ap0, bool split) {
  Dataset ds = empty_dataset(1, 3);
  const ApId ap0 = add_ap(ds, "aterm-AB12-g");
  const ApId ap1 = add_ap(ds, "aterm-CD34-g");
  const ApId first = second_is_ap0 ? ap1 : ap0;
  const ApId second = second_is_ap0 ? ap0 : ap1;
  std::vector<test::Row> rows;
  const int night_bins = 8 * kBinsPerHour;  // 22:00-06:00
  for (int day = 0; day < 2; ++day) {
    for (int k = 0; k < night_bins; ++k) {
      const auto bin =
          static_cast<TimeBin>(day * kBinsPerDay + 22 * kBinsPerHour + k);
      const bool on_first = split ? k < night_bins / 2 : day == 0;
      add_sample(rows, 0, bin, 0, 1000, WifiState::Associated,
                 on_first ? first : second);
    }
  }
  test::set_rows(ds, rows);
  return ds;
}

TEST(Classify, TieBreakIsLowestApId) {
  constexpr double kThresholds[] = {0.50, 0.60, 0.70, 0.80, 0.90};
  for (const bool second_is_ap0 : {false, true}) {
    SCOPED_TRACE(second_is_ap0 ? "AP 1 first" : "AP 0 first");
    // Tied votes: each night is one AP's, at every threshold.
    const Dataset votes = two_ap_nights(second_is_ap0, /*split=*/false);
    const std::vector<ApClassification> by_votes =
        classify_aps(query::InMemorySource(votes), {}, kThresholds);
    ASSERT_EQ(by_votes.size(), std::size(kThresholds));
    for (const ApClassification& cls : by_votes) {
      EXPECT_EQ(cls.home_ap_of_device[0], ApId{0});
      EXPECT_EQ(cls.class_of(ApId{0}), ApClass::Home);
      EXPECT_EQ(cls.class_of(ApId{1}), ApClass::Other);
    }
    // Tied windows: both APs are present for half of every night, which
    // only the 50 % threshold accepts.
    const Dataset windows = two_ap_nights(second_is_ap0, /*split=*/true);
    const std::vector<ApClassification> by_windows =
        classify_aps(query::InMemorySource(windows), {}, kThresholds);
    ASSERT_EQ(by_windows.size(), std::size(kThresholds));
    EXPECT_EQ(by_windows[0].home_ap_of_device[0], ApId{0});
    for (std::size_t k = 1; k < by_windows.size(); ++k) {
      EXPECT_EQ(by_windows[k].home_ap_of_device[0], kNoAp);
    }
  }
}

TEST(Classify, FirstMorningDoesNotLeakIntoFirstNight) {
  // 20 bins on day 0's 00:00-06:00 and 20 bins in night 0 (22:00 of day
  // 0 to 06:00 of day 1): each window is below the 70% rule (33 of 48
  // bins), so only adding the first morning to the first night would
  // make the AP a home AP.
  Dataset ds = empty_dataset(1, 2);
  std::vector<test::Row> rows;
  const ApId ap = add_ap(ds, "aterm-AB12-g");
  for (int k = 0; k < 20; ++k) {
    add_sample(rows, 0, static_cast<TimeBin>(k), 0, 100,
               WifiState::Associated, ap);
  }
  for (int k = 0; k < 20; ++k) {
    add_sample(rows, 0, static_cast<TimeBin>(22 * kBinsPerHour + k), 0, 100,
               WifiState::Associated, ap);
  }
  test::set_rows(ds, rows);
  const ApClassification cls = classify_aps(query::InMemorySource(ds));
  EXPECT_EQ(cls.home_ap_of_device[0], kNoAp);
  EXPECT_EQ(cls.class_of(ap), ApClass::Other);
}

TEST(Classify, FonBoxCampedOnOvernightIsHome) {
  // §3.4.1: FON APs with a public ESSID used around the clock at home
  // are classified home, not public.
  const Dataset ds = overnight_dataset(1.0, "FON_FREE_INTERNET");
  const ApClassification cls = classify_aps(query::InMemorySource(ds));
  EXPECT_EQ(cls.class_of(ApId{0}), ApClass::Home);
}

TEST(Classify, ProviderEssidIsPublic) {
  Dataset ds = empty_dataset(1, 2);
  std::vector<test::Row> rows;
  const ApId ap = add_ap(ds, "0000docomo");
  // Brief daytime association only.
  for (int k = 0; k < 3; ++k) {
    add_sample(rows, 0, static_cast<TimeBin>(12 * kBinsPerHour + k), 0, 100,
               WifiState::Associated, ap);
  }
  test::set_rows(ds, rows);
  const ApClassification cls = classify_aps(query::InMemorySource(ds));
  EXPECT_EQ(cls.class_of(ap), ApClass::Public);
}

TEST(Classify, NeverAssociatedApsExcludedFromCounts) {
  Dataset ds = empty_dataset(1, 2);
  std::vector<test::Row> rows;
  (void)add_ap(ds, "0000docomo");
  (void)add_ap(ds, "corp-ap-22");
  test::set_rows(ds, rows);
  const ApClassification cls = classify_aps(query::InMemorySource(ds));
  const auto counts = cls.counts();
  EXPECT_EQ(counts.total, 0);
}

TEST(Classify, WeekdayMiddayApIsOffice) {
  Dataset ds = empty_dataset(1, 7);
  std::vector<test::Row> rows;
  const ApId ap = add_ap(ds, "corp-ap-01");
  // Day 2 of the 2015-02-28 calendar is a Monday.
  for (int day = 2; day < 7; ++day) {
    for (int hb = 11 * kBinsPerHour; hb < 17 * kBinsPerHour; ++hb) {
      add_sample(rows, 0, static_cast<TimeBin>(day * kBinsPerDay + hb), 0, 100,
                 WifiState::Associated, ap);
    }
  }
  test::set_rows(ds, rows);
  const ApClassification cls = classify_aps(query::InMemorySource(ds));
  EXPECT_EQ(cls.class_of(ap), ApClass::Other);
  EXPECT_TRUE(cls.is_office[value(ap)]);
  EXPECT_EQ(cls.counts().office, 1);
}

TEST(Classify, WeekendMiddayApIsNotOffice) {
  Dataset ds = empty_dataset(1, 2);  // days 0/1 are Sat/Sun
  std::vector<test::Row> rows;
  const ApId ap = add_ap(ds, "cafe-wifi-99");
  for (int day = 0; day < 2; ++day) {
    for (int hb = 11 * kBinsPerHour; hb < 17 * kBinsPerHour; ++hb) {
      add_sample(rows, 0, static_cast<TimeBin>(day * kBinsPerDay + hb), 0, 100,
                 WifiState::Associated, ap);
    }
  }
  test::set_rows(ds, rows);
  const ApClassification cls = classify_aps(query::InMemorySource(ds));
  EXPECT_FALSE(cls.is_office[value(ap)]);
}

TEST(Classify, ApSeenAcrossManyCellsIsMobile) {
  Dataset ds = empty_dataset(1, 2);
  std::vector<test::Row> rows;
  const ApId ap = add_ap(ds, "PocketWiFi-AB12CD");
  for (int k = 0; k < 6; ++k) {
    test::Row& s = add_sample(rows, 0, static_cast<TimeBin>(8 * kBinsPerHour + k),
                           0, 100, WifiState::Associated, ap);
    s.geo_cell = static_cast<GeoCell>(100 + k);  // moving
  }
  test::set_rows(ds, rows);
  const ApClassification cls = classify_aps(query::InMemorySource(ds));
  EXPECT_TRUE(cls.is_mobile[value(ap)]);
  EXPECT_FALSE(cls.is_office[value(ap)]);
}

TEST(Classify, IdempotentAcrossCalls) {
  const Dataset& ds = campaign(Year::Y2014);
  const ApClassification a = classify_aps(query::InMemorySource(ds));
  const ApClassification b = classify_aps(query::InMemorySource(ds));
  EXPECT_EQ(a.ap_class, b.ap_class);
  EXPECT_EQ(a.home_ap_of_device, b.home_ap_of_device);
}

TEST(Classify, InferenceMatchesGroundTruthOnCampaign) {
  const Dataset& ds = campaign(Year::Y2015);
  const ApClassification& cls = campaign_classification(Year::Y2015);

  // Home inference: precision against simulator truth.
  int inferred = 0, correct = 0, owners = 0;
  for (std::size_t i = 0; i < ds.devices.size(); ++i) {
    const DeviceTruth& t = ds.truth.devices[i];
    owners += t.has_home_ap;
    const ApId inferred_ap = cls.home_ap_of_device[i];
    if (inferred_ap == kNoAp) continue;
    ++inferred;
    correct += t.has_home_ap && inferred_ap == t.home_ap;
  }
  ASSERT_GT(inferred, 0);
  EXPECT_GT(static_cast<double>(correct) / inferred, 0.95);  // precision
  EXPECT_GT(static_cast<double>(inferred) / owners, 0.85);   // recall
}

TEST(Classify, PublicClassMatchesPlacementTruth) {
  const Dataset& ds = campaign(Year::Y2015);
  const ApClassification& cls = campaign_classification(Year::Y2015);
  int pub_inferred = 0, pub_correct = 0;
  for (std::size_t i = 0; i < ds.aps.size(); ++i) {
    if (!cls.associated[i] || cls.ap_class[i] != ApClass::Public) continue;
    ++pub_inferred;
    pub_correct += ds.truth.aps[i].placement == ApPlacement::Public;
  }
  ASSERT_GT(pub_inferred, 20);
  EXPECT_GT(static_cast<double>(pub_correct) / pub_inferred, 0.95);
}

TEST(Classify, HomeShareTracksOwnership) {
  // The §3.4.1 headline: inferred home-AP share approximates true
  // ownership (66% / 73% / 79%).
  for (Year y : kAllYears) {
    const Dataset& ds = campaign(y);
    const ApClassification& cls = campaign_classification(y);
    double owners = 0;
    for (const DeviceTruth& t : ds.truth.devices) owners += t.has_home_ap;
    const double ownership = owners / static_cast<double>(ds.devices.size());
    EXPECT_NEAR(cls.home_ap_device_share(), ownership, 0.08);
  }
}

TEST(Classify, EmptyDatasetYieldsEmptyClassification) {
  Dataset ds = empty_dataset(0, 1);
  ds.build_index();
  const ApClassification cls = classify_aps(query::InMemorySource(ds));
  EXPECT_EQ(cls.counts().total, 0);
  EXPECT_DOUBLE_EQ(cls.home_ap_device_share(), 0.0);
}

}  // namespace
}  // namespace tokyonet::analysis
