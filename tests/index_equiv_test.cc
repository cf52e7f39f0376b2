// Equivalence tests for the column kernels and the memoized
// AnalysisContext, plus the DatasetIndex contract.
//
// Contract under test: every kernel that scans the sample columns is
// *byte-identical* to the serial reference it replaced, at any thread
// count. That reference was each kernel's AoS fallback over an
// index-free copy of the campaign; the fallbacks are gone, so their
// results are pinned here as digests of the fields each case compares
// (recorded from the serial reference at one thread, before the
// fallbacks were deleted). The column path runs at thread counts 1 and
// 4 and must reproduce every pinned digest exactly.
#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "analysis/aggregate.h"
#include "analysis/apps.h"
#include "analysis/availability.h"
#include "analysis/battery.h"
#include "analysis/classify.h"
#include "analysis/common.h"
#include "analysis/context.h"
#include "analysis/quality.h"
#include "analysis/update.h"
#include "analysis/volumes.h"
#include "analysis/wifistate.h"
#include "core/dataset_index.h"
#include "core/hash.h"
#include "core/parallel.h"
#include "geo/region.h"
#include "testutil.h"

namespace tokyonet::analysis {
namespace {

using test::add_sample;
using test::campaign;
using test::campaign_source;
using test::campaign_classification;
using test::empty_dataset;

/// Restores the environment-derived thread count on scope exit.
struct ThreadCountGuard {
  ~ThreadCountGuard() { core::set_thread_count(0); }
};

/// Folds every field a case compares into one 64-bit digest: doubles by
/// their bit pattern, containers with their length, in a fixed order.
class Digest {
 public:
  template <typename... T>
  void add(const T&... fields) {
    (fold(fields), ...);
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

 private:
  template <typename T>
    requires std::is_arithmetic_v<T>
  void fold(T v) {
    h_ = core::hash_bytes(&v, sizeof(v), h_);
  }
  template <typename T>
  void fold(const std::vector<T>& v) {
    fold(v.size());
    for (const T& x : v) fold(x);
  }
  template <typename T, std::size_t N>
  void fold(const std::array<T, N>& a) {
    for (const T& x : a) fold(x);
  }
  // Profile sums fold as the doubles they render: the digests were
  // pinned when the sums were doubles, and integer sums below 2^53
  // convert to exactly those values.
  void fold(const WeeklyProfile& p) {
    for (const std::vector<std::uint64_t>& sums :
         {p.num_series(), p.den_series()}) {
      fold(sums.size());
      for (const std::uint64_t x : sums) fold(static_cast<double>(x));
    }
  }

  std::uint64_t h_ = 0x696E646578657175ull;  // "indexequ"
};

/// Runs `body` over the shared campaign of every year, at thread counts
/// 1 and 4; each run must fold to the pinned parent-reference digest.
template <typename Body>
void expect_pinned(std::uint64_t pinned, const Body& body) {
  ThreadCountGuard guard;
  for (int threads : {1, 4}) {
    core::set_thread_count(threads);
    Digest d;
    for (Year y : kAllYears) body(d, y);
    EXPECT_EQ(d.value(), pinned)
        << "threads=" << threads << " digest 0x" << std::hex << d.value();
  }
}

TEST(IndexEquivalence, AggregateSeries) {
  expect_pinned(0xbaa7500844e4eed9ull, [](Digest& d, Year y) {
    for (Stream s : {Stream::CellRx, Stream::CellTx, Stream::WifiRx,
                     Stream::WifiTx}) {
      d.add(aggregate_series(campaign_source(y), s).mbps);
    }
  });
}

TEST(IndexEquivalence, LocationSeries) {
  expect_pinned(0xd65ee461477e53ccull, [](Digest& d, Year y) {
    const LocationFilter filters[] = {
        {ApClass::Home, false}, {ApClass::Public, false}, {ApClass::Other, true}};
    const ApClassification& cls = campaign_classification(y);
    for (const LocationFilter& f : filters) {
      for (bool rx : {true, false}) {
        d.add(location_series(campaign_source(y), cls, f, rx).mbps);
      }
    }
  });
}

TEST(IndexEquivalence, WifiLocationShares) {
  expect_pinned(0xa73e1448956f9a5eull, [](Digest& d, Year y) {
    const WifiLocationShares r =
        wifi_location_shares(campaign_source(y), campaign_classification(y));
    d.add(r.home, r.publik, r.office, r.other);
  });
}

TEST(IndexEquivalence, RssiAnalysis) {
  expect_pinned(0x71fd8891119870f6ull, [](Digest& d, Year y) {
    const RssiAnalysis r =
        rssi_analysis(campaign_source(y), campaign_classification(y));
    d.add(r.home_max_rssi, r.public_max_rssi, r.home_mean, r.public_mean,
          r.home_below_70_share, r.public_below_70_share);
  });
}

TEST(IndexEquivalence, ChannelAnalysis) {
  expect_pinned(0x876e8f71e683d627ull, [](Digest& d, Year y) {
    const ChannelAnalysis r =
        channel_analysis(campaign_source(y), campaign_classification(y));
    d.add(r.home_pmf, r.public_pmf);
  });
}

TEST(IndexEquivalence, ChannelInterference) {
  expect_pinned(0xb7942c04f13fafd2ull, [](Digest& d, Year y) {
    const geo::TokyoRegion region;
    const InterferenceAnalysis r =
        channel_interference(campaign_source(y), campaign_classification(y),
                             region.grid().num_cells());
    d.add(r.home_conflict_share, r.public_conflict_share, r.home_pairs,
          r.public_pairs);
  });
}

TEST(IndexEquivalence, ApDensityMap) {
  expect_pinned(0x833de30bd8716c93ull, [](Digest& d, Year y) {
    const geo::TokyoRegion region;
    for (ApClass which : {ApClass::Home, ApClass::Public}) {
      const ApDensityMap r =
          ap_density_map(campaign_source(y), campaign_classification(y), which,
                         region.grid().num_cells());
      d.add(r.count_by_cell, r.cells_with_ap, r.cells_with_100, r.max_count);
    }
  });
}

TEST(IndexEquivalence, WifiStates) {
  expect_pinned(0x3a264b7db96810f2ull, [](Digest& d, Year y) {
    const WifiStateProfiles r = compute_wifi_states(campaign_source(y));
    d.add(r.android_user, r.android_off, r.android_available, r.ios_user);
  });
}

TEST(IndexEquivalence, IosWifiUserByCarrier) {
  expect_pinned(0xbf64472024a0f828ull, [](Digest& d, Year y) {
    d.add(ios_wifi_user_by_carrier(campaign_source(y)));
  });
}

TEST(IndexEquivalence, VolumesOverview) {
  expect_pinned(0x8716b34ff36470f9ull, [](Digest& d, Year y) {
    const DatasetOverview r = overview(campaign_source(y));
    d.add(r.n_android, r.n_ios, r.n_total, r.lte_traffic_share);
  });
}

TEST(IndexEquivalence, AppBreakdown) {
  expect_pinned(0xd03af797ccb60a15ull, [](Digest& d, Year y) {
    const std::vector<GeoCell> homes = infer_home_cells(campaign(y));
    const AppBreakdown r =
        app_breakdown(campaign_source(y), campaign_classification(y), homes);
    d.add(r.rx_share, r.tx_share);
  });
}

TEST(IndexEquivalence, AppBreakdownLightUsersOnly) {
  expect_pinned(0x48cd3861c248255full, [](Digest& d, Year y) {
    if (y != Year::Y2015) return;
    const Dataset& ds = campaign(y);
    const std::vector<GeoCell> homes = infer_home_cells(ds);
    const std::vector<UserDay> days = user_days(ds);
    const UserClassifier classes(days);
    AppBreakdownOptions opt;
    opt.light_users_only = true;
    opt.days = &days;
    opt.classes = &classes;
    const AppBreakdown r =
        app_breakdown(campaign_source(y), campaign_classification(y), homes, opt);
    d.add(r.rx_share, r.tx_share);
  });
}

TEST(IndexEquivalence, ScanAvailability) {
  expect_pinned(0x08c1fd419291dbcfull, [](Digest& d, Year y) {
    const ScanAvailability r = scan_availability(campaign_source(y));
    d.add(r.all_24, r.strong_24, r.all_5, r.strong_5);
  });
}

TEST(IndexEquivalence, BatteryAnalysis) {
  expect_pinned(0x757e64abbcb30de7ull, [](Digest& d, Year y) {
    const BatteryAnalysis r = battery_analysis(campaign_source(y));
    d.add(r.mean_level, r.low_share, r.mean);
  });
}

TEST(IndexEquivalence, UserDaysThreadInvariant) {
  expect_pinned(0xee340d3d91b587cdull, [](Digest& d, Year y) {
    for (const UserDay& u : user_days(campaign(y))) {
      d.add(value(u.device), u.day, u.cell_rx_mb, u.cell_tx_mb, u.wifi_rx_mb,
            u.wifi_tx_mb);
    }
  });
}

TEST(IndexEquivalence, HomeCellsAndOffloadThreadInvariant) {
  expect_pinned(0x5dc16b9777505fb1ull, [](Digest& d, Year y) {
    d.add(infer_home_cells(campaign(y)));
    const OffloadOpportunity r = offload_opportunity(campaign_source(y));
    d.add(r.users_with_stable_opportunity, r.offloadable_cell_share,
          r.num_wifi_available_users);
  });
}

TEST(AnalysisContextTest, MemoizesSharedIntermediates) {
  const Dataset& ds = campaign(Year::Y2015);
  const AnalysisContext ctx(ds);
  // Repeated calls return the same object, not a recomputation.
  EXPECT_EQ(&ctx.updates(), &ctx.updates());
  EXPECT_EQ(&ctx.days(), &ctx.days());
  EXPECT_EQ(&ctx.classifier(), &ctx.classifier());
  EXPECT_EQ(&ctx.classification(), &ctx.classification());
  EXPECT_EQ(&ctx.home_cells(), &ctx.home_cells());
}

TEST(AnalysisContextTest, MatchesFreshComputation) {
  const Dataset& ds = campaign(Year::Y2015);
  const AnalysisContext ctx(ds);

  UpdateDetectOptions uopt;
  uopt.min_day = 9;  // 2015 campaign: release on day 9
  const UpdateDetection det = detect_updates(ds, uopt);
  EXPECT_EQ(ctx.updates().update_bin, det.update_bin);
  EXPECT_EQ(ctx.updates().num_updated, det.num_updated);

  UserDayOptions dopt;
  dopt.update_bin_by_device = &det.update_bin;
  const std::vector<UserDay> days = user_days(ds, dopt);
  ASSERT_EQ(ctx.days().size(), days.size());
  for (std::size_t i = 0; i < days.size(); ++i) {
    EXPECT_EQ(ctx.days()[i].device, days[i].device);
    EXPECT_EQ(ctx.days()[i].day, days[i].day);
    EXPECT_EQ(ctx.days()[i].total_rx_mb(), days[i].total_rx_mb());
  }

  const UserClassifier classes(days);
  for (const UserDay& d : days) {
    EXPECT_EQ(ctx.classifier().classify(d), classes.classify(d));
  }

  const ApClassification cls = classify_aps(query::InMemorySource(ds));
  const auto got = ctx.classification().counts();
  const auto want = cls.counts();
  EXPECT_EQ(got.home, want.home);
  EXPECT_EQ(got.publik, want.publik);
  EXPECT_EQ(got.other, want.other);
  EXPECT_EQ(got.office, want.office);

  EXPECT_EQ(ctx.home_cells(), infer_home_cells(ds));
}

/// A 3-device, 2-day dataset whose rows all pass validation: every row
/// carries one app record and rows j % 3 == 0 are associated with AP
/// j % 4 of 4, the rest carry kNoAp. Dense: one row per bin. Sparse:
/// six rows per device with a repeated bin.
Dataset validation_fixture(bool dense) {
  constexpr int kDays = 2;
  Dataset ds = empty_dataset(3, kDays);
  for (int a = 0; a < 4; ++a) test::add_ap(ds, "ap" + std::to_string(a));
  std::vector<int> bins = {0, 7, 7, 150, 151, 287};
  if (dense) {
    bins.resize(kDays * kBinsPerDay);
    for (std::size_t j = 0; j < bins.size(); ++j) bins[j] = static_cast<int>(j);
  }
  std::vector<test::Row> rows;
  std::uint32_t app = 0;
  for (std::uint32_t d = 0; d < 3; ++d) {
    for (std::size_t j = 0; j < bins.size(); ++j) {
      const bool assoc = j % 3 == 0;
      test::Row& s = add_sample(
          rows, d, static_cast<TimeBin>(bins[j]), 100, 0,
          assoc ? WifiState::Associated : WifiState::Off,
          assoc ? ApId{static_cast<std::uint32_t>(j % 4)} : kNoAp);
      s.app_count = 1;
      ++app;
    }
  }
  ds.app_traffic.resize(app);
  EXPECT_EQ(test::index_rows(ds, rows), "");
  return ds;
}

TEST(DatasetIndexTest, RejectsUnorderedOrOutOfRangeSamples) {
  // Rows the row-append path must refuse, leaving the dataset unindexed.
  const auto rejects = [](int devices, int days, std::size_t apps,
                          const std::vector<test::Row>& rows) {
    Dataset ds = empty_dataset(devices, days);
    ds.app_traffic.resize(apps);
    const std::string error = test::index_rows(ds, rows);
    EXPECT_FALSE(ds.indexed()) << error;
    return !error.empty();
  };
  const auto row = [](std::uint32_t device, int bin, ApId ap = kNoAp,
                      std::uint8_t apps = 0) {
    std::vector<test::Row> one;
    test::Row& s = add_sample(one, device, static_cast<TimeBin>(bin));
    s.ap = ap;
    s.app_count = apps;
    return s;
  };
  EXPECT_TRUE(rejects(2, 1, 0, {row(1, 0), row(0, 0)}));  // device order
  EXPECT_TRUE(rejects(1, 2, 0, {row(0, 5), row(0, 3)}));  // bin order
  EXPECT_TRUE(rejects(1, 1, 0, {row(0, kBinsPerDay)}));   // past day 0
  EXPECT_TRUE(rejects(1, 1, 0, {row(0, 0, ApId{3})}));    // no such AP
  EXPECT_TRUE(rejects(1, 1, 2, {row(0, 0, kNoAp, 3)}));  // 3 of 2 records

  Dataset ds = empty_dataset(2, 1);
  ASSERT_EQ(test::index_rows(ds, std::vector<test::Row>{row(0, 0), row(1, 0)}),
            "");
  EXPECT_TRUE(ds.indexed());
  EXPECT_EQ(ds.validate(), "");
  // The same checks run on columns edited after the build.
  ds.samples.flags[0] = 2;  // no such flag bit
  EXPECT_NE(ds.validate().find("unknown flag bits"), std::string::npos);
  ds.samples.flags[0] = SampleColumns::kFlagTethering;
  EXPECT_EQ(ds.validate(), "");
  ds.samples.bin[1] = static_cast<TimeBin>(kBinsPerDay);
  EXPECT_FALSE(ds.validate().empty());
  EXPECT_FALSE(ds.build_index());
  EXPECT_FALSE(ds.indexed());

  // Each bad value goes at the first, a middle and the last row (or app
  // record) of the first, a middle and the last device. The messages —
  // the first bad row, the lowest failing device — are pinned as one
  // digest, recorded from the per-row validation walk.
  enum Kind {
    kBinPastCalendar, kBinDescends, kApPastUniverse, kApBelowNoAp,
    kUnknownState, kUnknownTech, kUnknownCategory, kAppCountMismatch,
    kNumKinds
  };
  std::string all;
  for (const bool dense : {true, false}) {
    const Dataset base = validation_fixture(dense);
    ASSERT_TRUE(base.indexed());
    // Accepted: equal bins (sparse), kNoAp rows, and the bin that drops
    // from one device's last row to the next device's first.
    ASSERT_EQ(base.validate(), "");
    EXPECT_EQ(base.index().dense(), dense);
    const core::DatasetIndex& idx = base.index();
    const auto n_bins = static_cast<std::uint32_t>(base.calendar.num_bins());
    const auto at = [](std::size_t begin, std::size_t end, int pos) {
      return pos == 0 ? begin : pos == 1 ? begin + (end - begin) / 2 : end - 1;
    };
    const auto corrupt = [&](Dataset& ds, int kind, std::size_t d, int pos) {
      SampleColumns& c = ds.samples;
      const std::size_t i = at(idx.device_begin(d), idx.device_end(d), pos);
      switch (kind) {
        case kBinPastCalendar: c.bin[i] = static_cast<TimeBin>(n_bins); break;
        case kBinDescends:
          c.bin[i] = static_cast<TimeBin>(
              pos == 0 ? c.bin[i + 1] + 1 : c.bin[i - 1] - 1);
          break;
        case kApPastUniverse: c.ap[i] = 4; break;
        case kApBelowNoAp: c.ap[i] = 0xFFFFFFFEu; break;
        case kUnknownState: c.wifi_state[i] = static_cast<WifiState>(3); break;
        case kUnknownTech: c.tech[i] = static_cast<CellTech>(3); break;
        case kUnknownCategory:
          ds.app_traffic.category[at(idx.device_app_begin(d),
                                     idx.device_app_end(d), pos)] =
              static_cast<AppCategory>(kNumAppCategories);
          break;
        case kAppCountMismatch: c.app_count[i] = 2; break;
      }
    };
    for (int kind = 0; kind < kNumKinds; ++kind) {
      for (const std::size_t d : {0u, 1u, 2u}) {
        for (int pos = 0; pos < 3; ++pos) {
          Dataset bad = base;
          corrupt(bad, kind, d, pos);
          const std::string error = bad.validate();
          EXPECT_FALSE(error.empty()) << kind << " " << d << " " << pos;
          EXPECT_FALSE(bad.build_index());
          all += error + "\n";
        }
      }
    }
    // Two failing devices: the lower one is reported.
    Dataset bad = base;
    corrupt(bad, kBinPastCalendar, 2, 0);
    corrupt(bad, kApPastUniverse, 1, 2);
    all += bad.validate() + "\n";

    // Day ranges, dense by arithmetic or sparse by a walk, equal a
    // reference walk of the bins.
    for (std::size_t d = 0; d < 3; ++d) {
      std::size_t i = idx.device_begin(d);
      for (int day = 0; day <= base.num_days(); ++day) {
        while (i < idx.device_end(d) &&
               base.samples.bin[i] < day * kBinsPerDay) {
          ++i;
        }
        EXPECT_EQ(idx.day_begin(d, day), i) << d << " " << day;
      }
    }
  }
  EXPECT_EQ(core::hash_bytes(all.data(), all.size(), 0), 0x6e3421e1bce1f1afull)
      << all;
}

TEST(DatasetIndexTest, RowsColumnsRowsRoundTrip) {
  const Dataset& ds = campaign(Year::Y2014);
  ASSERT_TRUE(ds.indexed());
  const core::DatasetIndex& idx = ds.index();

  // Device ranges tile [0, n); day ranges tile each device range.
  std::size_t expect_begin = 0;
  for (std::size_t d = 0; d < ds.devices.size(); ++d) {
    EXPECT_EQ(idx.device_begin(d), expect_begin);
    EXPECT_EQ(idx.day_begin(d, 0), idx.device_begin(d));
    EXPECT_EQ(idx.day_begin(d, ds.num_days()), idx.device_end(d));
    for (int day = 0; day < ds.num_days(); ++day) {
      EXPECT_LE(idx.day_begin(d, day), idx.day_begin(d, day + 1));
    }
    expect_begin = idx.device_end(d);
  }
  EXPECT_EQ(expect_begin, ds.samples.size());

  // Rows gathered from the columns build the same columns and layout,
  // and gather back to the same rows.
  const std::vector<test::Row> rows = test::rows_of(ds);
  ASSERT_EQ(rows.size(), ds.samples.size());
  Dataset copy = ds;
  ASSERT_EQ(test::index_rows(copy, rows), "");
  EXPECT_TRUE(test::same_records(copy, ds));
  EXPECT_EQ(copy.index().dense(), idx.dense());
  EXPECT_TRUE(test::rows_of(copy) == rows);
}

TEST(DatasetIndexTest, HourOfWeekTableMatchesWeeklyProfile) {
  const Dataset& ds = campaign(Year::Y2013);
  ASSERT_TRUE(ds.indexed());
  const auto table = ds.index().hour_of_week_table();
  const int num_bins = ds.num_days() * kBinsPerDay;
  ASSERT_EQ(static_cast<int>(table.size()), num_bins);
  for (int b = 0; b < num_bins; ++b) {
    EXPECT_EQ(table[static_cast<std::size_t>(b)],
              WeeklyProfile::hour_of_week(ds.calendar,
                                          static_cast<TimeBin>(b)));
  }
}

}  // namespace
}  // namespace tokyonet::analysis
