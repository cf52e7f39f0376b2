// Parameter-list kernels: a kernel that a figure runs for several
// parameter values takes the whole list and scans each block once. Each
// list form must equal one call per value, in memory and over stores of
// 1, 4 and 16 shards; Fig 11's bucketed scan must equal the per-filter
// scans it replaced, kept here verbatim as the reference.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <filesystem>
#include <span>
#include <string>
#include <vector>

#include "analysis/aggregate.h"
#include "analysis/availability.h"
#include "analysis/classify.h"
#include "analysis/common.h"
#include "analysis/quality.h"
#include "analysis/query/scan.h"
#include "analysis/query/source.h"
#include "analysis/ratios.h"
#include "core/dataset_index.h"
#include "core/scenario.h"
#include "geo/region.h"
#include "io/shard_store.h"
#include "sim/simulator.h"
#include "sim/stream_runner.h"
#include "testutil.h"

namespace tokyonet::analysis {
namespace {

namespace fs = std::filesystem;

constexpr double kListTestScale = 0.03;

// --- Reference: the per-filter scans Fig 11 made before its buckets ------

void add_hour_sums(std::vector<std::uint64_t>& acc,
                   const std::vector<std::uint64_t>& p) {
  for (std::size_t h = 0; h < acc.size(); ++h) acc[h] += p[h];
}

// The exact per-hour byte sums behind one Fig 11 series. All
// accumulation is u64 (the serial reference sums u32 byte counts into
// doubles, which is exact below 2^53, so integer sums convert to the
// same doubles), which makes per-shard partials merge byte-identically.
[[nodiscard]] std::vector<std::uint64_t> location_hour_sums(
    const Dataset& ds, const ApClassification& cls, LocationFilter filter,
    bool rx) {
  const auto n_hours = static_cast<std::size_t>(ds.num_days()) * 24;

  const core::DatasetIndex& idx = ds.index();
  // Fold the per-sample class/office test into one per-AP table with a
  // trailing always-zero sentinel row: clamping the AP id into the table
  // maps unassociated samples (ap == kNoAp) to the sentinel, so the scan
  // is a branch-free select — one byte gather, one multiply — instead of
  // three data-dependent branches per sample.
  const std::size_t naps = ds.aps.size();
  std::vector<std::uint8_t> keep(naps + 1, 0);
  for (std::size_t a = 0; a < naps; ++a) {
    keep[a] = cls.ap_class[a] == filter.ap_class &&
              (!filter.office_only || cls.is_office[a]);
  }

  const std::span<const TimeBin> bin = ds.samples.bin;
  const std::span<const std::uint32_t> ap = ds.samples.ap;
  const std::span<const WifiState> state = ds.samples.wifi_state;
  const std::span<const std::uint32_t> bytes =
      rx ? ds.samples.wifi_rx : ds.samples.wifi_tx;
  const std::size_t n = bin.size();
  std::vector<std::vector<std::uint64_t>> partials;
  if (idx.dense()) {
    // Fixed-stride hour runs as in all_streams_scan, with the keep
    // select folded into the accumulate.
    partials = query::map_device_blocks(
        idx.num_devices(), [&](std::size_t d0, std::size_t d1) {
          std::vector<std::uint64_t> sums(n_hours, 0);
          for (std::size_t d = d0; d < d1; ++d) {
            const std::size_t begin = idx.device_begin(d);
            const std::uint32_t* ap_p = ap.data() + begin;
            const WifiState* st_p = state.data() + begin;
            const std::uint32_t* by_p = bytes.data() + begin;
            for (std::size_t h = 0; h < n_hours; ++h) {
              std::uint64_t acc = 0;
              for (std::size_t j = 0; j < kBinsPerHour; ++j) {
                const std::uint32_t a = ap_p[j];
                const std::size_t ki = a < naps ? a : naps;
                const std::uint64_t sel =
                    keep[ki] & (st_p[j] == WifiState::Associated);
                acc += sel * by_p[j];
              }
              sums[h] += acc;
              ap_p += kBinsPerHour;
              st_p += kBinsPerHour;
              by_p += kBinsPerHour;
            }
          }
          return sums;
        });
  } else {
    partials = query::map_chunks(n, [&](std::size_t begin, std::size_t end) {
      std::vector<std::uint64_t> sums(n_hours, 0);
      for (std::size_t i = begin; i < end; ++i) {
        const std::uint32_t a = ap[i];
        const std::size_t ki = a < naps ? a : naps;
        const std::uint64_t sel =
            keep[ki] & (state[i] == WifiState::Associated);
        sums[static_cast<std::size_t>(bin[i] / kBinsPerHour)] +=
            sel * bytes[i];
      }
      return sums;
    });
  }
  std::vector<std::uint64_t> total(n_hours, 0);
  for (const std::vector<std::uint64_t>& p : partials) add_hour_sums(total, p);
  return total;
}

// Exact byte sums per location bucket (home, public, office, other).
// The serial reference accumulated doubles; u32 byte counts sum exactly
// in doubles below 2^53, so u64 sums convert to the same values and
// merge byte-identically across chunks and shards.
[[nodiscard]] std::array<std::uint64_t, 4> wifi_location_sums(
    const Dataset& ds, const ApClassification& cls) {
  std::array<std::uint64_t, 4> out{};

  // Per-AP bucket (home/public/office/other) resolved once; a fifth
  // trash bucket absorbs out-of-range AP ids so the gather needs no
  // bounds branch.
  const std::size_t naps = ds.aps.size();
  std::vector<std::uint8_t> bucket(naps + 1, 4);
  for (std::size_t a = 0; a < naps; ++a) {
    switch (cls.ap_class[a]) {
      case ApClass::Home: bucket[a] = 0; break;
      case ApClass::Public: bucket[a] = 1; break;
      case ApClass::Other: bucket[a] = cls.is_office[a] ? 2 : 3; break;
    }
  }
  const std::span<const std::uint32_t> ap = ds.samples.ap;
  const std::span<const WifiState> state = ds.samples.wifi_state;
  const std::span<const std::uint32_t> wifi_rx = ds.samples.wifi_rx;
  const std::span<const std::uint32_t> wifi_tx = ds.samples.wifi_tx;
  const std::size_t n = ap.size();
  using Sums = std::array<std::uint64_t, 5>;
  const std::vector<Sums> partials =
      query::map_chunks(n, [&](std::size_t begin, std::size_t end) {
        Sums sums{};
        // Devices dwell on one AP for many consecutive bins, so
        // run-length-encode the AP stream: one bucket lookup per
        // association run, and the byte sum inside a run is a
        // contiguous select-accumulate the compiler vectorizes.
        // u64 adds are associative, so per-run partial sums merge
        // byte-identically with the per-sample reference.
        std::size_t i = begin;
        while (i < end) {
          const std::uint32_t a = ap[i];
          std::size_t j = i + 1;
          while (j < end && ap[j] == a) ++j;
          if (a != value(kNoAp)) {
            std::uint64_t acc = 0;
            for (std::size_t k = i; k < j; ++k) {
              const std::uint64_t sel = state[k] == WifiState::Associated;
              acc += sel * (std::uint64_t{wifi_rx[k]} + wifi_tx[k]);
            }
            const std::size_t ki = a < naps ? a : naps;
            sums[bucket[ki]] += acc;
          }
          i = j;
        }
        return sums;
      });
  for (const Sums& p : partials) {
    for (std::size_t b = 0; b < 4; ++b) out[b] += p[b];
  }

  return out;
}

[[nodiscard]] WifiLocationShares wifi_location_shares_from_sums(
    const std::array<std::uint64_t, 4>& sums) {
  const double home = static_cast<double>(sums[0]);
  const double publik = static_cast<double>(sums[1]);
  const double office = static_cast<double>(sums[2]);
  const double other = static_cast<double>(sums[3]);
  const double total = home + publik + office + other;
  WifiLocationShares shares;
  if (total > 0) {
    shares.home = home / total;
    shares.publik = publik / total;
    shares.office = office / total;
    shares.other = other / total;
  }
  return shares;
}

std::vector<std::uint64_t> reference_series_sums(const query::DataSource& src,
                                                 const ApClassification& cls,
                                                 LocationFilter filter,
                                                 bool rx) {
  return src.reduce<std::vector<std::uint64_t>>(
      [&](const Dataset& block, std::size_t) {
        return location_hour_sums(block, cls, filter, rx);
      },
      [](std::vector<std::uint64_t>& acc, std::vector<std::uint64_t>&& p) {
        add_hour_sums(acc, p);
      });
}

WifiLocationShares reference_shares(const query::DataSource& src,
                                    const ApClassification& cls) {
  using Sums = std::array<std::uint64_t, 4>;
  return wifi_location_shares_from_sums(src.reduce<Sums>(
      [&](const Dataset& block, std::size_t) {
        return wifi_location_sums(block, cls);
      },
      [](Sums& acc, Sums&& p) {
        for (std::size_t b = 0; b < 4; ++b) acc[b] += p[b];
      }));
}

// --- Backends -------------------------------------------------------------

/// Calls fn(source, label) on the in-memory source of one small 2015
/// campaign, on a copy of it with every seventh row dropped (not dense,
/// so the kernels' per-sample paths run), and on the sharded source of
/// the campaign streamed into 1, 4 and 16 shards.
template <typename Fn>
void for_each_backend(const Fn& fn) {
  const ScenarioConfig config = scenario_config(Year::Y2015, kListTestScale);
  const Dataset ds = sim::Simulator(config).run();
  ASSERT_TRUE(ds.index().dense());
  fn(query::InMemorySource(ds), std::string("in-memory"));

  Dataset sparse = ds;
  const std::vector<test::Row> all = test::rows_of(ds);
  std::vector<test::Row> rows;
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (i % 7 == 3) continue;
    rows.push_back(all[i]);
    rows.back().app_count = 0;
  }
  sparse.app_traffic = AppColumns{};
  test::set_rows(sparse, rows);
  ASSERT_FALSE(sparse.index().dense());
  fn(query::InMemorySource(sparse), std::string("in-memory, not dense"));

  test::ScratchDir tmp;
  for (const std::size_t shards : {1, 4, 16}) {
    const fs::path dir = tmp.path / ("store" + std::to_string(shards));
    sim::StreamCampaignOptions opts;
    opts.shards = shards;
    ASSERT_TRUE(sim::stream_campaign(config, dir, opts).ok());
    io::ShardedDataset store;
    ASSERT_TRUE(io::ShardedDataset::open(dir, store).ok());
    ASSERT_EQ(store.num_shards(), shards);
    fn(query::ShardedSource(store), std::to_string(shards) + " shards");
  }
}

/// The campaign's user-days with global device ids, as the analysis
/// context builds them.
std::vector<UserDay> days_of(const query::DataSource& src) {
  return src.concat<UserDay>([](const Dataset& block, std::size_t base) {
    std::vector<UserDay> days = user_days(block);
    for (UserDay& d : days) {
      d.device = DeviceId{static_cast<std::uint32_t>(base + value(d.device))};
    }
    return days;
  });
}

// --- Tests ------------------------------------------------------------------

TEST(ParameterLists, ClassifierListEqualsOneCallPerClassifier) {
  for_each_backend([](const query::DataSource& src, const std::string& label) {
    const std::vector<UserDay> days = days_of(src);
    std::vector<UserClassifier> classes;
    classes.emplace_back(days);
    classes.emplace_back(days, 30, 70, 95);
    classes.emplace_back(days, 45, 55, 99);
    classes.emplace_back(days, 40, 60, 90);
    const std::vector<WifiRatios> list =
        compute_wifi_ratios(src, days, classes);
    ASSERT_EQ(list.size(), classes.size()) << label;
    for (std::size_t k = 0; k < classes.size(); ++k) {
      EXPECT_TRUE(list[k] == compute_wifi_ratios(src, days, classes[k]))
          << label << ", classifier " << k;
    }
    EXPECT_FALSE(list[1].traffic_heavy == list[2].traffic_heavy) << label;
    const std::span<const UserClassifier> none;
    EXPECT_TRUE(compute_wifi_ratios(src, days, none).empty()) << label;
  });
}

TEST(ParameterLists, LocationBucketsEqualPerFilterScans) {
  for_each_backend([](const query::DataSource& src, const std::string& label) {
    const ApClassification cls = classify_aps(src);
    const WifiLocationHours hours = wifi_location_hours(src, cls);
    constexpr LocationFilter kFilters[] = {{ApClass::Home, false},
                                           {ApClass::Public, false},
                                           {ApClass::Other, false},
                                           {ApClass::Other, true}};
    for (const LocationFilter f : kFilters) {
      for (const bool rx : {true, false}) {
        const std::vector<std::uint64_t> expected =
            reference_series_sums(src, cls, f, rx);
        EXPECT_EQ(hours.series(f, rx).mbps,
                  hourly_series_from_sums(expected).mbps)
            << label << ", class " << static_cast<int>(f.ap_class)
            << (f.office_only ? " office" : "") << (rx ? " rx" : " tx");
      }
    }
    // Every bucket carries traffic, so no comparison above is vacuous.
    for (std::size_t b = 0; b < WifiLocationHours::kNumBuckets; ++b) {
      std::uint64_t sum = 0;
      for (const std::uint64_t v : hours.rx_sums[b]) sum += v;
      EXPECT_GT(sum, 0u) << label << ", bucket " << b;
    }
    const WifiLocationShares expected = reference_shares(src, cls);
    for (const WifiLocationShares& s :
         {hours.shares(), wifi_location_shares(src, cls)}) {
      EXPECT_EQ(s.home, expected.home) << label;
      EXPECT_EQ(s.publik, expected.publik) << label;
      EXPECT_EQ(s.office, expected.office) << label;
      EXPECT_EQ(s.other, expected.other) << label;
    }
  });
}

TEST(ParameterLists, TwoClassDensityEqualsOneClassScans) {
  const int cells = geo::TokyoRegion().grid().num_cells();
  for_each_backend([cells](const query::DataSource& src,
                           const std::string& label) {
    const ApClassification cls = classify_aps(src);
    constexpr ApClass kClasses[] = {ApClass::Home, ApClass::Public};
    const std::vector<ApDensityMap> maps =
        query::run_alone(src, [&](query::Sweep& sweep) {
          return ap_density_maps(sweep, cls, kClasses, cells);
        });
    ASSERT_EQ(maps.size(), 2u) << label;
    for (std::size_t k = 0; k < 2; ++k) {
      const ApDensityMap one =
          test::density_maps(src, cls, {kClasses[k]}, cells).front();
      EXPECT_EQ(maps[k].count_by_cell, one.count_by_cell) << label;
      EXPECT_EQ(maps[k].cells_with_ap, one.cells_with_ap) << label;
      EXPECT_EQ(maps[k].cells_with_100, one.cells_with_100) << label;
      EXPECT_EQ(maps[k].max_count, one.max_count) << label;
      EXPECT_GT(one.cells_with_ap, 0) << label;
    }
  });
}

TEST(ParameterLists, OpportunityOptionListEqualsOneCallPerOption) {
  for_each_backend([](const query::DataSource& src, const std::string& label) {
    std::vector<OpportunityOptions> opts(5);
    opts[1].stable_bin_share = 0.05;
    opts[2].stable_bin_share = 0.50;
    opts[3].available_state_share = 0.05;
    opts[4].available_state_share = 0.40;
    const std::vector<OffloadOpportunity> list =
        offload_opportunity(src, opts);
    ASSERT_EQ(list.size(), opts.size()) << label;
    for (std::size_t k = 0; k < opts.size(); ++k) {
      const OffloadOpportunity one = offload_opportunity(src, opts[k]);
      EXPECT_EQ(list[k].users_with_stable_opportunity,
                one.users_with_stable_opportunity)
          << label << ", option " << k;
      EXPECT_EQ(list[k].offloadable_cell_share, one.offloadable_cell_share)
          << label << ", option " << k;
      EXPECT_EQ(list[k].num_wifi_available_users, one.num_wifi_available_users)
          << label << ", option " << k;
    }
    EXPECT_GT(list[0].num_wifi_available_users, 0) << label;
  });
}

}  // namespace
}  // namespace tokyonet::analysis
