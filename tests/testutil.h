// Shared test fixtures: cached small-scale campaign datasets (simulating
// a campaign is deterministic but not free, so tests share one instance
// per year), helpers for building tiny synthetic datasets by hand, and
// per-test scratch directories.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "analysis/classify.h"
#include "analysis/quality.h"
#include "analysis/query/source.h"
#include "core/dataset_index.h"
#include "core/records.h"
#include "core/scenario.h"
#include "sim/simulator.h"

namespace tokyonet::test {

/// Scale used for the shared campaign fixtures (about 200 devices).
inline constexpr double kTestScale = 0.12;

/// Lazily simulated, cached campaign for `year` at kTestScale.
inline const Dataset& campaign(Year year) {
  static const Dataset* cache[kNumYears] = {};
  const int i = static_cast<int>(year);
  if (cache[i] == nullptr) {
    cache[i] = new Dataset(sim::simulate_year(year, kTestScale));
  }
  return *cache[i];
}

/// The shared campaign as a query source, the form every analysis
/// kernel takes.
inline const analysis::query::InMemorySource& campaign_source(Year year) {
  static const analysis::query::InMemorySource* cache[kNumYears] = {};
  const int i = static_cast<int>(year);
  if (cache[i] == nullptr) {
    cache[i] = new analysis::query::InMemorySource(campaign(year));
  }
  return *cache[i];
}

/// Fig 10's density maps of the classes in `which`, from one pass over
/// `src`.
inline std::vector<analysis::ApDensityMap> density_maps(
    const analysis::query::DataSource& src,
    const analysis::ApClassification& cls, std::initializer_list<ApClass> which,
    int num_cells) {
  return analysis::query::run_alone(src, [&](analysis::query::Sweep& sweep) {
    return analysis::ap_density_maps(
        sweep, cls, {which.begin(), which.size()}, num_cells);
  });
}

/// Cached AP classification for the shared campaign.
inline const analysis::ApClassification& campaign_classification(Year year) {
  static const analysis::ApClassification* cache[kNumYears] = {};
  const int i = static_cast<int>(year);
  if (cache[i] == nullptr) {
    cache[i] = new analysis::ApClassification(
        analysis::classify_aps(campaign_source(year)));
  }
  return *cache[i];
}

/// A fresh directory for the running test, removed on destruction. The
/// name carries the process id, the suite and the test: ctest runs some
/// gtest cases in several processes at once (gtest_discover_tests plus
/// the *_threads{1,4} entries), so a name keyed by the test alone would
/// be written and deleted by concurrent runs.
struct ScratchDir {
  std::filesystem::path path;

  ScratchDir() {
    const ::testing::TestInfo* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    std::string name = "tokyonet_" + std::to_string(::getpid()) + "_" +
                       info->test_suite_name() + "_" + info->name();
    std::replace(name.begin(), name.end(), '/', '_');
    path = std::filesystem::temp_directory_path() / name;
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
};

/// A minimal hand-built dataset: `num_devices` devices, `num_days` days,
/// no samples (callers build rows with add_sample(), then set_rows()).
inline Dataset empty_dataset(int num_devices, int num_days,
                             Year year = Year::Y2015) {
  Dataset ds;
  ds.year = year;
  ds.calendar = CampaignCalendar(Date{2015, 2, 28}, num_days);
  for (int i = 0; i < num_devices; ++i) {
    DeviceInfo d;
    d.id = DeviceId{static_cast<std::uint32_t>(i)};
    d.os = i % 2 == 0 ? Os::Android : Os::Ios;
    ds.devices.push_back(d);
  }
  ds.truth.devices.resize(static_cast<std::size_t>(num_devices));
  ds.survey.resize(static_cast<std::size_t>(num_devices));
  return ds;
}

/// One row of a hand-built dataset: its device and the fields of one
/// SampleColumns row (tethering stands for the flag bit).
struct Row {
  DeviceId device{};
  TimeBin bin = 0;
  GeoCell geo_cell = kNoGeoCell;
  std::uint32_t cell_rx = 0, cell_tx = 0, wifi_rx = 0, wifi_tx = 0;
  ApId ap = kNoAp;
  std::uint8_t app_count = 0;
  CellTech tech = CellTech::None;
  WifiState wifi_state = WifiState::Off;
  std::int8_t rssi_dbm = -127;
  std::uint8_t battery_pct = 100;
  bool tethering = false;
  std::uint8_t scan_pub24_all = 0, scan_pub24_strong = 0;
  std::uint8_t scan_pub5_all = 0, scan_pub5_strong = 0;

  bool operator==(const Row&) const = default;
};

/// Appends one row with the given volumes (bytes) to `rows`. Rows must
/// be appended in (device, bin) order.
inline Row& add_sample(std::vector<Row>& rows, std::uint32_t device,
                       TimeBin bin, std::uint32_t cell_rx = 0,
                       std::uint32_t wifi_rx = 0,
                       WifiState state = WifiState::Off, ApId ap = kNoAp) {
  Row r;
  r.device = DeviceId{device};
  r.bin = bin;
  r.cell_rx = cell_rx;
  r.wifi_rx = wifi_rx;
  r.wifi_state = state;
  r.ap = ap;
  if (cell_rx > 0) r.tech = CellTech::Lte;
  rows.push_back(r);
  return rows.back();
}

/// Replaces `ds`'s samples with `rows` and indexes them; returns the
/// first problem. Each device's app records are the next app_count
/// records of ds.app_traffic per row, in row order.
[[nodiscard]] inline std::string index_rows(Dataset& ds,
                                            const std::vector<Row>& rows) {
  const std::size_t n_devices = ds.devices.size();
  core::SampleLayout layout;
  layout.device_offset.assign(n_devices + 1, rows.size());
  layout.app_range.assign(2 * n_devices, 0);
  SampleColumns& c = ds.samples;
  c = SampleColumns{};
  std::size_t next = 0, app = 0;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    const std::size_t d = value(r.device);
    if (d >= n_devices || d + 1 < next) {
      return "row " + std::to_string(i) + " out of device order";
    }
    for (; next <= d; ++next) {
      layout.device_offset[next] = i;
      layout.app_range[2 * next] = layout.app_range[2 * next + 1] = app;
    }
    app += r.app_count;
    layout.app_range[2 * d + 1] = app;
    c.bin.push_back(r.bin);
    c.cell_rx.push_back(r.cell_rx);
    c.cell_tx.push_back(r.cell_tx);
    c.wifi_rx.push_back(r.wifi_rx);
    c.wifi_tx.push_back(r.wifi_tx);
    c.ap.push_back(value(r.ap));
    c.wifi_state.push_back(r.wifi_state);
    c.tech.push_back(r.tech);
    c.battery_pct.push_back(r.battery_pct);
    c.rssi_dbm.push_back(r.rssi_dbm);
    c.geo_cell.push_back(r.geo_cell);
    c.app_count.push_back(r.app_count);
    c.flags.push_back(r.tethering ? SampleColumns::kFlagTethering : 0);
    c.scan_pub24_all.push_back(r.scan_pub24_all);
    c.scan_pub24_strong.push_back(r.scan_pub24_strong);
    c.scan_pub5_all.push_back(r.scan_pub5_all);
    c.scan_pub5_strong.push_back(r.scan_pub5_strong);
  }
  for (; next < n_devices; ++next) {
    layout.app_range[2 * next] = layout.app_range[2 * next + 1] = app;
  }
  return ds.index_samples(std::move(layout));
}

/// index_rows(), failing the test if the rows are rejected.
inline void set_rows(Dataset& ds, const std::vector<Row>& rows) {
  ASSERT_EQ(index_rows(ds, rows), "");
}

/// Device `d`'s samples as rows, in time order.
inline std::vector<Row> device_rows(const Dataset& ds, std::size_t d) {
  const core::DatasetIndex& idx = ds.index();
  const SampleColumns& c = ds.samples;
  std::vector<Row> out;
  for (std::size_t i = idx.device_begin(d); i < idx.device_end(d); ++i) {
    Row r;
    r.device = DeviceId{static_cast<std::uint32_t>(d)};
    r.bin = c.bin[i];
    r.geo_cell = c.geo_cell[i];
    r.cell_rx = c.cell_rx[i];
    r.cell_tx = c.cell_tx[i];
    r.wifi_rx = c.wifi_rx[i];
    r.wifi_tx = c.wifi_tx[i];
    r.ap = ApId{c.ap[i]};
    r.app_count = c.app_count[i];
    r.tech = c.tech[i];
    r.wifi_state = c.wifi_state[i];
    r.rssi_dbm = c.rssi_dbm[i];
    r.battery_pct = c.battery_pct[i];
    r.tethering = (c.flags[i] & SampleColumns::kFlagTethering) != 0;
    r.scan_pub24_all = c.scan_pub24_all[i];
    r.scan_pub24_strong = c.scan_pub24_strong[i];
    r.scan_pub5_all = c.scan_pub5_all[i];
    r.scan_pub5_strong = c.scan_pub5_strong[i];
    out.push_back(r);
  }
  return out;
}

/// Every sample of `ds` as rows, in (device, bin) order.
inline std::vector<Row> rows_of(const Dataset& ds) {
  std::vector<Row> out;
  for (std::size_t d = 0; d < ds.devices.size(); ++d) {
    const std::vector<Row> rows = device_rows(ds, d);
    out.insert(out.end(), rows.begin(), rows.end());
  }
  return out;
}

/// True when the two datasets hold the same samples — columns and
/// per-device layout — and the same app records, byte for byte.
inline bool same_records(const Dataset& a, const Dataset& b) {
  const auto same = [](const auto& u, const auto& v) {
    return u.size() == v.size() &&
           (u.empty() || std::memcmp(u.data(), v.data(), u.size_bytes()) == 0);
  };
  bool equal = true;
  SampleColumns::for_each(
      [&](const auto& x, const auto& y) {
        equal = equal && same(x.span(), y.span());
      },
      a.samples, b.samples);
  // An empty app range has no position worth comparing: producers
  // differ in where they put one.
  const core::SampleLayout& la = a.index().layout();
  const core::SampleLayout& lb = b.index().layout();
  equal = equal && la.device_offset == lb.device_offset &&
          la.app_range.size() == lb.app_range.size();
  for (std::size_t i = 0; equal && i < la.app_range.size(); i += 2) {
    const std::size_t n = la.app_range[i + 1] - la.app_range[i];
    equal = n == lb.app_range[i + 1] - lb.app_range[i] &&
            (n == 0 || la.app_range[i] == lb.app_range[i]);
  }
  AppColumns::for_each(
      [&](const auto& x, const auto& y) {
        equal = equal && same(x.span(), y.span());
      },
      a.app_traffic, b.app_traffic);
  return equal;
}

/// Adds an AP with the given ESSID and returns its id.
inline ApId add_ap(Dataset& ds, std::string essid, Band band = Band::B24GHz,
                   std::uint8_t channel = 6) {
  ApInfo info;
  info.bssid = 0x1000 + ds.aps.size();
  info.essid = std::move(essid);
  info.band = band;
  info.channel = channel;
  ds.aps.mut().push_back(std::move(info));
  ds.truth.aps.mut().push_back(ApTruth{});
  return ApId{static_cast<std::uint32_t>(ds.aps.size() - 1)};
}

}  // namespace tokyonet::test
