// Shared test fixtures: cached small-scale campaign datasets (simulating
// a campaign is deterministic but not free, so tests share one instance
// per year), helpers for building tiny synthetic datasets by hand, and
// per-test scratch directories.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <string>

#include "analysis/classify.h"
#include "analysis/query/source.h"
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

/// Cached AP classification for the shared campaign.
inline const analysis::ApClassification& campaign_classification(Year year) {
  static const analysis::ApClassification* cache[kNumYears] = {};
  const int i = static_cast<int>(year);
  if (cache[i] == nullptr) {
    cache[i] = new analysis::ApClassification(
        analysis::classify_aps(campaign(year)));
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
/// no samples (callers append samples then call build_index()).
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

/// Appends one sample with the given volumes (bytes) to `ds`.
/// Samples must be appended in (device, bin) order.
inline Sample& add_sample(Dataset& ds, std::uint32_t device, TimeBin bin,
                          std::uint32_t cell_rx = 0, std::uint32_t wifi_rx = 0,
                          WifiState state = WifiState::Off,
                          ApId ap = kNoAp) {
  Sample s;
  s.device = DeviceId{device};
  s.bin = bin;
  s.cell_rx = cell_rx;
  s.wifi_rx = wifi_rx;
  s.wifi_state = state;
  s.ap = ap;
  if (cell_rx > 0) s.tech = CellTech::Lte;
  ds.samples.push_back(s);
  return ds.samples.back();
}

/// Adds an AP with the given ESSID and returns its id.
inline ApId add_ap(Dataset& ds, std::string essid, Band band = Band::B24GHz,
                   std::uint8_t channel = 6) {
  ApInfo info;
  info.bssid = 0x1000 + ds.aps.size();
  info.essid = std::move(essid);
  info.band = band;
  info.channel = channel;
  ds.aps.push_back(std::move(info));
  ds.truth.aps.push_back(ApTruth{});
  return ApId{static_cast<std::uint32_t>(ds.aps.size() - 1)};
}

}  // namespace tokyonet::test
