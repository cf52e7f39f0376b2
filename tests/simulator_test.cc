#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "core/dataset_index.h"
#include "core/hash.h"
#include "core/parallel.h"
#include "core/scenario.h"
#include "report/golden.h"
#include "testutil.h"

namespace tokyonet::sim {
namespace {

using test::campaign;

TEST(Simulator, DeterministicAcrossThreadCounts) {
  // The tentpole guarantee: simulating with the thread pool produces a
  // dataset byte-identical to the serial run, for every campaign year.
  for (const Year year : {Year::Y2013, Year::Y2014, Year::Y2015}) {
    core::set_thread_count(1);
    const Dataset serial = simulate_year(year, 0.05);
    core::set_thread_count(4);
    const Dataset parallel = simulate_year(year, 0.05);
    core::set_thread_count(0);

    ASSERT_TRUE(test::same_records(serial, parallel))
        << "samples or app records differ (year " << static_cast<int>(year)
        << ")";

    ASSERT_EQ(serial.truth.devices.size(), parallel.truth.devices.size());
    for (std::size_t i = 0; i < serial.truth.devices.size(); ++i) {
      ASSERT_EQ(serial.truth.devices[i].update_bin,
                parallel.truth.devices[i].update_bin);
      ASSERT_EQ(serial.truth.devices[i].capped_day,
                parallel.truth.devices[i].capped_day);
    }

    ASSERT_EQ(serial.survey.size(), parallel.survey.size());
    for (std::size_t i = 0; i < serial.survey.size(); ++i) {
      ASSERT_EQ(serial.survey[i].occupation, parallel.survey[i].occupation);
      for (int loc = 0; loc < kNumSurveyLocations; ++loc) {
        ASSERT_EQ(serial.survey[i].connected[loc],
                  parallel.survey[i].connected[loc]);
        ASSERT_EQ(serial.survey[i].reasons[loc],
                  parallel.survey[i].reasons[loc]);
      }
    }
  }
}

/// Appends the raw bytes of every sample and app-record column of `ds`
/// to `out`, one string per column.
void append_columns(const Dataset& ds, std::vector<std::string>& out) {
  std::size_t k = 0;
  const auto add = [&](const auto& c) {
    if (out.size() <= k) out.emplace_back();
    if (!c.empty()) {
      out[k].append(reinterpret_cast<const char*>(c.data()),
                    c.size() * sizeof(*c.data()));
    }
    ++k;
  };
  SampleColumns::for_each(add, ds.samples);
  AppColumns::for_each(add, ds.app_traffic);
}

TEST(Simulator, DeterministicAcrossDevicePartitionings) {
  // Counter-based draws key on (device, day, bin), not on how many draws
  // some earlier device consumed — so the blocks of any partition of the
  // panel, uneven and empty blocks included, concatenate to run()'s
  // campaign byte for byte.
  const Simulator sim(scenario_config(Year::Y2015, 0.05));
  const Dataset whole = sim.run();
  const std::size_t n = sim.num_devices();
  ASSERT_EQ(n, whole.devices.size());
  ASSERT_GT(n, 20u);
  std::vector<std::string> expected;
  append_columns(whole, expected);

  std::vector<std::size_t> singles(n + 1);
  for (std::size_t i = 0; i <= n; ++i) singles[i] = i;
  for (const std::vector<std::size_t>& cuts :
       {std::vector<std::size_t>{0, n}, {0, 1, 17, n - 3, n},
        {0, 5, 5, n / 2, n}, singles}) {
    SCOPED_TRACE(::testing::Message() << cuts.size() - 1 << " blocks");
    std::vector<std::string> joined;
    for (std::size_t b = 0; b + 1 < cuts.size(); ++b) {
      const Dataset block = sim.run_block(cuts[b], cuts[b + 1]);
      ASSERT_EQ(block.devices.size(), cuts[b + 1] - cuts[b]);
      EXPECT_TRUE(block.aps.empty());
      append_columns(block, joined);
      for (std::size_t li = 0; li < block.devices.size(); ++li) {
        const std::size_t d = cuts[b] + li;
        EXPECT_EQ(value(block.devices[li].id), li);
        EXPECT_EQ(block.devices[li].os, whole.devices[d].os);
        EXPECT_EQ(block.devices[li].carrier, whole.devices[d].carrier);
        EXPECT_EQ(block.index().device_app_end(li) -
                      block.index().device_app_begin(li),
                  whole.index().device_app_end(d) -
                      whole.index().device_app_begin(d));
        EXPECT_EQ(block.truth.devices[li].update_bin,
                  whole.truth.devices[d].update_bin);
        EXPECT_EQ(block.truth.devices[li].capped_day,
                  whole.truth.devices[d].capped_day);
        EXPECT_EQ(block.survey[li].occupation, whole.survey[d].occupation);
      }
    }
    ASSERT_EQ(joined.size(), expected.size());
    for (std::size_t k = 0; k < expected.size(); ++k) {
      EXPECT_TRUE(joined[k] == expected[k]) << "column " << k;
    }
  }
}

TEST(Simulator, CampaignContentDigestPinned) {
  // What the golden campaigns hold, independent of how records are laid
  // out: each of the 17 sample columns' bytes, then every app record as
  // (category u8, rx u32, tx u32), chained over 2013-15 at the golden
  // scale. The values pin the campaigns' content, so a change of record
  // layout must not move them; a change of draws must.
  const std::uint64_t pinned[] = {0x67666ca6feaebd70ull, 0x09df41c956d33148ull,
                                  0xd2adf2c24198ec86ull};
  std::uint64_t h = 0;
  for (const Year year : kAllYears) {
    const Dataset ds =
        Simulator(scenario_config(year, report::kGoldenScale)).run();
    SampleColumns::for_each(
        [&](const auto& c) {
          h = core::hash_bytes(c.data(), c.span().size_bytes(), h);
        },
        ds.samples);
    const AppColumns& apps = ds.app_traffic;
    std::vector<std::uint8_t> records(9 * apps.size());
    for (std::size_t i = 0; i < apps.size(); ++i) {
      records[9 * i] = static_cast<std::uint8_t>(apps.category[i]);
      std::memcpy(&records[9 * i + 1], &apps.rx_bytes[i], 4);
      std::memcpy(&records[9 * i + 5], &apps.tx_bytes[i], 4);
    }
    h = core::hash_bytes(records.data(), records.size(), h);
    EXPECT_EQ(h, pinned[static_cast<int>(year)]) << year_number(year);
  }
}

TEST(Simulator, EmitsDenseIndexedCampaign) {
  // One sample per (device, bin) with in-order bins: the index's dense
  // flag must hold, since the columnar kernels take their fixed-stride
  // fast paths from it.
  const Dataset& ds = campaign(Year::Y2015);
  ASSERT_TRUE(ds.indexed());
  EXPECT_TRUE(ds.index().dense());
}

TEST(Simulator, DeterministicAcrossRuns) {
  const Dataset a = simulate_year(Year::Y2014, 0.05);
  const Dataset b = simulate_year(Year::Y2014, 0.05);
  ASSERT_EQ(a.samples.size(), b.samples.size());
  ASSERT_EQ(a.aps.size(), b.aps.size());
  for (std::size_t i = 0; i < a.samples.size(); i += 97) {
    EXPECT_EQ(a.samples.cell_rx[i], b.samples.cell_rx[i]);
    EXPECT_EQ(a.samples.wifi_rx[i], b.samples.wifi_rx[i]);
    EXPECT_EQ(a.samples.ap[i], b.samples.ap[i]);
    EXPECT_EQ(a.samples.wifi_state[i], b.samples.wifi_state[i]);
  }
}

TEST(Simulator, SamplesSortedAndComplete) {
  const Dataset& ds = campaign(Year::Y2015);
  ASSERT_TRUE(ds.indexed());
  // Every device emits exactly one sample per bin.
  EXPECT_EQ(ds.samples.size(),
            ds.devices.size() * static_cast<std::size_t>(ds.calendar.num_bins()));
  const std::vector<test::Row> rows = test::rows_of(ds);
  for (std::size_t i = 1; i < rows.size(); ++i) {
    const test::Row& p = rows[i - 1];
    const test::Row& s = rows[i];
    ASSERT_TRUE(value(p.device) < value(s.device) ||
                (p.device == s.device && p.bin < s.bin));
  }
}

TEST(Simulator, TruthArraysParallel) {
  const Dataset& ds = campaign(Year::Y2015);
  EXPECT_EQ(ds.truth.devices.size(), ds.devices.size());
  EXPECT_EQ(ds.truth.aps.size(), ds.aps.size());
  EXPECT_EQ(ds.survey.size(), ds.devices.size());
  for (const DeviceTruth& t : ds.truth.devices) {
    EXPECT_EQ(t.capped_day.size(),
              static_cast<std::size_t>(ds.num_days()));
  }
}

TEST(Simulator, OneInterfacePerBin) {
  // The simulator routes each bin's traffic over exactly one interface.
  const Dataset& ds = campaign(Year::Y2015);
  for (const test::Row& s : test::rows_of(ds)) {
    const bool cell = s.cell_rx > 0 || s.cell_tx > 0;
    const bool wifi = s.wifi_rx > 0 || s.wifi_tx > 0;
    EXPECT_FALSE(cell && wifi);
    if (wifi) {
      EXPECT_EQ(s.wifi_state, WifiState::Associated);
      EXPECT_NE(s.ap, kNoAp);
    }
    if (cell) {
      EXPECT_NE(s.tech, CellTech::None);
    }
  }
}

TEST(Simulator, AppTrafficConservation) {
  // For Android samples, per-app RX sums to the interface counter.
  const Dataset& ds = campaign(Year::Y2015);
  std::size_t checked = 0;
  const SampleColumns& c = ds.samples;
  const core::DatasetIndex& idx = ds.index();
  for (std::size_t d = 0; d < ds.devices.size(); ++d) {
    std::size_t app = idx.device_app_begin(d);
    for (std::size_t i = idx.device_begin(d); i < idx.device_end(d); ++i) {
      const std::size_t first = app;
      app += c.app_count[i];
      if (ds.devices[d].os != Os::Android || c.app_count[i] == 0) continue;
      std::uint64_t rx = 0, tx = 0;
      for (std::size_t a = first; a < app; ++a) {
        rx += ds.app_traffic[a].rx_bytes;
        tx += ds.app_traffic[a].tx_bytes;
      }
      const std::uint64_t iface_rx = std::uint64_t{c.cell_rx[i]} + c.wifi_rx[i];
      const std::uint64_t iface_tx = std::uint64_t{c.cell_tx[i]} + c.wifi_tx[i];
      ASSERT_NEAR(static_cast<double>(rx), static_cast<double>(iface_rx), 8.0);
      ASSERT_NEAR(static_cast<double>(tx), static_cast<double>(iface_tx), 8.0);
      ++checked;
    }
  }
  EXPECT_GT(checked, 1000u);
}

TEST(Simulator, IosReportsNoAppBreakdown) {
  const Dataset& ds = campaign(Year::Y2015);
  for (const test::Row& s : test::rows_of(ds)) {
    if (ds.devices[value(s.device)].os == Os::Ios) {
      ASSERT_EQ(s.app_count, 0);
    }
  }
}

TEST(Simulator, IosReportsNoScans) {
  const Dataset& ds = campaign(Year::Y2015);
  for (const test::Row& s : test::rows_of(ds)) {
    if (ds.devices[value(s.device)].os == Os::Ios) {
      ASSERT_EQ(s.scan_pub24_all, 0);
      ASSERT_EQ(s.scan_pub5_all, 0);
    }
  }
}

TEST(Simulator, ScanStrongSubsetOfAll) {
  const Dataset& ds = campaign(Year::Y2015);
  for (const test::Row& s : test::rows_of(ds)) {
    ASSERT_LE(s.scan_pub24_strong, s.scan_pub24_all);
    ASSERT_LE(s.scan_pub5_strong, s.scan_pub5_all);
  }
}

TEST(Simulator, AssociatedSamplesHaveRssi) {
  const Dataset& ds = campaign(Year::Y2015);
  for (const test::Row& s : test::rows_of(ds)) {
    if (s.wifi_state == WifiState::Associated) {
      ASSERT_NE(s.ap, kNoAp);
      ASSERT_LT(value(s.ap), ds.aps.size());
      ASSERT_GE(s.rssi_dbm, -95);
      ASSERT_LE(s.rssi_dbm, -25);
    }
  }
}

TEST(Simulator, UpdatesOnlyOnIosAndOnlyIn2015) {
  const Dataset& ds15 = campaign(Year::Y2015);
  int updated = 0;
  for (std::size_t i = 0; i < ds15.devices.size(); ++i) {
    if (ds15.truth.devices[i].update_bin >= 0) {
      ++updated;
      EXPECT_EQ(ds15.devices[i].os, Os::Ios);
      // Updates begin after the March 10th release (day 10).
      EXPECT_GE(ds15.calendar.day_of(static_cast<TimeBin>(
                    ds15.truth.devices[i].update_bin)),
                10);
    }
  }
  EXPECT_GT(updated, 20);

  const Dataset& ds13 = campaign(Year::Y2013);
  for (const DeviceTruth& t : ds13.truth.devices) {
    EXPECT_EQ(t.update_bin, -1);
  }
}

TEST(Simulator, UpdatedDevicesCarryTheImageVolume) {
  const Dataset& ds = campaign(Year::Y2015);
  const double size_mb = scenario_config(Year::Y2015).update.size_mb;
  std::vector<double> volumes;
  for (std::size_t i = 0; i < ds.devices.size(); ++i) {
    const std::int32_t ub = ds.truth.devices[i].update_bin;
    if (ub < 0) continue;
    // WiFi RX from the update start to the end of the campaign. Devices
    // that started on a short public-WiFi session may finish the image
    // over later sessions (or not at all within the campaign).
    double mb = 0;
    for (const test::Row& s : test::device_rows(ds, i)) {
      if (s.bin >= ub) mb += s.wifi_rx / 1e6;
    }
    EXPECT_GT(mb, 100.0);  // at least a substantial chunk streamed
    volumes.push_back(mb);
  }
  ASSERT_FALSE(volumes.empty());
  // The typical updated device carries (at least) the full image.
  std::nth_element(volumes.begin(), volumes.begin() + volumes.size() / 2,
                   volumes.end());
  EXPECT_GT(volumes[volumes.size() / 2], size_mb * 0.9);
}

TEST(Simulator, CappedDayTruthConsistentWithTraffic) {
  const Dataset& ds = campaign(Year::Y2015);
  const double threshold = scenario_config(Year::Y2015).cap.threshold_mb;
  // Recompute per-device daily cellular downloads and check the recorded
  // capped days match the 3-day-window rule.
  for (const DeviceInfo& dev : ds.devices) {
    std::vector<double> daily(static_cast<std::size_t>(ds.num_days()), 0.0);
    for (const test::Row& s : test::device_rows(ds, value(dev.id))) {
      daily[static_cast<std::size_t>(ds.calendar.day_of(s.bin))] +=
          s.cell_rx / 1e6;
    }
    const auto& truth = ds.truth.devices[value(dev.id)];
    for (int d = 0; d < ds.num_days(); ++d) {
      double window = 0;
      for (int k = d - 3; k < d; ++k) {
        if (k >= 0) window += daily[static_cast<std::size_t>(k)];
      }
      ASSERT_EQ(truth.capped_day[static_cast<std::size_t>(d)] != 0,
                window > threshold);
    }
  }
}

TEST(Simulator, HomeAssociationsUseTheHomeAp) {
  const Dataset& ds = campaign(Year::Y2015);
  for (const DeviceInfo& dev : ds.devices) {
    const DeviceTruth& t = ds.truth.devices[value(dev.id)];
    if (!t.has_home_ap) continue;
    // Samples associated during deep night at the home cell must use the
    // user's own home AP.
    for (const test::Row& s : test::device_rows(ds, value(dev.id))) {
      if (s.wifi_state != WifiState::Associated) continue;
      if (ds.calendar.hour_of(s.bin) != 3) continue;
      EXPECT_EQ(s.ap, t.home_ap);
    }
  }
}

TEST(Simulator, ScaleControlsPopulation) {
  const Dataset small = simulate_year(Year::Y2013, 0.03);
  EXPECT_LT(small.devices.size(), 80u);
  EXPECT_GT(small.devices.size(), 40u);
}

}  // namespace
}  // namespace tokyonet::sim
