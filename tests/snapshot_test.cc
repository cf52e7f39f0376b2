// Binary campaign snapshots (io/snapshot.h): bit-exact round trips for
// full simulated campaigns, rejection of corrupted files, and the
// TOKYONET_CACHE_DIR campaign cache.
#include "io/snapshot.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <tuple>
#include <vector>

#include "analysis/classify.h"
#include "analysis/common.h"
#include "analysis/ratios.h"
#include "analysis/usertype.h"
#include "core/records.h"
#include "core/scenario.h"
#include "sim/simulator.h"
#include "testutil.h"

namespace tokyonet {
namespace {

namespace fs = std::filesystem;

template <typename T>
void expect_bytes_equal(std::span<const T> a, std::span<const T> b,
                        const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  if (!a.empty()) {
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size_bytes()), 0) << what;
  }
}

// Field tuples for value (not byte) comparison: two independently
// simulated datasets agree on every field but not on struct padding,
// so memcmp is only valid for save→load round trips.
auto fields(const DeviceInfo& d) {
  return std::tuple(d.id, d.os, d.carrier, d.recruited);
}
auto fields(const SurveyResponse& s) {
  return std::tuple(s.occupation, s.connected[0], s.connected[1],
                    s.connected[2], s.reasons[0], s.reasons[1],
                    s.reasons[2]);
}
auto fields(const ApTruth& t) { return std::tuple(t.placement, t.cell); }

template <typename T>
void expect_elements_equal(std::span<const T> a, std::span<const T> b,
                           const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (fields(a[i]) != fields(b[i])) {
      ADD_FAILURE() << what << " differs at element " << i;
      return;
    }
  }
}

void expect_datasets_equal(const Dataset& a, const Dataset& b) {
  EXPECT_EQ(a.year, b.year);
  EXPECT_EQ(a.calendar.start_date(), b.calendar.start_date());
  EXPECT_EQ(a.num_days(), b.num_days());

  expect_elements_equal(std::span<const DeviceInfo>(a.devices),
                        std::span<const DeviceInfo>(b.devices), "devices");
  EXPECT_TRUE(test::same_records(a, b)) << "samples or app records";
  expect_elements_equal(std::span<const SurveyResponse>(a.survey),
                        std::span<const SurveyResponse>(b.survey),
                        "survey");
  expect_elements_equal(std::span<const ApTruth>(a.truth.aps),
                        std::span<const ApTruth>(b.truth.aps), "truth.aps");

  ASSERT_EQ(a.aps.size(), b.aps.size());
  for (std::size_t i = 0; i < a.aps.size(); ++i) {
    EXPECT_EQ(a.aps[i].bssid, b.aps[i].bssid) << "ap " << i;
    EXPECT_EQ(a.aps[i].essid, b.aps[i].essid) << "ap " << i;
    EXPECT_EQ(a.aps[i].band, b.aps[i].band) << "ap " << i;
    EXPECT_EQ(a.aps[i].channel, b.aps[i].channel) << "ap " << i;
  }

  ASSERT_EQ(a.truth.devices.size(), b.truth.devices.size());
  for (std::size_t i = 0; i < a.truth.devices.size(); ++i) {
    const DeviceTruth& x = a.truth.devices[i];
    const DeviceTruth& y = b.truth.devices[i];
    EXPECT_EQ(x.archetype, y.archetype) << "truth " << i;
    EXPECT_EQ(x.occupation, y.occupation) << "truth " << i;
    EXPECT_EQ(x.has_home_ap, y.has_home_ap) << "truth " << i;
    EXPECT_EQ(x.home_ap, y.home_ap) << "truth " << i;
    EXPECT_EQ(x.works_at_office, y.works_at_office) << "truth " << i;
    EXPECT_EQ(x.office_has_byod_wifi, y.office_has_byod_wifi)
        << "truth " << i;
    EXPECT_EQ(x.office_ap, y.office_ap) << "truth " << i;
    EXPECT_EQ(x.home_cell, y.home_cell) << "truth " << i;
    EXPECT_EQ(x.office_cell, y.office_cell) << "truth " << i;
    EXPECT_EQ(x.wifi_off_propensity, y.wifi_off_propensity)
        << "truth " << i;
    EXPECT_EQ(x.demand_mu, y.demand_mu) << "truth " << i;
    EXPECT_EQ(x.demand_sigma, y.demand_sigma) << "truth " << i;
    EXPECT_EQ(x.uses_public_wifi, y.uses_public_wifi) << "truth " << i;
    EXPECT_EQ(x.update_bin, y.update_bin) << "truth " << i;
    EXPECT_EQ(x.capped_day, y.capped_day) << "truth " << i;
    EXPECT_EQ(x.is_tetherer, y.is_tetherer) << "truth " << i;
  }
}

class SnapshotRoundTrip : public ::testing::TestWithParam<Year> {};

TEST_P(SnapshotRoundTrip, BitExactAllYears) {
  const Year year = GetParam();
  const Dataset& fresh = test::campaign(year);
  test::ScratchDir tmp;
  const fs::path file = tmp.path / "campaign.tksnap";

  const std::uint64_t hash =
      scenario_hash(scenario_config(year, test::kTestScale));
  const io::SnapshotResult saved = io::save_snapshot(fresh, file, hash);
  ASSERT_TRUE(saved.ok()) << saved.error;

  // mmap path.
  Dataset mapped;
  io::SnapshotInfo info;
  const io::SnapshotResult loaded =
      io::load_snapshot(file, mapped, {}, &info);
  ASSERT_TRUE(loaded.ok()) << loaded.error;
  expect_datasets_equal(fresh, mapped);
  // A loaded snapshot serves the very bytes the save wrote, so the big
  // arrays must also match byte for byte (padding included).
  EXPECT_TRUE(test::same_records(fresh, mapped)) << "record bytes";
  EXPECT_TRUE(mapped.indexed());
  EXPECT_EQ(info.version, io::kSnapshotVersion);
  EXPECT_EQ(info.scenario_hash, hash);
  EXPECT_EQ(info.n_devices, fresh.devices.size());
  EXPECT_EQ(info.n_samples, fresh.samples.size());
  EXPECT_EQ(info.n_app_traffic, fresh.app_traffic.size());
  EXPECT_EQ(info.sections.size(),
            8u + AppColumns::kNumColumns + SampleColumns::kNumColumns);

  // Owned-read fallback must produce the same bits.
  Dataset owned;
  io::SnapshotLoadOptions no_mmap;
  no_mmap.allow_mmap = false;
  io::SnapshotInfo owned_info;
  const io::SnapshotResult loaded2 =
      io::load_snapshot(file, owned, no_mmap, &owned_info);
  ASSERT_TRUE(loaded2.ok()) << loaded2.error;
  EXPECT_FALSE(owned_info.mapped);
  expect_datasets_equal(fresh, owned);

  // Rows gather identically from the borrowed (mmapped) columns.
  EXPECT_TRUE(test::rows_of(fresh) == test::rows_of(mapped)) << "rows";
}

INSTANTIATE_TEST_SUITE_P(
    AllYears, SnapshotRoundTrip, ::testing::ValuesIn(kAllYears),
    [](const ::testing::TestParamInfo<Year>& info) {
      return "Y" + std::to_string(year_number(info.param));
    });

TEST(Snapshot, AnalysisIdenticalAfterReload) {
  const Year year = Year::Y2014;
  const Dataset& fresh = test::campaign(year);
  test::ScratchDir tmp;
  const fs::path file = tmp.path / "campaign.tksnap";
  ASSERT_TRUE(io::save_snapshot(fresh, file).ok());
  Dataset loaded;
  const io::SnapshotResult r = io::load_snapshot(file, loaded);
  ASSERT_TRUE(r.ok()) << r.error;

  // Classification: byte-identical per-AP classes and home-AP inference.
  const analysis::query::InMemorySource fresh_src(fresh);
  const analysis::query::InMemorySource loaded_src(loaded);
  const analysis::ApClassification ca = analysis::classify_aps(fresh_src);
  const analysis::ApClassification cb = analysis::classify_aps(loaded_src);
  EXPECT_EQ(ca.ap_class, cb.ap_class);
  EXPECT_EQ(ca.associated, cb.associated);
  EXPECT_EQ(ca.is_office, cb.is_office);
  EXPECT_EQ(ca.home_ap_of_device, cb.home_ap_of_device);

  // User-day rollup: bit-identical doubles.
  const std::vector<analysis::UserDay> da = analysis::user_days(fresh);
  const std::vector<analysis::UserDay> db = analysis::user_days(loaded);
  expect_bytes_equal(std::span<const analysis::UserDay>(da),
                     std::span<const analysis::UserDay>(db), "user_days");

  // WiFi ratios: bit-identical weekly series.
  const analysis::UserClassifier ka(da);
  const analysis::UserClassifier kb(db);
  const analysis::WifiRatios ra =
      analysis::compute_wifi_ratios(fresh_src, da, ka);
  const analysis::WifiRatios rb =
      analysis::compute_wifi_ratios(loaded_src, db, kb);
  const auto expect_profile_eq = [](const analysis::WeeklyProfile& x,
                                    const analysis::WeeklyProfile& y,
                                    const char* what) {
    EXPECT_EQ(x.ratio_series(), y.ratio_series()) << what;
    EXPECT_EQ(x.num_series(), y.num_series()) << what;
  };
  expect_profile_eq(ra.traffic_all, rb.traffic_all, "traffic_all");
  expect_profile_eq(ra.users_all, rb.users_all, "users_all");
  expect_profile_eq(ra.traffic_heavy, rb.traffic_heavy, "traffic_heavy");
  expect_profile_eq(ra.traffic_light, rb.traffic_light, "traffic_light");
  expect_profile_eq(ra.users_heavy, rb.users_heavy, "users_heavy");
  expect_profile_eq(ra.users_light, rb.users_light, "users_light");
}

TEST(Snapshot, EmptyDatasetRoundTrips) {
  Dataset empty = test::empty_dataset(0, 1);
  empty.build_index();
  test::ScratchDir tmp;
  const fs::path file = tmp.path / "empty.tksnap";
  ASSERT_TRUE(io::save_snapshot(empty, file).ok());

  Dataset loaded;
  io::SnapshotInfo info;
  const io::SnapshotResult r = io::load_snapshot(file, loaded, {}, &info);
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(loaded.devices.size(), 0u);
  EXPECT_EQ(loaded.samples.size(), 0u);
  EXPECT_EQ(loaded.aps.size(), 0u);
  EXPECT_EQ(loaded.num_days(), 1);
  EXPECT_EQ(info.n_samples, 0u);
}

// Every section checksum of a 2015 campaign at scale 0.25, pinned
// through the header checksum that covers them all. Save and load
// schedule the sections' hash chains four at a time (io/snapshot.cc);
// the values are part of the format and must not move with the
// scheduling. The columns span small one-chain sections and multi-chunk
// ones (each 4-byte column holds over 4 MiB at this scale).
TEST(Snapshot, SectionChecksumsPinned) {
  test::ScratchDir tmp;
  const fs::path file = tmp.path / "y2015.tksnap";
  ASSERT_TRUE(io::save_snapshot(
                  sim::Simulator(scenario_config(Year::Y2015, 0.25)).run(),
                  file)
                  .ok());
  io::SnapshotInfo info;
  ASSERT_TRUE(io::read_snapshot_info(file, info).ok());
  std::uint64_t largest = 0;
  for (const io::SnapshotSection& s : info.sections) {
    largest = std::max(largest, s.bytes);
  }
  EXPECT_GT(largest, std::uint64_t{4} << 20);
  EXPECT_EQ(info.header_checksum, 0xc8637f2a11163a8aull);
  Dataset loaded;
  const io::SnapshotResult r = io::load_snapshot(file, loaded);
  EXPECT_TRUE(r.ok()) << r.error;
}

// --- Corruption rejection ---------------------------------------------

/// Writes a tiny valid snapshot and returns its path.
fs::path make_small_snapshot(const fs::path& dir) {
  Dataset ds = test::empty_dataset(3, 2);
  const ApId ap = test::add_ap(ds, "corner-cafe");
  std::vector<test::Row> rows;
  test::add_sample(rows, 0, 0, 1000);
  test::add_sample(rows, 0, 1, 0, 2000, WifiState::Associated, ap);
  test::add_sample(rows, 1, 5, 500);
  test::set_rows(ds, rows);
  const fs::path file = dir / "small.tksnap";
  const io::SnapshotResult r = io::save_snapshot(ds, file);
  EXPECT_TRUE(r.ok()) << r.error;
  return file;
}

void flip_byte(const fs::path& file, std::uint64_t offset) {
  std::fstream f(file, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.is_open());
  f.seekg(static_cast<std::streamoff>(offset));
  char c = 0;
  f.read(&c, 1);
  ASSERT_TRUE(f.good());
  c = static_cast<char>(c ^ 0x5A);
  f.seekp(static_cast<std::streamoff>(offset));
  f.write(&c, 1);
  ASSERT_TRUE(f.good());
}

TEST(SnapshotCorruption, TruncatedFileRejected) {
  test::ScratchDir tmp;
  const fs::path file = make_small_snapshot(tmp.path);
  const auto full = fs::file_size(file);
  fs::resize_file(file, full / 2);

  Dataset out;
  EXPECT_FALSE(io::load_snapshot(file, out).ok());

  // Even a header-only stub must be rejected.
  fs::resize_file(file, 16);
  EXPECT_FALSE(io::load_snapshot(file, out).ok());
}

TEST(SnapshotCorruption, BadMagicRejected) {
  test::ScratchDir tmp;
  const fs::path file = make_small_snapshot(tmp.path);
  flip_byte(file, 0);  // first byte of the magic
  Dataset out;
  const io::SnapshotResult r = io::load_snapshot(file, out);
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.error.find("magic"), std::string::npos) << r.error;
}

TEST(SnapshotCorruption, WrongVersionRejected) {
  test::ScratchDir tmp;
  const fs::path file = make_small_snapshot(tmp.path);
  flip_byte(file, 8);  // version field follows the 8-byte magic
  Dataset out;
  const io::SnapshotResult r = io::load_snapshot(file, out);
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.error.find("version"), std::string::npos) << r.error;
}

// A file of the previous layout (version 2: one 12-byte record section
// for the app records) is refused by its version, before any section is
// read.
TEST(SnapshotCorruption, Version2FileRejectedByVersion) {
  test::ScratchDir tmp;
  const fs::path file = make_small_snapshot(tmp.path);
  {
    std::fstream f(file, std::ios::in | std::ios::out | std::ios::binary);
    const std::uint32_t v2 = 2;
    f.seekp(8);  // the version field follows the 8-byte magic
    f.write(reinterpret_cast<const char*>(&v2), sizeof(v2));
    ASSERT_TRUE(f.good());
  }
  Dataset out;
  const io::SnapshotResult r = io::load_snapshot(file, out);
  EXPECT_NE(r.error.find("unsupported snapshot version 2 (this build reads 3)"),
            std::string::npos)
      << r.error;
  io::SnapshotInfo info;
  EXPECT_NE(io::read_snapshot_info(file, info).error.find("version 2"),
            std::string::npos);
}

TEST(SnapshotCorruption, FlippedSampleByteRejected) {
  test::ScratchDir tmp;
  const fs::path file = make_small_snapshot(tmp.path);

  io::SnapshotInfo info;
  ASSERT_TRUE(io::read_snapshot_info(file, info).ok());
  // Section id 3 is the sample array.
  const io::SnapshotSection* samples = nullptr;
  for (const io::SnapshotSection& s : info.sections) {
    if (s.id == 3) samples = &s;
  }
  ASSERT_NE(samples, nullptr);
  ASSERT_GT(samples->bytes, 0u);
  flip_byte(file, samples->offset + samples->bytes / 2);

  for (const bool allow_mmap : {true, false}) {
    Dataset out;
    io::SnapshotLoadOptions opts;
    opts.allow_mmap = allow_mmap;
    const io::SnapshotResult r = io::load_snapshot(file, out, opts);
    EXPECT_FALSE(r.ok()) << "allow_mmap=" << allow_mmap;
    EXPECT_NE(r.error.find("checksum"), std::string::npos) << r.error;
  }
}

TEST(SnapshotCorruption, GarbageFileRejected) {
  test::ScratchDir tmp;
  const fs::path file = tmp.path / "garbage.tksnap";
  std::ofstream(file, std::ios::binary) << "this is not a snapshot";
  Dataset out;
  EXPECT_FALSE(io::load_snapshot(file, out).ok());
  EXPECT_FALSE(io::load_snapshot(tmp.path / "missing.tksnap", out).ok());
}

// --- Campaign cache ----------------------------------------------------

TEST(CampaignCache, MissThenHitProducesIdenticalDataset) {
  test::ScratchDir tmp;
  ASSERT_EQ(::setenv("TOKYONET_CACHE_DIR", tmp.path.c_str(), 1), 0);
  const ScenarioConfig config = scenario_config(Year::Y2013, 0.02);

  sim::CampaignCacheStatus first;
  const Dataset cold = sim::cached_campaign(config, &first);
  EXPECT_TRUE(first.enabled);
  EXPECT_FALSE(first.hit);
  EXPECT_TRUE(first.detail.empty()) << first.detail;
  EXPECT_TRUE(fs::exists(first.path)) << first.path;

  sim::CampaignCacheStatus second;
  const Dataset warm = sim::cached_campaign(config, &second);
  EXPECT_TRUE(second.hit);
  expect_datasets_equal(cold, warm);

  // A different seed is a different cache entry, not a false hit.
  ScenarioConfig other = config;
  other.seed += 1;
  sim::CampaignCacheStatus third;
  const Dataset reseeded = sim::cached_campaign(other, &third);
  EXPECT_FALSE(third.hit);
  EXPECT_NE(third.path, second.path);

  // A corrupted cache entry is quietly re-simulated, not trusted.
  flip_byte(first.path, fs::file_size(first.path) / 2);
  sim::CampaignCacheStatus fourth;
  const Dataset recovered = sim::cached_campaign(config, &fourth);
  EXPECT_FALSE(fourth.hit);
  EXPECT_FALSE(fourth.detail.empty());
  expect_datasets_equal(cold, recovered);

  ASSERT_EQ(::unsetenv("TOKYONET_CACHE_DIR"), 0);
}

TEST(CampaignCache, DisabledWithoutEnv) {
  ASSERT_EQ(::unsetenv("TOKYONET_CACHE_DIR"), 0);
  sim::CampaignCacheStatus status;
  const Dataset ds =
      sim::cached_campaign(scenario_config(Year::Y2013, 0.02), &status);
  EXPECT_FALSE(status.enabled);
  EXPECT_FALSE(status.hit);
  EXPECT_GT(ds.devices.size(), 0u);
}

TEST(CampaignCache, PathEncodesVersionYearAndHash) {
  const ScenarioConfig c13 = scenario_config(Year::Y2013, 0.5);
  const ScenarioConfig c15 = scenario_config(Year::Y2015, 0.5);
  const fs::path p13 = io::campaign_cache_path("/cache", c13);
  const fs::path p15 = io::campaign_cache_path("/cache", c15);
  EXPECT_NE(p13, p15);
  EXPECT_NE(p13.string().find("campaign-v" +
                              std::to_string(io::kSnapshotVersion) + "-2013-"),
            std::string::npos)
      << p13;
  EXPECT_EQ(p13.extension(), ".tksnap");

  // The hash must react to any scenario field.
  ScenarioConfig tweaked = c13;
  tweaked.demand.wifi_elasticity += 1e-9;
  EXPECT_NE(scenario_hash(c13), scenario_hash(tweaked));
  EXPECT_EQ(scenario_hash(c13),
            scenario_hash(scenario_config(Year::Y2013, 0.5)));
}

}  // namespace
}  // namespace tokyonet
