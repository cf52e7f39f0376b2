// Mutation sweep over the on-disk formats. A tiny snapshot and one shard
// of a two-shard store, both built here from hand-made rows, are
// truncated at every offset, flipped at every byte and hit with seeded
// multi-byte mutations. Every mutant must load as a clean error, or as
// a dataset that validates and renders the per-year figure catalog —
// never crash, report undefined behaviour or hang. The ASan job runs
// this suite.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "core/hash.h"
#include "io/shard_store.h"
#include "io/snapshot.h"
#include "report/registry.h"
#include "report/runner.h"
#include "testutil.h"

namespace tokyonet {
namespace {

namespace fs = std::filesystem;

constexpr Year kYear = Year::Y2015;
constexpr std::uint32_t kDevices = 4;
constexpr int kSeededMutants = 2000;

/// Devices [first, first + count) of a 2-day campaign, with local ids:
/// every ninth bin, alternating association with a home and a public
/// AP, scan counts, and per-app records on the Android devices.
Dataset tiny_campaign(std::uint32_t first, std::uint32_t count) {
  Dataset ds = test::empty_dataset(static_cast<int>(count), 2, kYear);
  const ApId home = test::add_ap(ds, "aterm-home-01");
  const ApId cafe = test::add_ap(ds, "0000docomo", Band::B5GHz, 36);
  std::vector<Sample> rows;
  for (std::uint32_t d = 0; d < count; ++d) {
    const std::uint32_t g = first + d;  // global device id
    ds.devices[d].os = g % 2 == 0 ? Os::Android : Os::Ios;
    for (int b = 0; b < 2 * kBinsPerDay; b += 9) {
      const bool assoc = (b / 9 + static_cast<int>(g)) % 3 == 0;
      Sample& s = test::add_sample(
          rows, d, static_cast<TimeBin>(b), assoc ? 0 : 20'000u * (g + 1),
          assoc ? 50'000u : 0,
          assoc ? WifiState::Associated : WifiState::OnUnassociated,
          assoc ? (g % 2 == 0 ? home : cafe) : kNoAp);
      s.geo_cell = static_cast<GeoCell>(100 + g);
      s.battery_pct = static_cast<std::uint8_t>(100 - b / 4);
      s.rssi_dbm = static_cast<std::int8_t>(assoc ? -60 : -127);
      s.scan_pub24_all = static_cast<std::uint8_t>(b % 5);
      s.scan_pub5_strong = static_cast<std::uint8_t>(b % 2);
      if (g % 2 == 0 && b % 2 == 0) {
        s.app_begin = static_cast<std::uint32_t>(ds.app_traffic.size());
        s.app_count = 1;
        ds.app_traffic.push_back({.category = AppCategory::Video,
                                  .rx_bytes = 10'000u + g,
                                  .tx_bytes = 500});
      }
    }
  }
  test::set_rows(ds, rows);
  return ds;
}

[[nodiscard]] std::vector<char> read_file(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_file(const fs::path& p, const std::vector<char>& bytes) {
  std::ofstream out(p, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Writes the campaign as a two-shard store: a universe file plus
/// devices [0, 2) and [2, 4), and the manifest over them.
void write_store(const fs::path& dir) {
  fs::create_directories(dir);
  const Dataset full = tiny_campaign(0, kDevices);
  io::ShardManifest m;
  m.snapshot_version = io::kSnapshotVersion;
  m.year = year_number(kYear);
  m.start = full.calendar.start_date();
  m.num_days = full.num_days();
  m.n_devices = kDevices;
  m.n_aps = full.aps.size();

  Dataset universe;
  universe.year = kYear;
  universe.calendar = full.calendar;
  universe.aps = full.aps;
  universe.truth.aps = full.truth.aps;
  m.universe_file = "universe.tksnap";
  ASSERT_TRUE(io::save_snapshot(universe, dir / m.universe_file).ok());
  io::SnapshotInfo info;
  ASSERT_TRUE(io::read_snapshot_info(dir / m.universe_file, info).ok());
  m.universe_bytes = info.file_bytes;
  m.universe_checksum = info.header_checksum;

  for (std::uint32_t i = 0; i < 2; ++i) {
    Dataset shard = tiny_campaign(2 * i, 2);
    shard.aps = {};  // the universe file carries them
    shard.truth.aps = {};
    io::ShardEntry e;
    e.index = i;
    e.file = "shard-000" + std::to_string(i) + ".tksnap";
    e.device_begin = 2 * i;
    e.device_count = 2;
    ASSERT_TRUE(io::save_snapshot(shard, dir / e.file).ok());
    ASSERT_TRUE(io::read_snapshot_info(dir / e.file, info).ok());
    e.n_samples = info.n_samples;
    e.n_app_traffic = info.n_app_traffic;
    e.file_bytes = info.file_bytes;
    e.header_checksum = info.header_checksum;
    m.n_samples += e.n_samples;
    m.n_app_traffic += e.n_app_traffic;
    m.shards.push_back(e);
  }
  ASSERT_TRUE(io::write_shard_manifest(m, dir).ok());
}

/// Every truncation, every single-byte flip and kSeededMutants seeded
/// multi-byte mutations of `original`, each written to `target` and
/// loaded by `load` (which returns the dataset when the load succeeds).
void sweep(const fs::path& target, const std::vector<char>& original,
           const std::function<std::optional<Dataset>()>& load) {
  // A mutant that loads must validate and render the per-year catalog;
  // each distinct content is rendered once.
  std::set<std::uint64_t> rendered;
  int loaded = 0;
  const auto check = [&](const std::vector<char>& bytes,
                         const std::string& what) {
    write_file(target, bytes);
    std::optional<Dataset> ds = load();
    if (!ds) return;
    ++loaded;
    ASSERT_EQ(ds->validate(), "") << what;
    std::uint64_t h = 0;
    for (const Sample& s : gather_rows(*ds)) {
      h = core::hash_bytes(&s, sizeof(s), h);
    }
    for (const AppTraffic& a : ds->app_traffic) {
      h = core::hash_bytes(&a, sizeof(a), h);
    }
    for (const ApInfo& ap : ds->aps) {
      h = core::hash_bytes(ap.essid.data(), ap.essid.size(), h ^ ap.bssid);
    }
    if (!rendered.insert(h).second) return;
    report::Runner runner;
    runner.adopt(kYear, std::move(*ds));
    for (const report::FigureSpec& spec :
         report::FigureRegistry::instance().figures()) {
      if (!spec.applies_to(kYear)) continue;
      EXPECT_NO_THROW((void)runner.run(spec, kYear)) << what << " " << spec.id;
    }
  };

  for (std::size_t n = 0; n < original.size(); ++n) {
    check({original.begin(), original.begin() + static_cast<std::ptrdiff_t>(n)},
          "truncated to " + std::to_string(n));
  }
  for (std::size_t i = 0; i < original.size(); ++i) {
    std::vector<char> bytes = original;
    bytes[i] = static_cast<char>(bytes[i] ^ 0x5A);
    check(bytes, "byte " + std::to_string(i) + " flipped");
  }
  std::mt19937_64 rng(0x6D757461);  // fixed seed: the sweep is replayable
  for (int m = 0; m < kSeededMutants; ++m) {
    std::vector<char> bytes = original;
    const int edits = 2 + static_cast<int>(rng() % 7);
    for (int e = 0; e < edits; ++e) {
      bytes[rng() % bytes.size()] = static_cast<char>(rng());
    }
    check(bytes, "seeded mutant " + std::to_string(m));
  }
  // The unmodified file must load.
  check(original, "original");
  EXPECT_GE(loaded, 1);
}

// Both read paths, with the payload checksum on and off: after a
// shard's first load the column validation is the only per-sample
// guard (later loads skip the checksum), so with the checksum off every
// mutated value reaches it.
TEST(FormatMutation, SnapshotMutantsFailCleanlyOrLoadSound) {
  test::ScratchDir tmp;
  const fs::path file = tmp.path / "tiny.tksnap";
  ASSERT_TRUE(io::save_snapshot(tiny_campaign(0, kDevices), file).ok());
  const std::vector<char> original = read_file(file);
  ASSERT_LE(original.size(), std::size_t{32} << 10);
  for (const bool verify : {true, false}) {
    io::SnapshotLoadOptions opts;
    opts.verify_payload = verify;
    sweep(file, original, [&]() -> std::optional<Dataset> {
      opts.allow_mmap = !opts.allow_mmap;
      Dataset ds;
      if (!io::load_snapshot(file, ds, opts).ok()) return std::nullopt;
      return ds;
    });
  }
}

TEST(FormatMutation, ShardMutantsFailCleanlyOrLoadSound) {
  test::ScratchDir tmp;
  const fs::path dir = tmp.path / "store";
  write_store(dir);
  const fs::path shard = dir / "shard-0001.tksnap";
  const std::vector<char> original = read_file(shard);
  sweep(shard, original, [&]() -> std::optional<Dataset> {
    io::ShardedDataset store;
    Dataset ds;
    if (!io::ShardedDataset::open(dir, store).ok() ||
        !store.load_shard(1, ds).ok()) {
      return std::nullopt;
    }
    return ds;
  });
}

// Regression cases for what the sweep found: values that the kernels
// use as array indices, and a raw bool, are now part of validation.

TEST(FormatMutation, UnknownEnumValuesRejected) {
  Dataset ds = tiny_campaign(0, kDevices);
  ds.app_traffic[0].category = static_cast<AppCategory>(88);
  EXPECT_FALSE(ds.build_index());
  ds = tiny_campaign(0, kDevices);
  ds.samples.wifi_state[3] = static_cast<WifiState>(232);
  EXPECT_FALSE(ds.validate().empty());
  ds = tiny_campaign(0, kDevices);
  ds.devices[1].carrier = static_cast<Carrier>(7);
  EXPECT_FALSE(ds.validate().empty());
}

TEST(FormatMutation, NonBooleanRecruitedFlagRejected) {
  test::ScratchDir tmp;
  const fs::path file = tmp.path / "tiny.tksnap";
  ASSERT_TRUE(io::save_snapshot(tiny_campaign(0, kDevices), file).ok());
  io::SnapshotInfo info;
  ASSERT_TRUE(io::read_snapshot_info(file, info).ok());
  std::vector<char> bytes = read_file(file);
  bytes[info.sections[0].offset + offsetof(DeviceInfo, recruited)] = 7;
  write_file(file, bytes);
  io::SnapshotLoadOptions unchecked;
  unchecked.verify_payload = false;
  Dataset ds;
  const io::SnapshotResult r = io::load_snapshot(file, ds, unchecked);
  EXPECT_NE(r.error.find("non-boolean"), std::string::npos) << r.error;
}

}  // namespace
}  // namespace tokyonet
