// Sharded campaign store (io/shard_store.h) + streaming runner
// (sim/stream_runner.h) + the headline battery scanned out of core
// (report::Runner over a query::ShardedSource): byte-identity against
// the one-shot simulator at several shard counts, and the failure modes
// of the directory format.
#include "io/shard_store.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/classify.h"
#include "analysis/context.h"
#include "analysis/query/source.h"
#include "analysis/ratios.h"
#include "core/dataset_index.h"
#include "core/records.h"
#include "core/scenario.h"
#include "io/snapshot.h"
#include "report/registry.h"
#include "report/runner.h"
#include "report/table.h"
#include "sim/simulator.h"
#include "sim/stream_runner.h"
#include "testutil.h"

namespace tokyonet {
namespace {

namespace fs = std::filesystem;

constexpr double kShardTestScale = 0.02;

void flip_byte(const fs::path& p, std::uintmax_t offset) {
  std::fstream f(p, std::ios::in | std::ios::out | std::ios::binary);
  f.seekg(static_cast<std::streamoff>(offset));
  char c = 0;
  f.read(&c, 1);
  c = static_cast<char>(c ^ 0x5a);
  f.seekp(static_cast<std::streamoff>(offset));
  f.write(&c, 1);
}

/// Streams `config` into `dir` with `shards` shards and returns the
/// open store (asserts success).
io::ShardedDataset stream_and_open(const ScenarioConfig& config,
                                   const fs::path& dir, std::size_t shards) {
  sim::StreamCampaignOptions opts;
  opts.shards = shards;
  const sim::StreamCampaignResult w = sim::stream_campaign(config, dir, opts);
  EXPECT_TRUE(w.ok()) << w.error;
  io::ShardedDataset store;
  const io::SnapshotResult r = io::ShardedDataset::open(dir, store);
  EXPECT_TRUE(r.ok()) << r.error;
  return store;
}

/// Renders the headline battery (table01, fig02, fig05, table04,
/// sec35_opportunity, + fig18 for the 2015 campaign) the way the CLI's
/// `report --shard-dir` does: a report::Runner over `store`, scanned
/// through a query::ShardedSource with `resident_shards` = K. A scan
/// that loses the store throws query::SourceError.
std::vector<report::Table> scan_battery(io::ShardedDataset& store,
                                        std::size_t resident_shards) {
  const analysis::query::ShardedSource src(store, resident_shards);
  report::Runner runner;
  runner.adopt_source(store.year(), src);
  std::vector<report::Table> tables;
  for (const char* id : {"table01", "fig02", "fig05", "table04",
                         "sec35_opportunity", "fig18"}) {
    if (std::string_view(id) == "fig18" && store.year() != Year::Y2015) {
      continue;
    }
    tables.push_back(runner.run(*report::FigureRegistry::instance().find(id),
                                store.year()));
  }
  return tables;
}

// --- Byte identity -----------------------------------------------------

class ShardRoundTrip : public ::testing::TestWithParam<std::size_t> {};

// Field tuples for value comparison of the small record arrays.
// (memcmp would compare struct padding too, which is unspecified
// between independently constructed datasets — see snapshot_test.cc.)
auto fields(const DeviceInfo& d) {
  return std::tuple(d.id, d.os, d.carrier, d.recruited);
}
auto fields(const SurveyResponse& s) {
  return std::tuple(s.occupation, s.connected[0], s.connected[1],
                    s.connected[2], s.reasons[0], s.reasons[1], s.reasons[2]);
}
auto fields(const ApTruth& t) { return std::tuple(t.placement, t.cell); }
auto fields(const DeviceTruth& t) {
  return std::tuple(t.archetype, t.occupation, t.has_home_ap, t.home_ap,
                    t.works_at_office, t.office_has_byod_wifi, t.office_ap,
                    t.home_cell, t.office_cell, t.wifi_off_propensity,
                    t.demand_mu, t.demand_sigma, t.uses_public_wifi,
                    t.update_bin, t.capped_day, t.is_tetherer);
}

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

// The partition-invariance claim: every shard of a campaign streamed
// shard by shard equals the one-shot in-memory simulation's slice of
// its device range — the packed sample columns and each device's
// app-traffic run byte for byte, the per-device row ranges, every small
// record field for field (device ids rebased) — and the store's AP
// universe equals the simulation's, at any shard count.
TEST_P(ShardRoundTrip, MaterializedMatchesSimulator) {
  const std::size_t shards = GetParam();
  const ScenarioConfig config =
      scenario_config(Year::Y2015, kShardTestScale);
  test::ScratchDir tmp;
  io::ShardedDataset store =
      stream_and_open(config, tmp.path / "store", shards);
  ASSERT_EQ(store.num_shards(), shards);
  ASSERT_EQ(store.manifest().scenario_hash, scenario_hash(config));
  const Dataset fresh = sim::Simulator(config).run();
  ASSERT_EQ(store.manifest().n_devices, fresh.devices.size());
  EXPECT_EQ(store.year(), fresh.year);
  EXPECT_EQ(store.calendar().num_days(), fresh.num_days());
  const core::DatasetIndex& fi = fresh.index();

  for (std::size_t i = 0; i < shards; ++i) {
    Dataset shard;
    const io::SnapshotResult r = store.load_shard(i, shard);
    ASSERT_TRUE(r.ok()) << r.error;
    const std::size_t base = store.device_begin(i);
    const std::size_t n = shard.devices.size();
    ASSERT_EQ(base + n, i + 1 < shards ? store.device_begin(i + 1)
                                       : fresh.devices.size())
        << "shard " << i;
    ASSERT_GT(n, 0u) << "shard " << i;
    const core::DatasetIndex& si = shard.index();

    // The sample columns are packed: compare the raw bytes of the
    // shard's rows against the fresh rows of its devices.
    const std::size_t row0 = fi.device_begin(base);
    ASSERT_EQ(shard.samples.size(), fi.device_end(base + n - 1) - row0)
        << "shard " << i;
    bool same_bytes = true;
    SampleColumns::for_each(
        [&](const auto& a, const auto& b) {
          const auto slice = b.span().subspan(row0, a.size());
          same_bytes = same_bytes &&
                       std::memcmp(a.data(), slice.data(),
                                   slice.size_bytes()) == 0;
        },
        shard.samples, fresh.samples);
    EXPECT_TRUE(same_bytes) << "sample bytes differ in shard " << i
                            << " of " << shards;

    std::vector<DeviceInfo> devices(fresh.devices.begin() + base,
                                    fresh.devices.begin() + base + n);
    for (DeviceInfo& d : devices) {
      d.id = DeviceId{static_cast<std::uint32_t>(value(d.id) - base)};
    }
    expect_elements_equal(std::span<const DeviceInfo>(shard.devices),
                          std::span<const DeviceInfo>(devices), "devices");
    expect_elements_equal(
        std::span<const SurveyResponse>(shard.survey),
        std::span<const SurveyResponse>(fresh.survey).subspan(base, n),
        "survey");
    expect_elements_equal(
        std::span<const DeviceTruth>(shard.truth.devices),
        std::span<const DeviceTruth>(fresh.truth.devices).subspan(base, n),
        "truth.devices");

    for (std::size_t d = 0; d < n; ++d) {
      const std::size_t g = base + d;
      ASSERT_EQ(si.device_end(d) - si.device_begin(d),
                fi.device_end(g) - fi.device_begin(g))
          << "shard " << i << " device " << d;
      const std::size_t apps = si.device_app_end(d) - si.device_app_begin(d);
      ASSERT_EQ(apps, fi.device_app_end(g) - fi.device_app_begin(g))
          << "shard " << i << " device " << d;
      if (apps == 0) continue;
      AppColumns::for_each(
          [&](const auto& s, const auto& f) {
            EXPECT_EQ(std::memcmp(s.data() + si.device_app_begin(d),
                                  f.data() + fi.device_app_begin(g),
                                  apps * sizeof(s[0])),
                      0)
                << "app traffic differs: shard " << i << " device " << d;
          },
          shard.app_traffic, fresh.app_traffic);
    }
  }

  // The universe, held once by the store and shared by every shard.
  Dataset first;
  ASSERT_TRUE(store.load_shard(0, first).ok());
  expect_elements_equal(std::span<const ApTruth>(first.truth.aps),
                        std::span<const ApTruth>(fresh.truth.aps),
                        "truth.aps");
  const std::vector<ApInfo>& aps = store.universe_aps();
  ASSERT_EQ(aps.size(), fresh.aps.size());
  for (std::size_t i = 0; i < fresh.aps.size(); ++i) {
    ASSERT_EQ(aps[i].bssid, fresh.aps[i].bssid) << i;
    ASSERT_EQ(aps[i].essid, fresh.aps[i].essid) << i;
    ASSERT_EQ(aps[i].band, fresh.aps[i].band) << i;
    ASSERT_EQ(aps[i].channel, fresh.aps[i].channel) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(ShardCounts, ShardRoundTrip,
                         ::testing::Values(std::size_t{1}, std::size_t{4},
                                           std::size_t{16}),
                         [](const auto& info) {
                           return "Shards" + std::to_string(info.param);
                         });

// load_shard serves shard-local device ids over the shared universe;
// per-shard totals must match the manifest's entries.
TEST(ShardStore, LoadShardServesLocalSlices) {
  const ScenarioConfig config =
      scenario_config(Year::Y2015, kShardTestScale);
  test::ScratchDir tmp;
  io::ShardedDataset store = stream_and_open(config, tmp.path / "store", 4);

  std::size_t devices = 0;
  std::uint64_t samples = 0;
  for (std::size_t i = 0; i < store.num_shards(); ++i) {
    Dataset shard;
    const io::SnapshotResult r = store.load_shard(i, shard);
    ASSERT_TRUE(r.ok()) << r.error;
    const io::ShardEntry& e = store.manifest().shards[i];
    EXPECT_EQ(shard.devices.size(), e.device_count);
    EXPECT_EQ(shard.samples.size(), e.n_samples);
    EXPECT_EQ(shard.aps.size(), store.universe_aps().size());
    EXPECT_TRUE(shard.indexed());
    // Local ids start at 0 in every shard.
    ASSERT_FALSE(shard.devices.empty());
    EXPECT_EQ(value(shard.devices.front().id), 0u);
    devices += shard.devices.size();
    samples += shard.samples.size();
  }
  EXPECT_EQ(devices, store.manifest().n_devices);
  EXPECT_EQ(samples, store.manifest().n_samples);
}

// Every dataset the store hands out reads the store's one AP universe
// table; writing one dataset's table copies it for that dataset alone.
TEST(ShardStore, LoadsShareTheUniverse) {
  const ScenarioConfig config =
      scenario_config(Year::Y2015, kShardTestScale);
  test::ScratchDir tmp;
  io::ShardedDataset store = stream_and_open(config, tmp.path / "store", 4);

  Dataset first, last;
  ASSERT_TRUE(store.load_shard(0, first).ok());
  ASSERT_TRUE(store.load_shard(3, last).ok());
  // The prefetcher hands out shards through the same load.
  io::ShardPrefetcher prefetcher(store, 1);
  io::ShardPrefetcher::Loaded prefetched;
  ASSERT_TRUE(prefetcher.next(prefetched));
  ASSERT_TRUE(prefetched.result.ok()) << prefetched.result.error;
  Dataset& delivered = prefetched.dataset;
  const std::vector<ApInfo>& universe = store.universe_aps();
  ASSERT_FALSE(universe.empty());
  ASSERT_FALSE(first.truth.aps.empty());
  for (const Dataset* ds : {&first, &last, &delivered}) {
    EXPECT_EQ(ds->aps.data(), universe.data());
    EXPECT_EQ(ds->truth.aps.data(), first.truth.aps.data());
  }

  const std::uint64_t bssid = universe[0].bssid;
  const ApPlacement placement = last.truth.aps[0].placement;
  first.aps.mut()[0].bssid = ~bssid;
  first.truth.aps.mut()[0].placement = placement == ApPlacement::Home
                                           ? ApPlacement::Public
                                           : ApPlacement::Home;
  EXPECT_NE(first.aps.data(), universe.data());
  EXPECT_EQ(first.aps[0].bssid, ~bssid);
  EXPECT_EQ(universe[0].bssid, bssid);
  EXPECT_EQ(last.aps[0].bssid, bssid);
  EXPECT_EQ(last.aps.data(), universe.data());
  EXPECT_NE(first.truth.aps[0].placement, placement);
  EXPECT_EQ(last.truth.aps[0].placement, placement);
  EXPECT_EQ(delivered.truth.aps.data(), last.truth.aps.data());
  EXPECT_EQ(first.validate(), "");
}

// --- Out-of-core battery ----------------------------------------------

// Every battery table scanned out of core must render to the same
// canonical JSON as the in-memory registry path over the same campaign.
TEST(ShardStore, OutOfCoreBatteryMatchesRunner) {
  const ScenarioConfig config =
      scenario_config(Year::Y2015, kShardTestScale);
  test::ScratchDir tmp;
  io::ShardedDataset store = stream_and_open(config, tmp.path / "store", 5);

  const std::vector<report::Table> tables = scan_battery(store, 1);
  ASSERT_EQ(tables.size(), 6u);  // 2015: headline five + fig18

  report::Runner::Options opt;
  opt.scale = kShardTestScale;
  report::Runner runner(opt);
  const auto& registry = report::FigureRegistry::instance();
  for (const report::Table& t : tables) {
    const report::FigureSpec* spec = registry.find(t.id);
    ASSERT_NE(spec, nullptr) << t.id;
    EXPECT_EQ(report::to_canonical_json(t),
              report::to_canonical_json(runner.run(*spec, Year::Y2015)))
        << t.id;
  }
}

// The 2013 campaign has no in-campaign iOS release: no fig18.
TEST(ShardStore, OutOfCoreBatterySkipsFig18Before2015) {
  const ScenarioConfig config =
      scenario_config(Year::Y2013, kShardTestScale);
  test::ScratchDir tmp;
  io::ShardedDataset store = stream_and_open(config, tmp.path / "store", 2);
  const std::vector<report::Table> tables = scan_battery(store, 1);
  ASSERT_EQ(tables.size(), 5u);
  for (const report::Table& t : tables) EXPECT_NE(t.id, "fig18");
}

// Runner::adopt_shards_out_of_core refuses a store for a different
// campaign year.
TEST(ShardStore, AdoptShardsChecksYear) {
  const ScenarioConfig config =
      scenario_config(Year::Y2014, kShardTestScale);
  test::ScratchDir tmp;
  sim::StreamCampaignOptions opts;
  opts.shards = 2;
  ASSERT_TRUE(sim::stream_campaign(config, tmp.path / "store", opts).ok());

  report::Runner wrong;
  const io::SnapshotResult r =
      wrong.adopt_shards_out_of_core(Year::Y2015, tmp.path / "store");
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.error.find("holds the 2014 campaign"), std::string::npos)
      << r.error;
  report::Runner right;
  ASSERT_TRUE(
      right.adopt_shards_out_of_core(Year::Y2014, tmp.path / "store").ok());
  EXPECT_EQ(right.analysis(Year::Y2014).source().year(), Year::Y2014);
}

// --- Failure modes -----------------------------------------------------

struct BrokenStore : ::testing::Test {
  test::ScratchDir tmp;
  fs::path dir;
  ScenarioConfig config = scenario_config(Year::Y2015, kShardTestScale);

  void SetUp() override {
    dir = tmp.path / "store";
    sim::StreamCampaignOptions opts;
    opts.shards = 3;
    ASSERT_TRUE(sim::stream_campaign(config, dir, opts).ok());
  }

  [[nodiscard]] std::string open_error() const {
    io::ShardedDataset store;
    const io::SnapshotResult r = io::ShardedDataset::open(dir, store);
    EXPECT_FALSE(r.ok());
    return r.error;
  }
};

TEST_F(BrokenStore, TruncatedShardFileRejected) {
  const fs::path shard = dir / "shard-0001.tksnap";
  fs::resize_file(shard, fs::file_size(shard) - 64);
  EXPECT_NE(open_error().find("shard-0001"), std::string::npos);
}

TEST_F(BrokenStore, ShardScenarioHashMismatchRejected) {
  io::ShardManifest m;
  ASSERT_TRUE(io::read_shard_manifest(dir, m).ok());
  m.scenario_hash ^= 1;
  // write_shard_manifest deliberately writes whatever it is given;
  // verification must catch the disagreement with the shard headers.
  ASSERT_TRUE(io::write_shard_manifest(m, dir).ok());
  EXPECT_NE(open_error().find("scenario hash"), std::string::npos);
}

TEST_F(BrokenStore, OverlappingDeviceRangesRejected) {
  io::ShardManifest m;
  ASSERT_TRUE(io::read_shard_manifest(dir, m).ok());
  ASSERT_GE(m.shards.size(), 2u);
  m.shards[1].device_begin -= 1;  // overlaps shard 0's range
  ASSERT_TRUE(io::write_shard_manifest(m, dir).ok());
  io::ShardManifest reread;
  const io::SnapshotResult r = io::read_shard_manifest(dir, reread);
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.error.find("range"), std::string::npos) << r.error;
}

// A writer killed mid-stream never wrote MANIFEST.tks (it is the
// commit record, written last via tmp + rename): the partial directory
// must be detected and rejected, stray .tmp files notwithstanding.
TEST_F(BrokenStore, MissingManifestAfterKilledWriterRejected) {
  std::ofstream(dir / "MANIFEST.tks.tmp") << "half-written";
  fs::remove(dir / io::kShardManifestName);
  EXPECT_FALSE(io::is_shard_dir(dir));
  EXPECT_NE(open_error().find("MANIFEST.tks"), std::string::npos);
}

TEST_F(BrokenStore, ManifestChecksumFlipRejected) {
  const fs::path manifest = dir / io::kShardManifestName;
  flip_byte(manifest, fs::file_size(manifest) / 2);
  EXPECT_NE(open_error().find("checksum"), std::string::npos);
}

TEST_F(BrokenStore, ShardPayloadCorruptionCaughtOnLoad) {
  // Header-only verification passes open(); the payload flip must be
  // caught when the shard is actually loaded (section checksums).
  io::ShardedDataset store;
  ASSERT_TRUE(io::ShardedDataset::open(dir, store).ok());
  const fs::path shard = dir / "shard-0002.tksnap";
  flip_byte(shard, fs::file_size(shard) - 128);
  Dataset out;
  const io::SnapshotResult r = store.load_shard(2, out);
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.error.find("checksum"), std::string::npos) << r.error;
}

// --- Pipelined scan (DESIGN.md §5j) ------------------------------------
// Suite names carry the ShardPipeline prefix so the TSan CI job can
// select the prefetcher / parallel-scan coverage by regex.

// The prefetcher walks shards strictly in order and delivers each one
// fully loaded (universe installed, validated, indexed).
TEST(ShardPipeline, PrefetcherDeliversShardsInOrder) {
  const ScenarioConfig config =
      scenario_config(Year::Y2015, kShardTestScale);
  test::ScratchDir tmp;
  io::ShardedDataset store = stream_and_open(config, tmp.path / "store", 4);

  io::ShardPrefetcher prefetcher(store, 2);
  io::ShardPrefetcher::Loaded item;
  std::size_t expected = 0;
  while (prefetcher.next(item)) {
    ASSERT_TRUE(item.result.ok()) << item.result.error;
    EXPECT_EQ(item.index, expected);
    EXPECT_TRUE(item.dataset.indexed());
    EXPECT_EQ(item.dataset.devices.size(),
              store.manifest().shards[item.index].device_count);
    EXPECT_NE(item.token, nullptr);
    ++expected;
  }
  EXPECT_EQ(expected, store.num_shards());
}

// A corrupt shard is delivered at its position carrying the error, then
// the prefetcher stops: the consumer sees the failure in order, with
// nothing queued behind it and no hang.
TEST(ShardPipeline, PrefetcherSurfacesCorruptShardInOrder) {
  const ScenarioConfig config =
      scenario_config(Year::Y2015, kShardTestScale);
  test::ScratchDir tmp;
  io::ShardedDataset store = stream_and_open(config, tmp.path / "store", 4);
  const fs::path shard = tmp.path / "store" / "shard-0002.tksnap";
  flip_byte(shard, fs::file_size(shard) - 128);

  io::ShardPrefetcher prefetcher(store, 2);
  io::ShardPrefetcher::Loaded item;
  for (std::size_t i = 0; i < 2; ++i) {
    ASSERT_TRUE(prefetcher.next(item));
    EXPECT_EQ(item.index, i);
    EXPECT_TRUE(item.result.ok()) << item.result.error;
  }
  ASSERT_TRUE(prefetcher.next(item));
  EXPECT_EQ(item.index, 2u);
  EXPECT_FALSE(item.result.ok());
  EXPECT_NE(item.result.error.find("checksum"), std::string::npos)
      << item.result.error;
  EXPECT_FALSE(prefetcher.next(item));
}

// A failed load surfaces as a clean error on the scanning thread at
// every residency budget — sequential, prefetched and K-parallel — and
// never leaves a partial fold behind.
TEST(ShardPipeline, ScanErrorIsCleanAtEveryResidency) {
  const ScenarioConfig config =
      scenario_config(Year::Y2015, kShardTestScale);
  test::ScratchDir tmp;
  io::ShardedDataset store = stream_and_open(config, tmp.path / "store", 4);
  const fs::path shard = tmp.path / "store" / "shard-0001.tksnap";
  flip_byte(shard, fs::file_size(shard) - 128);

  for (const std::size_t k : {std::size_t{0}, std::size_t{1},
                              std::size_t{4}}) {
    analysis::query::ShardedSource src(store, k);
    analysis::AnalysisContext ctx(src);
    try {
      (void)ctx.devices();
      ADD_FAILURE() << "scan must fail, resident_shards=" << k;
    } catch (const analysis::query::SourceError& e) {
      EXPECT_NE(e.result().error.find("checksum"), std::string::npos)
          << "resident_shards=" << k << ": " << e.result().error;
    }

    std::vector<report::Table> tables;
    try {
      tables = scan_battery(store, k);
      ADD_FAILURE() << "battery must fail, resident_shards=" << k;
    } catch (const analysis::query::SourceError& e) {
      EXPECT_NE(e.result().error.find("checksum"), std::string::npos)
          << "resident_shards=" << k << ": " << e.result().error;
    }
    EXPECT_TRUE(tables.empty()) << "resident_shards=" << k;
  }
}

// An exception a scan throws on a K-scanner thread is carried to the
// thread calling fold_blocks and rethrown there after the pipeline has
// stopped (it used to escape the std::thread and abort the process).
// Everything before the failing shard has been folded, nothing after.
TEST(ShardPipeline, ScanExceptionReachesCaller) {
  const ScenarioConfig config =
      scenario_config(Year::Y2015, kShardTestScale);
  test::ScratchDir tmp;
  io::ShardedDataset store = stream_and_open(config, tmp.path / "store", 4);
  const std::size_t failing_base = store.device_begin(2);

  for (const std::size_t k : {std::size_t{1}, std::size_t{2}}) {
    const analysis::query::ShardedSource src(store, k);
    std::vector<std::size_t> folded;
    try {
      src.fold<int>(
          [&](const Dataset&, std::size_t base) {
            if (base == failing_base) throw std::runtime_error("scan failed");
            return 0;
          },
          [&](int&&, std::size_t base) { folded.push_back(base); });
      ADD_FAILURE() << "scan exception swallowed, resident_shards=" << k;
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "scan failed") << "resident_shards=" << k;
    }
    EXPECT_EQ(folded, (std::vector<std::size_t>{store.device_begin(0),
                                                store.device_begin(1)}))
        << "resident_shards=" << k;
  }
}

// A shard file that changes under an open store — truncated, or replaced
// by the same shard of another campaign — between two passes is caught
// on its next load: the file size and the header identity are checked
// before the file is mapped, so the second pass fails with SourceError
// instead of reading a mapping past the end of the file (SIGBUS).
TEST(ShardStore, ShardChangedBetweenPassesFailsCleanly) {
  const ScenarioConfig config =
      scenario_config(Year::Y2015, kShardTestScale);
  ScenarioConfig other = config;
  other.seed += 1;
  test::ScratchDir tmp;
  (void)stream_and_open(other, tmp.path / "other", 4);
  const fs::path shard = tmp.path / "store" / "shard-0001.tksnap";
  for (const bool truncate : {true, false}) {
    fs::remove_all(tmp.path / "store");
    io::ShardedDataset store = stream_and_open(config, tmp.path / "store", 4);
    const analysis::query::ShardedSource src(store, 1);
    const auto pass = [&] {
      src.fold<int>([](const Dataset&, std::size_t) { return 0; },
                    [](int&&, std::size_t) {});
    };
    EXPECT_NO_THROW(pass());
    if (truncate) {
      fs::resize_file(shard, fs::file_size(shard) / 2);
    } else {
      fs::copy_file(tmp.path / "other" / "shard-0001.tksnap", shard,
                    fs::copy_options::overwrite_existing);
    }
    EXPECT_THROW(pass(), analysis::query::SourceError)
        << (truncate ? "truncated" : "replaced");
  }
}

// The K-parallel scan's per-shard partials fold in shard order, so its
// battery is byte-identical to the strict sequential scan. (This is the
// concurrency stress the TSan job runs; the full shards x residency
// matrix lives in ShardScanMatrix below.)
TEST(ShardPipeline, ParallelScanMatchesSequential) {
  const ScenarioConfig config =
      scenario_config(Year::Y2015, kShardTestScale);
  test::ScratchDir tmp;
  io::ShardedDataset store = stream_and_open(config, tmp.path / "store", 16);

  const std::vector<report::Table> sequential = scan_battery(store, 0);
  const std::vector<report::Table> parallel = scan_battery(store, 4);
  ASSERT_EQ(parallel.size(), sequential.size());
  for (std::size_t i = 0; i < sequential.size(); ++i) {
    EXPECT_EQ(report::to_canonical_json(parallel[i]),
              report::to_canonical_json(sequential[i]))
        << sequential[i].id;
  }
}

// The full determinism matrix: the battery's canonical JSON scanned out
// of core must byte-match the in-memory registry rendering at every
// shard count x residency budget, and so must the Fig 6-8 ratio profiles and the AP
// classification (the thread dimension comes from the
// shard_scan_threads{1,4} ctest entries re-running this suite under
// TOKYONET_THREADS).
TEST(ShardScanMatrix, BatteryByteIdenticalAcrossShardsAndResidency) {
  const ScenarioConfig config =
      scenario_config(Year::Y2015, kShardTestScale);

  // In-memory reference, rendered once.
  report::Runner::Options opt;
  opt.scale = kShardTestScale;
  report::Runner runner(opt);
  const auto& registry = report::FigureRegistry::instance();
  const analysis::AnalysisContext& mem = runner.analysis(Year::Y2015);
  const analysis::WifiRatios mem_ratios =
      analysis::compute_wifi_ratios(mem.source(), mem.days(),
                                    mem.classifier());
  const analysis::ApClassification& mem_cls = mem.classification();

  for (const std::size_t shards :
       {std::size_t{1}, std::size_t{4}, std::size_t{16}}) {
    test::ScratchDir tmp;
    io::ShardedDataset store =
        stream_and_open(config, tmp.path / "store", shards);
    for (const std::size_t k : {std::size_t{0}, std::size_t{1},
                                std::size_t{2}, std::size_t{4}}) {
      const std::vector<report::Table> tables = scan_battery(store, k);
      ASSERT_EQ(tables.size(), 6u) << "shards=" << shards << " K=" << k;
      for (const report::Table& t : tables) {
        const report::FigureSpec* spec = registry.find(t.id);
        ASSERT_NE(spec, nullptr) << t.id;
        EXPECT_EQ(report::to_canonical_json(t),
                  report::to_canonical_json(runner.run(*spec, Year::Y2015)))
            << t.id << " shards=" << shards << " K=" << k;
      }
      if (k > 1) continue;
      const std::string where =
          "shards=" + std::to_string(shards) + " K=" + std::to_string(k);
      const analysis::query::ShardedSource src(store, k);
      EXPECT_TRUE(analysis::compute_wifi_ratios(src, mem.days(),
                                                mem.classifier()) ==
                  mem_ratios)
          << where;
      const analysis::ApClassification cls = analysis::classify_aps(src);
      EXPECT_EQ(cls.ap_class, mem_cls.ap_class) << where;
      EXPECT_EQ(cls.associated, mem_cls.associated) << where;
      EXPECT_EQ(cls.is_office, mem_cls.is_office) << where;
      EXPECT_EQ(cls.is_mobile, mem_cls.is_mobile) << where;
      EXPECT_EQ(cls.home_ap_of_device, mem_cls.home_ap_of_device) << where;
    }
  }
}

// --- Once-per-open payload verification --------------------------------

// The first load of a shard rehashes every section; later loads of the
// same shard in the same open skip the rehash (header and manifest
// identity checks still run). Observable: corrupting the payload
// *after* a verified load must not produce a checksum error on reload,
// while a fresh open catches it again.
TEST(ShardStore, PayloadVerifiedOncePerOpen) {
  const ScenarioConfig config =
      scenario_config(Year::Y2015, kShardTestScale);
  test::ScratchDir tmp;
  io::ShardedDataset store = stream_and_open(config, tmp.path / "store", 3);

  Dataset out;
  ASSERT_TRUE(store.load_shard(0, out).ok());
  const fs::path shard = tmp.path / "store" / "shard-0000.tksnap";
  flip_byte(shard, fs::file_size(shard) - 128);

  // Reload skips the rehash: no checksum error. (The flipped byte may
  // still trip structural validation, which is fine — the point is that
  // the section rehash did not run.)
  const io::SnapshotResult again = store.load_shard(0, out);
  EXPECT_EQ(again.error.find("checksum"), std::string::npos) << again.error;

  // A fresh open starts a fresh verification epoch and catches it.
  io::ShardedDataset reopened;
  ASSERT_TRUE(io::ShardedDataset::open(tmp.path / "store", reopened).ok());
  const io::SnapshotResult fresh = reopened.load_shard(0, out);
  EXPECT_FALSE(fresh.ok());
  EXPECT_NE(fresh.error.find("checksum"), std::string::npos) << fresh.error;
}

}  // namespace
}  // namespace tokyonet
