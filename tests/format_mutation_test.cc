// Mutation sweep over the byte-level formats. A tiny snapshot, one
// shard of a two-shard store, the manifest of a three-shard store, each
// file of a CSV export and an ingest frame stream, all built here from
// hand-made rows, are truncated at every offset, flipped at every byte
// and hit with seeded multi-byte mutations. Every file mutant must load
// as a clean error, or as a dataset that validates (and, for snapshots,
// shards and CSV exports, renders the per-year figure catalog); every
// stream mutant must fail its session cleanly or commit rows the
// kernels answer consistently — never crash, report undefined
// behaviour or hang. The ASan job runs this suite.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstddef>
#include <cstdio>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <optional>
#include <random>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "analysis/incremental.h"
#include "core/hash.h"
#include "ingest/replay.h"
#include "ingest/server.h"
#include "io/csv.h"
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
  std::vector<test::Row> rows;
  for (std::uint32_t d = 0; d < count; ++d) {
    const std::uint32_t g = first + d;  // global device id
    ds.devices[d].os = g % 2 == 0 ? Os::Android : Os::Ios;
    for (int b = 0; b < 2 * kBinsPerDay; b += 9) {
      const bool assoc = (b / 9 + static_cast<int>(g)) % 3 == 0;
      test::Row& s = test::add_sample(
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

/// Writes the campaign as a store of `n_shards` contiguous device
/// ranges (two shards: devices [0, 2) and [2, 4)): a universe file, the
/// shard files and the manifest over them.
void write_store(const fs::path& dir, std::uint32_t n_shards) {
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

  for (std::uint32_t i = 0; i < n_shards; ++i) {
    const std::uint32_t begin = i * kDevices / n_shards;
    const std::uint32_t count = (i + 1) * kDevices / n_shards - begin;
    Dataset shard = tiny_campaign(begin, count);
    shard.aps = {};  // the universe file carries them
    shard.truth.aps = {};
    io::ShardEntry e;
    e.index = i;
    e.file = "shard-000" + std::to_string(i) + ".tksnap";
    e.device_begin = begin;
    e.device_count = count;
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

/// Calls `f(mutant, what)` for every truncation of `original`, every
/// single-byte flip and kSeededMutants seeded multi-byte mutations.
template <typename Bytes, typename F>
void for_each_mutant(const Bytes& original, F&& f) {
  for (std::size_t n = 0; n < original.size(); ++n) {
    f(Bytes(original.begin(),
            original.begin() + static_cast<std::ptrdiff_t>(n)),
      "truncated to " + std::to_string(n));
  }
  for (std::size_t i = 0; i < original.size(); ++i) {
    Bytes bytes = original;
    bytes[i] = static_cast<typename Bytes::value_type>(bytes[i] ^ 0x5A);
    f(bytes, "byte " + std::to_string(i) + " flipped");
  }
  std::mt19937_64 rng(0x6D757461);  // fixed seed: the sweep is replayable
  for (int m = 0; m < kSeededMutants; ++m) {
    Bytes bytes = original;
    const int edits = 2 + static_cast<int>(rng() % 7);
    for (int e = 0; e < edits; ++e) {
      bytes[rng() % bytes.size()] =
          static_cast<typename Bytes::value_type>(rng());
    }
    f(bytes, "seeded mutant " + std::to_string(m));
  }
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
    // Every field a kernel reads, so that each distinct dataset renders.
    std::uint64_t h = core::hash_bytes(&ds->year, sizeof(ds->year), 0);
    const Date start = ds->calendar.start_date();
    const int frame[] = {start.year, start.month, start.day,
                         ds->calendar.num_days()};
    h = core::hash_bytes(frame, sizeof(frame), h);
    for (const DeviceInfo& d : ds->devices) {
      const std::uint32_t fields[] = {
          value(d.id), static_cast<std::uint32_t>(d.os),
          static_cast<std::uint32_t>(d.carrier), d.recruited ? 1u : 0u};
      h = core::hash_bytes(fields, sizeof(fields), h);
    }
    for (const SurveyResponse& r : ds->survey) {
      const std::uint32_t fields[] = {
          static_cast<std::uint32_t>(r.occupation),
          static_cast<std::uint32_t>(r.connected[0]),
          static_cast<std::uint32_t>(r.connected[1]),
          static_cast<std::uint32_t>(r.connected[2]),
          r.reasons[0], r.reasons[1], r.reasons[2]};
      h = core::hash_bytes(fields, sizeof(fields), h);
    }
    SampleColumns::for_each(
        [&](const auto& c) {
          h = core::hash_bytes(c.data(), c.span().size_bytes(), h);
        },
        ds->samples);
    const core::SampleLayout& layout = ds->index().layout();
    for (const std::vector<std::size_t>* v :
         {&layout.device_offset, &layout.app_range}) {
      h = core::hash_bytes(v->data(), v->size() * sizeof(std::size_t), h);
    }
    AppColumns::for_each(
        [&](const auto& c) {
          h = core::hash_bytes(c.data(), c.span().size_bytes(), h);
        },
        ds->app_traffic);
    for (const ApInfo& ap : ds->aps) {
      const std::uint32_t fields[] = {static_cast<std::uint32_t>(ap.band),
                                      ap.channel};
      h = core::hash_bytes(fields, sizeof(fields), h);
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

  for_each_mutant(original, check);
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
  write_store(dir, 2);
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

// A CSV export (io/csv.h): each of its six files is swept in turn, the
// others left as written. A mutant either fails load_dataset_csv, which
// the CLI reports as exit 3, or loads a dataset that validates and
// renders the per-year catalog.
TEST(FormatMutation, CsvMutantsFailCleanlyOrLoadSound) {
  test::ScratchDir tmp;
  const fs::path dir = tmp.path / "csv";
  ASSERT_TRUE(io::save_dataset_csv(tiny_campaign(0, kDevices), dir).ok());
  for (const char* name : {"meta.csv", "devices.csv", "aps.csv",
                           "samples.csv", "apps.csv", "survey.csv"}) {
    SCOPED_TRACE(name);
    const fs::path file = dir / name;
    const std::vector<char> original = read_file(file);
    ASSERT_FALSE(original.empty());
    ASSERT_LE(original.size(), std::size_t{16} << 10);
    sweep(file, original, [&]() -> std::optional<Dataset> {
      Dataset ds;
      if (!io::load_dataset_csv(dir, ds).ok()) return std::nullopt;
      return ds;
    });
    write_file(file, original);
  }
}

/// `manifest` with its trailing checksum line recomputed over the body,
/// so a mutant reaches the line parser and the structural checks behind
/// the checksum. The body ends after the last "\nchecksum " (all of
/// `manifest` when there is none); the seed is the manifest format's
/// (io/shard_store.cc).
std::vector<char> reseal(const std::vector<char>& manifest) {
  constexpr std::uint64_t kManifestHashSeed = 0x746B736861726431ull;
  const std::string text(manifest.begin(), manifest.end());
  const std::size_t at = text.rfind("\nchecksum ");
  std::string body = at == std::string::npos ? text : text.substr(0, at + 1);
  char line[32];
  std::snprintf(line, sizeof(line), "checksum %016" PRIx64 "\n",
                core::hash_bytes(body.data(), body.size(), kManifestHashSeed));
  body += line;
  return {body.begin(), body.end()};
}

// The manifest of a three-shard store. Every mutant either fails
// ShardedDataset::open with an error, or opens a store whose every
// shard loads and validates. The checksum line rejects nearly every
// raw mutant, so the sweep runs twice: as mutated, and resealed.
TEST(FormatMutation, ShardManifestMutantsFailCleanly) {
  test::ScratchDir tmp;
  const fs::path dir = tmp.path / "store";
  write_store(dir, 3);
  const fs::path manifest = dir / io::kShardManifestName;
  const std::vector<char> original = read_file(manifest);
  ASSERT_EQ(reseal(original), original);

  int opened = 0;
  const auto check = [&](const std::vector<char>& bytes,
                         const std::string& what) {
    write_file(manifest, bytes);
    io::ShardedDataset store;
    if (!io::ShardedDataset::open(dir, store).ok()) return;
    ++opened;
    for (std::size_t i = 0; i < store.num_shards(); ++i) {
      Dataset ds;
      const io::SnapshotResult load = store.load_shard(i, ds);
      ASSERT_TRUE(load.ok()) << what << ": shard " << i << ": " << load.error;
      ASSERT_EQ(ds.validate(), "") << what << ": shard " << i;
    }
  };
  for_each_mutant(original, check);
  for_each_mutant(original, [&](const std::vector<char>& bytes,
                                const std::string& what) {
    check(reseal(bytes), what + ", resealed");
  });
  check(original, "original");
  EXPECT_GE(opened, 1);
}

// The ingest stream: Begin, the tiny campaign's rows in Records frames
// of 16 rows, End. Every mutant fed to a fresh 2-shard server either
// fails its session cleanly or is committed; either way, what was
// committed answers result() exactly as batch_stream_result answers
// collect().
TEST(FormatMutation, IngestFrameMutantsFailCleanlyOrCommitSound) {
  const Dataset ds = tiny_campaign(0, kDevices);
  struct Sink final : ingest::FrameSink {
    bool write(std::span<const std::uint8_t> b) override {
      bytes.insert(bytes.end(), b.begin(), b.end());
      return true;
    }
    std::vector<std::uint8_t> bytes;
  } sink;
  ingest::ReplayOptions opts;
  opts.batch_records = 16;
  ASSERT_TRUE(ingest::replay_dataset(ds, opts, sink));
  ASSERT_LE(sink.bytes.size(), std::size_t{8} << 10);

  int clean = 0;
  const auto check = [&](const std::vector<std::uint8_t>& bytes,
                         const std::string& what) {
    ingest::IngestServer server({.shards = 2});
    auto session = server.connect();
    const bool ok = session->feed(bytes) && session->finish();
    ASSERT_EQ(ok, session->error().empty()) << what;
    clean += ok ? 1 : 0;
    server.shutdown();
    const Dataset committed = server.collect();
    ASSERT_EQ(committed.validate(), "") << what;
    ASSERT_EQ(analysis::compare_stream_results(
                  server.result(), analysis::batch_stream_result(committed)),
              "")
        << what;
  };
  for_each_mutant(sink.bytes, check);
  check(sink.bytes, "original");
  EXPECT_GE(clean, 1);
}

/// Byte `b` of app-record column `col` (0 category, 1 rx, 2 tx): the
/// byte at offset `b` of that column's snapshot section or frame block.
std::uint8_t& app_column_byte(AppColumns& apps, std::size_t col,
                              std::size_t b) {
  void* const data[] = {apps.category.data(), apps.rx_bytes.data(),
                        apps.tx_bytes.data()};
  return static_cast<std::uint8_t*>(data[col])[b];
}

// The three app-record sections (category, rx, tx) hold the only bytes
// the shard-load validation reads as app records. With the payload
// checksum off, so that each mutated value reaches that validation,
// every byte of each is rewritten: an unknown category is refused and
// names its record; any other value loads, into exactly the record and
// field it was written over. With the checksum on, each mutant fails it.
TEST(FormatMutation, SnapshotAppColumnMutantsRefusedOrLoadAsWritten) {
  test::ScratchDir tmp;
  const fs::path file = tmp.path / "tiny.tksnap";
  const Dataset ds = tiny_campaign(0, kDevices);
  ASSERT_TRUE(io::save_snapshot(ds, file).ok());
  io::SnapshotInfo info;
  ASSERT_TRUE(io::read_snapshot_info(file, info).ok());
  const std::vector<char> original = read_file(file);
  const std::size_t n_apps = ds.app_traffic.size();
  ASSERT_GT(n_apps, 0u);
  // Sections 8, 9 and 10, after the eight fixed-record sections.
  constexpr std::uint32_t kFirstAppSection = 8;
  const std::size_t widths[] = {1, 4, 4};

  io::SnapshotLoadOptions unchecked;
  unchecked.verify_payload = false;
  int loaded = 0, refused = 0;
  for (std::uint32_t col = 0; col < 3; ++col) {
    const io::SnapshotSection& sec = info.sections[kFirstAppSection + col];
    ASSERT_EQ(sec.bytes, n_apps * widths[col]) << col;
    for (std::size_t b = 0; b < sec.bytes; ++b) {
      const std::size_t at = sec.offset + b;
      const auto was = static_cast<std::uint8_t>(original[at]);
      for (const int now : {was ^ 0x5A, 0xFF, kNumAppCategories}) {
        if (now == was) continue;
        std::vector<char> bytes = original;
        bytes[at] = static_cast<char>(now);
        write_file(file, bytes);
        const std::string what = "section " + std::to_string(col) +
                                 " byte " + std::to_string(b) + " = " +
                                 std::to_string(now);
        Dataset out;
        EXPECT_NE(io::load_snapshot(file, out).error.find("checksum mismatch"),
                  std::string::npos)
            << what;
        unchecked.allow_mmap = !unchecked.allow_mmap;
        const io::SnapshotResult r = io::load_snapshot(file, out, unchecked);
        if (col == 0 && now >= kNumAppCategories) {
          EXPECT_NE(r.error.find("app record " + std::to_string(b) +
                                 " has an unknown category"),
                    std::string::npos)
              << what << ": " << r.error;
          ++refused;
          continue;
        }
        ASSERT_TRUE(r.ok()) << what << ": " << r.error;
        ++loaded;
        AppColumns want = ds.app_traffic;
        app_column_byte(want, col, b) = static_cast<std::uint8_t>(now);
        AppColumns::for_each(
            [&](const auto& got, const auto& expected) {
              EXPECT_EQ(std::memcmp(got.data(), expected.data(),
                                    expected.span().size_bytes()),
                        0)
                  << what;
            },
            out.app_traffic, want);
      }
    }
  }
  EXPECT_GT(refused, 0);
  EXPECT_GT(loaded, 0);
}

// The app-record columns of every Records frame, rewritten byte by byte
// and resealed (payload CRC recomputed), so that each mutant reaches the
// server's run check: an unknown category fails the session and names
// the record; any other value is committed into exactly the record and
// field it was written over, and the incremental result still equals the
// batch result over what was committed.
TEST(FormatMutation, IngestAppColumnMutantsRefusedOrCommitAsWritten) {
  const Dataset ds = tiny_campaign(0, kDevices);
  struct Sink final : ingest::FrameSink {
    bool write(std::span<const std::uint8_t> b) override {
      bytes.insert(bytes.end(), b.begin(), b.end());
      return true;
    }
    std::vector<std::uint8_t> bytes;
  } sink;
  ingest::ReplayOptions opts;
  opts.batch_records = 16;
  ASSERT_TRUE(ingest::replay_dataset(ds, opts, sink));

  constexpr std::uint64_t kFrameHashSeed = 0x746B796F696E6731ull;
  const std::size_t widths[] = {1, 4, 4};
  int committed = 0, refused = 0;
  std::size_t first_record = 0;  // of the current frame, in campaign order
  for (std::size_t at = 0; at < sink.bytes.size();) {
    ingest::FrameHeader h;
    std::memcpy(&h, sink.bytes.data() + at, sizeof(h));
    const std::size_t payload = at + sizeof(h);
    const std::size_t apps_at =
        payload + std::size_t{h.n_samples} * ingest::sample_row_bytes();
    for (std::size_t b = 0;
         b < std::size_t{h.n_app} * ingest::app_row_bytes(); ++b) {
      const std::size_t col = b < h.n_app ? 0 : b < 5 * h.n_app ? 1 : 2;
      const std::size_t in_col =
          col == 0 ? b : col == 1 ? b - h.n_app : b - 5 * h.n_app;
      const std::uint8_t was = sink.bytes[apps_at + b];
      for (const int now : {was ^ 0x5A, kNumAppCategories}) {
        if (now == was || (col != 0 && now == kNumAppCategories)) continue;
        std::vector<std::uint8_t> bytes = sink.bytes;
        bytes[apps_at + b] = static_cast<std::uint8_t>(now);
        h.payload_crc = core::hash_bytes_striped(
            bytes.data() + payload, h.payload_bytes, kFrameHashSeed);
        std::memcpy(bytes.data() + at, &h, sizeof(h));
        const std::string what = "frame at " + std::to_string(at) +
                                 " app byte " + std::to_string(b) + " = " +
                                 std::to_string(now);

        ingest::IngestServer server({.shards = 2});
        auto session = server.connect();
        const bool ok = session->feed(bytes) && session->finish();
        server.shutdown();
        if (col == 0 && now >= kNumAppCategories) {
          EXPECT_FALSE(ok) << what;
          EXPECT_NE(session->error().find("unknown category"),
                    std::string::npos)
              << what << ": " << session->error();
          ++refused;
          continue;
        }
        ASSERT_TRUE(ok) << what << ": " << session->error();
        ++committed;
        const Dataset got = server.collect();
        AppColumns want = ds.app_traffic;
        app_column_byte(want, col, in_col + first_record * widths[col]) =
            static_cast<std::uint8_t>(now);
        AppColumns::for_each(
            [&](const auto& g, const auto& w) {
              ASSERT_EQ(g.size(), w.size()) << what;
              EXPECT_EQ(std::memcmp(g.data(), w.data(), w.span().size_bytes()),
                        0)
                  << what;
            },
            got.app_traffic, want);
        EXPECT_EQ(analysis::compare_stream_results(
                      server.result(), analysis::batch_stream_result(got)),
                  "")
            << what;
      }
    }
    first_record += h.n_app;
    at = payload + h.payload_bytes;
  }
  EXPECT_EQ(first_record, ds.app_traffic.size());
  EXPECT_GT(refused, 0);
  EXPECT_GT(committed, 0);
}

// Regression cases for what the sweep found: values that the kernels
// use as array indices, and a raw bool, are now part of validation.

TEST(FormatMutation, UnknownEnumValuesRejected) {
  Dataset ds = tiny_campaign(0, kDevices);
  ds.app_traffic.category[0] = static_cast<AppCategory>(88);
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
