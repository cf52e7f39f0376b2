#include "io/snapshot.h"

#include <algorithm>
#include <array>
#include <cerrno>
#include <cinttypes>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <tuple>
#include <vector>

#include "core/dataset_index.h"
#include "core/hash.h"
#include "core/parallel.h"

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#define TOKYONET_HAVE_MMAP 1
#else
#define TOKYONET_HAVE_MMAP 0
#endif

namespace tokyonet::io {
namespace {

namespace fs = std::filesystem;

// --- On-disk layout ----------------------------------------------------

constexpr char kMagic[8] = {'T', 'K', 'Y', 'O', 'S', 'N', 'P', '1'};

enum SectionId : std::uint32_t {
  kSecDevices = 0,   // DeviceInfo[n]
  kSecApFixed,       // ApRec[n]
  kSecApEssids,      // byte blob referenced by ApRec
  kSecDeviceRanges,  // DeviceRangeRec[n devices]
  kSecSurvey,        // SurveyResponse[n]
  kSecTruthDevices,  // TruthDeviceRec[n]
  kSecTruthCapped,   // byte blob referenced by TruthDeviceRec
  kSecTruthAps,      // ApTruth[n]
  // One section per app-record column, in AppColumns order, then one
  // per sample column, in SampleColumns order (zero-copy targets).
  kSecApps,
  kSecSamples = kSecApps + AppColumns::kNumColumns,
  kNumSections = kSecSamples + SampleColumns::kNumColumns,
};

/// One device's slice of the sample columns and of the app traffic: the
/// stored half of core::SampleLayout. Device d's rows start where
/// device d - 1's end (device 0's at row 0).
struct DeviceRangeRec {
  std::uint64_t sample_end = 0;
  std::uint64_t app_begin = 0;
  std::uint64_t app_end = 0;
};
static_assert(sizeof(DeviceRangeRec) == 24);

/// Fixed-width mirror of ApInfo; the ESSID lives in the essid blob.
struct ApRec {
  std::uint64_t bssid = 0;
  std::uint32_t essid_offset = 0;
  std::uint16_t essid_len = 0;
  std::uint8_t band = 0;
  std::uint8_t channel = 0;
};
static_assert(sizeof(ApRec) == 16);

/// Fixed-width mirror of DeviceTruth; capped_day lives in the capped
/// blob. `flags` bit order below.
struct TruthDeviceRec {
  float wifi_off_propensity = 0;
  float demand_mu = 0;
  float demand_sigma = 0;
  std::int32_t update_bin = -1;
  std::uint32_t home_ap = 0;
  std::uint32_t office_ap = 0;
  std::uint32_t capped_offset = 0;
  std::uint32_t capped_len = 0;
  std::uint16_t home_cell = 0;
  std::uint16_t office_cell = 0;
  std::uint8_t archetype = 0;
  std::uint8_t occupation = 0;
  std::uint8_t flags = 0;
  std::uint8_t pad = 0;
};
static_assert(sizeof(TruthDeviceRec) == 40);

enum TruthFlags : std::uint8_t {
  kFlagHasHomeAp = 1u << 0,
  kFlagWorksAtOffice = 1u << 1,
  kFlagOfficeByod = 1u << 2,
  kFlagUsesPublicWifi = 1u << 3,
  kFlagIsTetherer = 1u << 4,
};

struct RawHeader {
  char magic[8] = {};
  std::uint32_t version = 0;
  std::uint32_t section_count = 0;
  std::uint32_t year = 0;  // calendar year, 2013..2015
  std::int32_t start_year = 0;
  std::uint32_t start_month = 0;
  std::uint32_t start_day = 0;
  std::uint32_t num_days = 0;
  std::uint32_t pad0 = 0;
  /// Per-section record size (1 for byte blobs); rejects readers whose
  /// native struct layout differs from the writer's.
  std::uint32_t record_sizes[kNumSections] = {};
  /// Per-section record count (byte count for blobs).
  std::uint64_t counts[kNumSections] = {};
  std::uint64_t scenario_hash = 0;
  std::uint64_t header_checksum = 0;  // over header (this field = 0) + table
};
static_assert(sizeof(RawHeader) == 392);
static_assert(sizeof(SnapshotSection) == 32);

/// Bytes of the header fields that locate the version: every snapshot
/// version starts with the magic and the version number, so a reader
/// can reject another version before anything else.
constexpr std::size_t kVersionPrefix = sizeof(kMagic) + sizeof(std::uint32_t);

[[nodiscard]] const std::array<std::uint32_t, kNumSections>& record_sizes() {
  static const std::array<std::uint32_t, kNumSections> sizes = [] {
    std::array<std::uint32_t, kNumSections> r = {
        sizeof(DeviceInfo),     sizeof(ApRec), 1, sizeof(DeviceRangeRec),
        sizeof(SurveyResponse), sizeof(TruthDeviceRec), 1, sizeof(ApTruth)};
    std::size_t s = kSecApps;
    const auto width = [&](const auto& c) {
      r[s++] = sizeof(typename std::decay_t<decltype(c)>::value_type);
    };
    const AppColumns apps;
    const SampleColumns samples;
    AppColumns::for_each(width, apps);
    SampleColumns::for_each(width, samples);
    return r;
  }();
  return sizes;
}

static_assert(std::is_trivially_copyable_v<DeviceInfo> &&
              std::is_trivially_copyable_v<SurveyResponse> &&
              std::is_trivially_copyable_v<ApTruth>);

// No compiler-inserted padding in anything serialized raw: padding
// bytes are indeterminate, so they would make snapshot bytes depend on
// prior heap contents — breaking the byte-level write determinism the
// streaming shard writer (sim/stream_runner.cc) and the shard-store
// tests rely on. Types that need alignment carry explicit zeroed
// `reserved`/`pad` fields instead.
static_assert(std::has_unique_object_representations_v<DeviceRangeRec> &&
              std::has_unique_object_representations_v<DeviceInfo> &&
              std::has_unique_object_representations_v<SurveyResponse> &&
              std::has_unique_object_representations_v<ApTruth> &&
              std::has_unique_object_representations_v<ApRec> &&
              std::has_unique_object_representations_v<SnapshotSection> &&
              std::has_unique_object_representations_v<RawHeader>);
// TruthDeviceRec holds floats (multiple representations of the same
// value), so assert only that it has no padding holes.
static_assert(sizeof(TruthDeviceRec) ==
              3 * sizeof(float) + sizeof(std::int32_t) +
                  4 * sizeof(std::uint32_t) + 2 * sizeof(std::uint16_t) +
                  4 * sizeof(std::uint8_t));

constexpr std::uint64_t kSectionAlign = 64;

[[nodiscard]] constexpr std::uint64_t align_up(std::uint64_t v) noexcept {
  return (v + kSectionAlign - 1) & ~(kSectionAlign - 1);
}

// --- Checksums ---------------------------------------------------------

constexpr std::uint64_t kHashSeed = 0x746B796F6E657431ull;

using core::hash_bytes;
using core::mix64;

/// Every section's checksum. A section of up to 4 MiB is one hash chain
/// whose value is its checksum; a larger one is one chain per fixed
/// 4 MiB chunk (chunk c under seed kHashSeed + 1 + c), folded in chunk
/// order. The chunking is part of the format: save and load both call
/// this. All chains are independent, so they run four at a time through
/// the interleaved core::hash_bytes_x4 kernel on the core/parallel pool,
/// longest first so that the four lanes of a group are of similar
/// length — the same values as hashing each chain alone.
[[nodiscard]] std::array<std::uint64_t, kNumSections> section_checksums(
    const void* const (&data)[kNumSections],
    const SnapshotSection (&table)[kNumSections]) {
  constexpr std::size_t kChunk = std::size_t{4} << 20;
  struct Chain {
    std::uint32_t section;
    std::uint64_t seed;
    const std::uint8_t* data;
    std::size_t bytes;
    std::uint64_t hash = 0;
  };
  std::vector<Chain> chains;
  for (std::uint32_t s = 0; s < kNumSections; ++s) {
    const auto* p = static_cast<const std::uint8_t*>(data[s]);
    const auto n = static_cast<std::size_t>(table[s].bytes);
    if (n <= kChunk) chains.push_back({s, kHashSeed, p, n});
    for (std::size_t at = 0; n > kChunk && at < n; at += kChunk) {
      chains.push_back(
          {s, kHashSeed + 1 + at / kChunk, p + at, std::min(kChunk, n - at)});
    }
  }
  std::sort(chains.begin(), chains.end(), [](const Chain& a, const Chain& b) {
    return a.bytes > b.bytes;
  });
  core::parallel_for((chains.size() + 3) / 4, [&](std::size_t g) {
    const void* lane_data[4] = {};
    std::size_t lane_bytes[4] = {};
    std::uint64_t lane_seed[4] = {};
    std::uint64_t out[4];
    const std::size_t lanes = std::min<std::size_t>(4, chains.size() - 4 * g);
    for (std::size_t l = 0; l < lanes; ++l) {
      const Chain& c = chains[4 * g + l];
      lane_data[l] = c.data;
      lane_bytes[l] = c.bytes;
      lane_seed[l] = c.seed;
    }
    core::hash_bytes_x4(lane_data, lane_bytes, lane_seed, out);
    for (std::size_t l = 0; l < lanes; ++l) chains[4 * g + l].hash = out[l];
  });

  // Back to section and chunk order for the fold.
  std::sort(chains.begin(), chains.end(), [](const Chain& a, const Chain& b) {
    return std::tie(a.section, a.seed) < std::tie(b.section, b.seed);
  });
  std::array<std::uint64_t, kNumSections> sums{};
  for (std::uint32_t s = 0; s < kNumSections; ++s) {
    sums[s] = mix64(kHashSeed ^ table[s].bytes);
  }
  for (const Chain& c : chains) {
    std::uint64_t& h = sums[c.section];
    h = table[c.section].bytes <= kChunk ? c.hash : mix64(h ^ c.hash);
  }
  return sums;
}

[[nodiscard]] std::uint64_t header_table_checksum(
    RawHeader header, const SnapshotSection (&table)[kNumSections]) noexcept {
  header.header_checksum = 0;
  const std::uint64_t a = hash_bytes(&header, sizeof(header), kHashSeed);
  return hash_bytes(table, sizeof(table), a);
}

/// The header description of a file with this header and table.
void describe(const RawHeader& header,
              const SnapshotSection (&table)[kNumSections],
              std::uint64_t file_bytes, SnapshotInfo& info) {
  info.version = header.version;
  info.year = static_cast<int>(header.year);
  info.start = Date{header.start_year, static_cast<int>(header.start_month),
                    static_cast<int>(header.start_day)};
  info.num_days = static_cast<int>(header.num_days);
  info.n_devices = header.counts[kSecDevices];
  info.n_aps = header.counts[kSecApFixed];
  info.n_samples = header.counts[kSecSamples];
  info.n_app_traffic = header.counts[kSecApps];
  info.scenario_hash = header.scenario_hash;
  info.file_bytes = file_bytes;
  info.header_checksum = header.header_checksum;
  info.sections.assign(table, table + kNumSections);
}

// --- File helpers ------------------------------------------------------

struct FileCloser {
  void operator()(std::FILE* f) const noexcept {
    if (f != nullptr) std::fclose(f);
  }
};
using File = std::unique_ptr<std::FILE, FileCloser>;

[[nodiscard]] bool write_all(std::FILE* f, const void* data,
                             std::size_t n) noexcept {
  return n == 0 || std::fwrite(data, 1, n, f) == n;
}

[[nodiscard]] bool read_all(std::FILE* f, void* data, std::size_t n) noexcept {
  return n == 0 || std::fread(data, 1, n, f) == n;
}

/// Size of the open file `f` (fstat on the descriptor, so the size and
/// a later mapping describe the same file even if `path` is replaced
/// meanwhile).
[[nodiscard]] bool open_file_size(std::FILE* f, const fs::path& path,
                                  std::uint64_t& out) {
#if TOKYONET_HAVE_MMAP
  (void)path;
  struct stat st{};
  if (::fstat(::fileno(f), &st) != 0) return false;
  out = static_cast<std::uint64_t>(st.st_size);
  return true;
#else
  (void)f;
  std::error_code ec;
  out = fs::file_size(path, ec);
  return !ec;
#endif
}

/// Read-only mmap of a whole file, shared so borrowed Columns can pin it.
class MappedFile {
 public:
  /// Maps the open file `f`, which must still be `expected_bytes` long.
  [[nodiscard]] static std::shared_ptr<MappedFile> open(
      std::FILE* f, std::uint64_t expected_bytes) {
#if TOKYONET_HAVE_MMAP
    if (expected_bytes == 0) return nullptr;
    const int fd = ::fileno(f);
    struct stat st{};
    if (::fstat(fd, &st) != 0 ||
        static_cast<std::uint64_t>(st.st_size) != expected_bytes) {
      return nullptr;
    }
    void* addr = ::mmap(nullptr, static_cast<std::size_t>(expected_bytes),
                        PROT_READ, MAP_PRIVATE, fd, 0);
    if (addr == MAP_FAILED) return nullptr;
    return std::shared_ptr<MappedFile>(
        new MappedFile(addr, static_cast<std::size_t>(expected_bytes)));
#else
    (void)f;
    (void)expected_bytes;
    return nullptr;
#endif
  }

  ~MappedFile() {
#if TOKYONET_HAVE_MMAP
    ::munmap(addr_, size_);
#endif
  }

  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  [[nodiscard]] const std::uint8_t* data() const noexcept {
    return static_cast<const std::uint8_t*>(addr_);
  }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

 private:
  MappedFile(void* addr, std::size_t size) : addr_(addr), size_(size) {}
  void* addr_ = nullptr;
  std::size_t size_ = 0;
};

[[nodiscard]] std::string path_err(const fs::path& path,
                                   const std::string& what) {
  return path.string() + ": " + what;
}

}  // namespace

// --- Save --------------------------------------------------------------

SnapshotResult save_snapshot(const Dataset& ds, const fs::path& path,
                             std::uint64_t scenario_hash, SnapshotInfo* info) {
  SnapshotResult result;

  // Flatten the variable-width parts: ESSIDs and capped-day bitmaps.
  std::vector<ApRec> ap_recs(ds.aps.size());
  std::string essid_blob;
  for (std::size_t i = 0; i < ds.aps.size(); ++i) {
    const ApInfo& ap = ds.aps[i];
    if (ap.essid.size() > 0xFFFF) {
      result.error = path_err(path, "ESSID of AP " + std::to_string(i) +
                                        " exceeds 65535 bytes");
      return result;
    }
    ApRec& r = ap_recs[i];
    r.bssid = ap.bssid;
    r.essid_offset = static_cast<std::uint32_t>(essid_blob.size());
    r.essid_len = static_cast<std::uint16_t>(ap.essid.size());
    r.band = static_cast<std::uint8_t>(ap.band);
    r.channel = ap.channel;
    essid_blob += ap.essid;
    if (essid_blob.size() > 0xFFFFFFFFull) {
      result.error = path_err(path, "ESSID blob exceeds 4 GiB");
      return result;
    }
  }

  std::vector<TruthDeviceRec> truth_recs(ds.truth.devices.size());
  std::vector<std::uint8_t> capped_blob;
  for (std::size_t i = 0; i < ds.truth.devices.size(); ++i) {
    const DeviceTruth& t = ds.truth.devices[i];
    TruthDeviceRec& r = truth_recs[i];
    r.wifi_off_propensity = t.wifi_off_propensity;
    r.demand_mu = t.demand_mu;
    r.demand_sigma = t.demand_sigma;
    r.update_bin = t.update_bin;
    r.home_ap = value(t.home_ap);
    r.office_ap = value(t.office_ap);
    r.capped_offset = static_cast<std::uint32_t>(capped_blob.size());
    r.capped_len = static_cast<std::uint32_t>(t.capped_day.size());
    r.home_cell = t.home_cell;
    r.office_cell = t.office_cell;
    r.archetype = static_cast<std::uint8_t>(t.archetype);
    r.occupation = static_cast<std::uint8_t>(t.occupation);
    r.flags = static_cast<std::uint8_t>(
        (t.has_home_ap ? kFlagHasHomeAp : 0) |
        (t.works_at_office ? kFlagWorksAtOffice : 0) |
        (t.office_has_byod_wifi ? kFlagOfficeByod : 0) |
        (t.uses_public_wifi ? kFlagUsesPublicWifi : 0) |
        (t.is_tetherer ? kFlagIsTetherer : 0));
    capped_blob.insert(capped_blob.end(), t.capped_day.begin(),
                       t.capped_day.end());
    if (capped_blob.size() > 0xFFFFFFFFull) {
      result.error = path_err(path, "capped-day blob exceeds 4 GiB");
      return result;
    }
  }

  // Per-device ranges: the sample layout (all empty without samples).
  std::vector<DeviceRangeRec> ranges(ds.devices.size());
  if (ds.indexed()) {
    const core::DatasetIndex& idx = ds.index();
    for (std::size_t d = 0; d < ranges.size(); ++d) {
      ranges[d] = {idx.device_end(d), idx.device_app_begin(d),
                   idx.device_app_end(d)};
    }
  } else if (!ds.samples.empty()) {
    result.error = path_err(path, "dataset has no sample layout to save");
    return result;
  }

  // Section payloads, by id.
  const void* payloads[kNumSections] = {
      ds.devices.data(),   ap_recs.data(),     essid_blob.data(),
      ranges.data(),       ds.survey.data(),   truth_recs.data(),
      capped_blob.data(),  ds.truth.aps.data(),
  };
  std::uint64_t counts[kNumSections] = {
      ds.devices.size(),   ap_recs.size(),     essid_blob.size(),
      ranges.size(),       ds.survey.size(),   truth_recs.size(),
      capped_blob.size(),  ds.truth.aps.size(),
  };
  std::size_t col = kSecApps;
  const auto column = [&](const auto& c) {
    payloads[col] = c.data();
    counts[col++] = c.size();
  };
  AppColumns::for_each(column, ds.app_traffic);
  SampleColumns::for_each(column, ds.samples);
  const std::array<std::uint32_t, kNumSections>& sizes = record_sizes();

  RawHeader header{};
  std::memcpy(header.magic, kMagic, sizeof(kMagic));
  header.version = kSnapshotVersion;
  header.section_count = kNumSections;
  header.year = static_cast<std::uint32_t>(year_number(ds.year));
  const Date start = ds.calendar.start_date();
  header.start_year = start.year;
  header.start_month = static_cast<std::uint32_t>(start.month);
  header.start_day = static_cast<std::uint32_t>(start.day);
  header.num_days = static_cast<std::uint32_t>(ds.num_days());
  for (std::uint32_t s = 0; s < kNumSections; ++s) {
    header.record_sizes[s] = sizes[s];
    header.counts[s] = counts[s];
  }
  header.scenario_hash = scenario_hash;

  SnapshotSection table[kNumSections] = {};
  std::uint64_t offset = align_up(sizeof(RawHeader) + sizeof(table));
  for (std::uint32_t s = 0; s < kNumSections; ++s) {
    table[s].id = s;
    table[s].offset = offset;
    table[s].bytes = counts[s] * sizes[s];
    offset = align_up(offset + table[s].bytes);
  }
  const std::array<std::uint64_t, kNumSections> sums =
      section_checksums(payloads, table);
  for (std::uint32_t s = 0; s < kNumSections; ++s) {
    table[s].checksum = sums[s];
  }
  header.header_checksum = header_table_checksum(header, table);

  // Single sequential pass into a temp file, renamed over `path` on
  // success so readers never observe a half-written snapshot.
  const fs::path tmp = path.string() + ".tmp";
  {
    File f(std::fopen(tmp.string().c_str(), "wb"));
    if (!f) {
      result.error = path_err(tmp, std::strerror(errno));
      return result;
    }
    static constexpr char kZeros[kSectionAlign] = {};
    std::uint64_t pos = sizeof(RawHeader) + sizeof(table);
    bool ok = write_all(f.get(), &header, sizeof(header)) &&
              write_all(f.get(), table, sizeof(table));
    for (std::uint32_t s = 0; ok && s < kNumSections; ++s) {
      ok = write_all(f.get(), kZeros,
                     static_cast<std::size_t>(table[s].offset - pos)) &&
           write_all(f.get(), payloads[s],
                     static_cast<std::size_t>(table[s].bytes));
      pos = table[s].offset + table[s].bytes;
    }
    ok = ok && std::fflush(f.get()) == 0;
    if (!ok) {
      result.error = path_err(tmp, "write failed");
      f.reset();
      std::error_code ec;
      fs::remove(tmp, ec);
      return result;
    }
  }
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) {
    result.error = path_err(path, "rename failed: " + ec.message());
    fs::remove(tmp, ec);
  } else if (info != nullptr) {
    const SnapshotSection& last = table[kNumSections - 1];
    describe(header, table, last.offset + last.bytes, *info);
  }
  return result;
}

// --- Load --------------------------------------------------------------

namespace {

[[nodiscard]] std::string version_error(std::uint32_t version) {
  return "unsupported snapshot version " + std::to_string(version) +
         " (this build reads " + std::to_string(kSnapshotVersion) + ")";
}

/// Parses and sanity-checks header + section table; fills `info`.
[[nodiscard]] SnapshotResult check_header(
    const fs::path& path, std::uint64_t file_bytes, const RawHeader& header,
    const SnapshotSection (&table)[kNumSections], SnapshotInfo& info) {
  SnapshotResult result;
  const auto fail = [&](const std::string& what) {
    result.error = path_err(path, what);
    return result;
  };

  if (std::memcmp(header.magic, kMagic, sizeof(kMagic)) != 0) {
    return fail("bad magic (not a tokyonet snapshot)");
  }
  if (header.version != kSnapshotVersion) {
    return fail(version_error(header.version));
  }
  if (header.section_count != kNumSections) {
    return fail("expected " + std::to_string(kNumSections) +
                " sections, found " + std::to_string(header.section_count));
  }
  const std::array<std::uint32_t, kNumSections>& sizes = record_sizes();
  for (std::uint32_t s = 0; s < kNumSections; ++s) {
    if (header.record_sizes[s] != sizes[s]) {
      return fail("record size mismatch in section " + std::to_string(s) +
                  " (incompatible writer layout)");
    }
  }
  if (header_table_checksum(header, table) != header.header_checksum) {
    return fail("header checksum mismatch (corrupted file)");
  }
  if (header.year < 2013 || header.year > 2015) {
    return fail("campaign year " + std::to_string(header.year) +
                " out of range");
  }
  if (header.start_month < 1 || header.start_month > 12 ||
      header.start_day < 1 || header.start_day > 31 ||
      std::uint64_t{header.num_days} * kBinsPerDay > 0xFFFF) {
    return fail("implausible calendar");
  }

  std::uint64_t prev_end = align_up(sizeof(RawHeader) + sizeof(table));
  for (std::uint32_t s = 0; s < kNumSections; ++s) {
    if (table[s].id != s || table[s].offset % kSectionAlign != 0 ||
        table[s].offset < prev_end) {
      return fail("malformed section table");
    }
    if (header.counts[s] > file_bytes / sizes[s] ||
        table[s].bytes != header.counts[s] * sizes[s] ||
        table[s].offset > file_bytes ||
        table[s].bytes > file_bytes - table[s].offset) {
      return fail("section " + std::to_string(s) +
                  " exceeds the file (truncated?)");
    }
    prev_end = table[s].offset + table[s].bytes;
  }
  // The writer ends the file right after the last section, so any other
  // size means the file was truncated or extended after it was written.
  if (prev_end != file_bytes) {
    return fail("file is " + std::to_string(file_bytes) +
                " bytes, its section table implies " +
                std::to_string(prev_end) + " (truncated or extended?)");
  }
  for (std::uint32_t s = kSecSamples; s < kNumSections; ++s) {
    if (header.counts[s] != header.counts[kSecSamples]) {
      return fail("sample columns differ in length");
    }
  }
  for (std::uint32_t s = kSecApps; s < kSecSamples; ++s) {
    if (header.counts[s] != header.counts[kSecApps]) {
      return fail("app record columns differ in length");
    }
  }
  if (header.counts[kSecDeviceRanges] != header.counts[kSecDevices]) {
    return fail("device range count does not match the device count");
  }
  if (header.counts[kSecSurvey] != 0 &&
      header.counts[kSecSurvey] != header.counts[kSecDevices]) {
    return fail("survey row count does not match the device count");
  }
  if (header.counts[kSecTruthDevices] != 0 &&
      header.counts[kSecTruthDevices] != header.counts[kSecDevices]) {
    return fail("ground-truth device count does not match the device count");
  }
  if (header.counts[kSecTruthAps] != 0 &&
      header.counts[kSecTruthAps] != header.counts[kSecApFixed]) {
    return fail("ground-truth AP count does not match the AP count");
  }

  describe(header, table, file_bytes, info);
  return result;
}

}  // namespace

namespace {

/// Opens `path` and reads and checks its header and section table. The
/// size is taken from the open descriptor, so a later mapping of `f`
/// sees the file the header was checked against.
[[nodiscard]] SnapshotResult open_snapshot(
    const fs::path& path, File& f, RawHeader& header,
    SnapshotSection (&table)[kNumSections], SnapshotInfo& info) {
  SnapshotResult result;
  f.reset(std::fopen(path.string().c_str(), "rb"));
  if (!f) {
    result.error = path_err(path, std::strerror(errno));
    return result;
  }
  std::uint64_t file_bytes = 0;
  if (!open_file_size(f.get(), path, file_bytes)) {
    result.error = path_err(path, "cannot stat");
    return result;
  }
  // Every version starts with the magic and the version number, so a
  // file of another version is named as such whatever its size.
  const auto head = static_cast<std::size_t>(
      std::min<std::uint64_t>(file_bytes, sizeof(RawHeader)));
  header = RawHeader{};
  if (!read_all(f.get(), &header, head)) {
    result.error = path_err(path, "short read on header");
    return result;
  }
  if (head >= kVersionPrefix &&
      std::memcmp(header.magic, kMagic, sizeof(kMagic)) == 0 &&
      header.version != kSnapshotVersion) {
    result.error = path_err(path, version_error(header.version));
    return result;
  }
  if (file_bytes < sizeof(RawHeader) + sizeof(SnapshotSection) * kNumSections) {
    result.error = path_err(path, "file too small to be a snapshot");
    return result;
  }
  if (!read_all(f.get(), table, sizeof(table))) {
    result.error = path_err(path, "short read on header");
    return result;
  }
  return check_header(path, file_bytes, header, table, info);
}

}  // namespace

SnapshotResult load_snapshot(const fs::path& path, Dataset& out,
                             const SnapshotLoadOptions& opts,
                             SnapshotInfo* info_out) {
  out = Dataset{};
  SnapshotInfo info;
  File f;
  RawHeader header;
  SnapshotSection table[kNumSections];
  SnapshotResult result = open_snapshot(path, f, header, table, info);
  if (!result.ok()) return result;
  if (opts.expect_header_checksum &&
      info.header_checksum != *opts.expect_header_checksum) {
    result.error = path_err(path, "file changed since the store was opened");
    return result;
  }

  // Map when possible; otherwise read the whole file — whose size the
  // header check tied to the section table — into owned memory.
  // Checksums are verified either way before any data is used.
  std::shared_ptr<MappedFile> map;
  if (opts.allow_mmap) map = MappedFile::open(f.get(), info.file_bytes);
  info.mapped = map != nullptr;
  std::vector<std::uint8_t> owned;
  if (!map) {
    owned.resize(static_cast<std::size_t>(info.file_bytes));
    if (std::fseek(f.get(), 0, SEEK_SET) != 0 ||
        !read_all(f.get(), owned.data(), owned.size())) {
      result.error = path_err(path, "short read (truncated?)");
      return result;
    }
  }
  const std::uint8_t* const base = map ? map->data() : owned.data();
  const std::uint8_t* section_data[kNumSections] = {};
  const void* section_void[kNumSections] = {};
  for (std::uint32_t s = 0; s < kNumSections; ++s) {
    section_data[s] = base + table[s].offset;
    section_void[s] = section_data[s];
  }
  // Callers that already verified this file's payload in the same
  // process (io/shard_store's once-per-open discipline) may skip the
  // rehash; the header + section-table checksum above always runs.
  if (opts.verify_payload) {
    const std::array<std::uint64_t, kNumSections> sums =
        section_checksums(section_void, table);
    for (std::uint32_t s = 0; s < kNumSections; ++s) {
      if (sums[s] != table[s].checksum) {
        result.error = path_err(
            path, "checksum mismatch in section " + std::to_string(s) +
                      " (corrupted file)");
        return result;
      }
    }
  }

  // --- Materialize the Dataset ---------------------------------------
  out.year = static_cast<Year>(info.year - 2013);
  if (info.num_days >= 1) {
    out.calendar = CampaignCalendar(info.start, info.num_days);
  }

  const auto count_of = [&](std::uint32_t s) {
    return static_cast<std::size_t>(header.counts[s]);
  };

  const auto copy_into = [](void* dst, const std::uint8_t* src,
                            std::size_t bytes) {
    if (bytes > 0) std::memcpy(dst, src, bytes);
  };

  // DeviceInfo::recruited is a bool: a byte other than 0 or 1 would be
  // undefined behaviour to read, so check the raw bytes first.
  for (std::size_t i = 0; i < count_of(kSecDevices); ++i) {
    if (section_data[kSecDevices][i * sizeof(DeviceInfo) +
                                  offsetof(DeviceInfo, recruited)] > 1) {
      result.error = path_err(path, "device " + std::to_string(i) +
                                        " has a non-boolean recruited flag");
      return result;
    }
  }
  out.devices.resize(count_of(kSecDevices));
  copy_into(out.devices.data(), section_data[kSecDevices],
            out.devices.size() * sizeof(DeviceInfo));

  {
    const auto* recs =
        reinterpret_cast<const ApRec*>(section_data[kSecApFixed]);
    const char* blob =
        reinterpret_cast<const char*>(section_data[kSecApEssids]);
    const std::size_t blob_size = count_of(kSecApEssids);
    std::vector<ApInfo>& aps = out.aps.mut();
    aps.resize(count_of(kSecApFixed));
    for (std::size_t i = 0; i < aps.size(); ++i) {
      const ApRec& r = recs[i];
      if (std::uint64_t{r.essid_offset} + r.essid_len > blob_size) {
        result.error = path_err(
            path, "AP " + std::to_string(i) + " ESSID reference out of range");
        return result;
      }
      ApInfo& ap = aps[i];
      ap.bssid = r.bssid;
      ap.essid.assign(blob + r.essid_offset, r.essid_len);
      ap.band = static_cast<Band>(r.band);
      ap.channel = r.channel;
    }
  }

  // The app-record and sample columns are served zero-copy from
  // the mapping when there is one: the Columns borrow the mapped arrays
  // and share ownership of it. Section offsets are 64-byte aligned, so
  // the record alignment requirement is always met.
  const auto install = [&](auto& column, std::uint32_t s) {
    using T = typename std::decay_t<decltype(column)>::value_type;
    const auto* records = reinterpret_cast<const T*>(section_data[s]);
    if (map) {
      column = std::decay_t<decltype(column)>::borrowed(
          {records, count_of(s)}, map);
    } else {
      column.resize_for_overwrite(count_of(s));
      copy_into(column.data(), section_data[s], count_of(s) * sizeof(T));
    }
  };
  std::uint32_t col = kSecApps;
  AppColumns::for_each([&](auto& c) { install(c, col++); }, out.app_traffic);
  SampleColumns::for_each([&](auto& c) { install(c, col++); }, out.samples);

  out.survey.resize(count_of(kSecSurvey));
  copy_into(out.survey.data(), section_data[kSecSurvey],
            out.survey.size() * sizeof(SurveyResponse));

  {
    const auto* recs =
        reinterpret_cast<const TruthDeviceRec*>(section_data[kSecTruthDevices]);
    const auto* blob = section_data[kSecTruthCapped];
    const std::size_t blob_size = count_of(kSecTruthCapped);
    out.truth.devices.resize(count_of(kSecTruthDevices));
    for (std::size_t i = 0; i < out.truth.devices.size(); ++i) {
      const TruthDeviceRec& r = recs[i];
      if (std::uint64_t{r.capped_offset} + r.capped_len > blob_size) {
        result.error =
            path_err(path, "device " + std::to_string(i) +
                               " capped-day reference out of range");
        return result;
      }
      DeviceTruth& t = out.truth.devices[i];
      t.wifi_off_propensity = r.wifi_off_propensity;
      t.demand_mu = r.demand_mu;
      t.demand_sigma = r.demand_sigma;
      t.update_bin = r.update_bin;
      t.home_ap = ApId{r.home_ap};
      t.office_ap = ApId{r.office_ap};
      t.home_cell = r.home_cell;
      t.office_cell = r.office_cell;
      t.archetype = static_cast<UserArchetype>(r.archetype);
      t.occupation = static_cast<Occupation>(r.occupation);
      t.has_home_ap = (r.flags & kFlagHasHomeAp) != 0;
      t.works_at_office = (r.flags & kFlagWorksAtOffice) != 0;
      t.office_has_byod_wifi = (r.flags & kFlagOfficeByod) != 0;
      t.uses_public_wifi = (r.flags & kFlagUsesPublicWifi) != 0;
      t.is_tetherer = (r.flags & kFlagIsTetherer) != 0;
      t.capped_day.assign(blob + r.capped_offset,
                          blob + r.capped_offset + r.capped_len);
    }
  }

  {
    std::vector<ApTruth>& truth_aps = out.truth.aps.mut();
    truth_aps.resize(count_of(kSecTruthAps));
    copy_into(truth_aps.data(), section_data[kSecTruthAps],
              truth_aps.size() * sizeof(ApTruth));
  }

  // Shares the universe's tables rather than copying them.
  if (opts.universe != nullptr) {
    out.aps = opts.universe->aps;
    out.truth.aps = opts.universe->truth.aps;
  }

  // The sample layout, then the full validation of the dataset against
  // it; only a sound dataset is indexed and returned.
  core::SampleLayout layout;
  {
    const auto* recs =
        reinterpret_cast<const DeviceRangeRec*>(section_data[kSecDeviceRanges]);
    const std::size_t n = count_of(kSecDeviceRanges);
    layout.device_offset.resize(n + 1, 0);
    layout.app_range.resize(2 * n);
    for (std::size_t d = 0; d < n; ++d) {
      layout.device_offset[d + 1] = static_cast<std::size_t>(recs[d].sample_end);
      layout.app_range[2 * d] = static_cast<std::size_t>(recs[d].app_begin);
      layout.app_range[2 * d + 1] = static_cast<std::size_t>(recs[d].app_end);
    }
  }
  // A shared universe was validated when it was loaded (ShardedDataset::
  // open) and is immutable, so only this file's own contents are checked.
  const std::string invalid = out.index_samples(
      std::move(layout), opts.universe != nullptr
                             ? Dataset::UniverseCheck::Trusted
                             : Dataset::UniverseCheck::Full);
  if (!invalid.empty()) {
    out = Dataset{};
    result.error = path_err(path, "invalid dataset: " + invalid);
    return result;
  }

  if (info_out != nullptr) *info_out = info;
  return result;
}

SnapshotResult read_snapshot_info(const fs::path& path, SnapshotInfo& out) {
  out = SnapshotInfo{};
  File f;
  RawHeader header;
  SnapshotSection table[kNumSections];
  return open_snapshot(path, f, header, table, out);
}

// --- Campaign cache ----------------------------------------------------

fs::path cache_dir() {
  if (const char* env = std::getenv("TOKYONET_CACHE_DIR")) {
    if (env[0] != '\0') return fs::path(env);
  }
  return {};
}

fs::path campaign_cache_path(const fs::path& dir,
                             const ScenarioConfig& config) {
  char name[80];
  std::snprintf(name, sizeof(name), "campaign-v%u-%d-%016" PRIx64 ".tksnap",
                kSnapshotVersion, year_number(config.year),
                scenario_hash(config));
  return dir / name;
}

}  // namespace tokyonet::io
