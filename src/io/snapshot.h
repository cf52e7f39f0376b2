// Binary campaign snapshots: simulate once, mmap everywhere.
//
// A snapshot is a single versioned, checksummed file holding a full
// Dataset — devices, AP universe, the 10-minute sample stream, per-app
// traffic, survey answers, simulator ground truth and the calendar — in
// a flat columnar layout:
//
//   [ header | section table | 64-byte-aligned sections ... ]
//
// Each of the 17 sample columns and each of the 3 app-record columns
// (category, rx, tx: 9 bytes a record) is its own section, next to the
// per-device ranges that say which rows and app records belong to which
// device: 28 sections in all. Fixed-width record arrays are written with one bulk fwrite
// each; variable-width data (ESSIDs, per-device capped-day bitmaps) is
// split into a fixed record array plus a byte blob. Every section
// carries a 64-bit checksum computed in 4 MiB chunks on the
// core/parallel pool, so integrity verification of a multi-hundred-MB
// snapshot scales with cores.
//
// Loads map the file read-only and serve the big arrays (the sample
// and app-record columns) zero-copy as borrowed Columns pinning the
// mapping; non-mappable inputs (or allow_mmap = false) fall back to an
// owned read. Either way the file is fully verified first — magic,
// version, record sizes, section bounds, the file size the section
// table implies, checksums, then the Dataset validation — so a
// truncated or corrupted snapshot is a clean error, never UB.
//
// The format uses native (x86-64) field layout; the header records the
// record sizes and a version so an incompatible reader rejects the file
// instead of misreading it.
#pragma once

#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "core/records.h"
#include "core/scenario.h"

namespace tokyonet::io {

/// Bump on any change to the on-disk layout *or* to what a simulation
/// with a given scenario hash produces.
inline constexpr std::uint32_t kSnapshotVersion = 3;

/// Result of a snapshot operation; `ok()` is false on the first
/// structural problem and `error` names it.
struct SnapshotResult {
  std::string error;
  [[nodiscard]] bool ok() const noexcept { return error.empty(); }
};

/// One entry of the section table, as stored on disk.
struct SnapshotSection {
  std::uint32_t id = 0;
  std::uint32_t reserved = 0;
  std::uint64_t offset = 0;  // from file start; 64-byte aligned
  std::uint64_t bytes = 0;
  std::uint64_t checksum = 0;
};

/// Header-level description of a snapshot (no record data).
struct SnapshotInfo {
  std::uint32_t version = 0;
  int year = 0;  // calendar year, 2013..2015
  Date start{};
  int num_days = 0;
  std::uint64_t n_devices = 0;
  std::uint64_t n_aps = 0;
  std::uint64_t n_samples = 0;
  std::uint64_t n_app_traffic = 0;
  std::uint64_t scenario_hash = 0;  // 0 when unknown (manual save)
  std::uint64_t file_bytes = 0;
  /// Checksum over header + section table as stored in the file. The
  /// shard-store manifest (io/shard_store.h) records this per shard so
  /// directory verification can spot a swapped or regenerated file
  /// without rehashing its sections.
  std::uint64_t header_checksum = 0;
  /// Load only: true when the sample and app-record columns are served
  /// zero-copy from the mapped file.
  bool mapped = false;
  std::vector<SnapshotSection> sections;
};

/// Writes `ds` as a snapshot at `path` (atomically: a temp file in the
/// same directory is renamed over `path` on success). `scenario_hash`
/// tags the file with the scenario that produced it (0 = unknown).
[[nodiscard]] SnapshotResult save_snapshot(const Dataset& ds,
                                           const std::filesystem::path& path,
                                           std::uint64_t scenario_hash = 0);

struct SnapshotLoadOptions {
  /// When false, skip mmap and always read into owned memory.
  bool allow_mmap = true;
  /// The AP universe (aps and truth.aps) of a snapshot that carries
  /// none — a shard file, whose samples reference APs by global id — is
  /// shared from here (no copy) before validation (io/shard_store.cc).
  /// It must be a dataset load_snapshot returned: its own checks (AP
  /// bands, truth.aps size) are not repeated on every load.
  const Dataset* universe = nullptr;
  /// When set, a file whose header checksum differs is rejected before
  /// any section is read or hashed (a shard replaced since its store
  /// was opened).
  std::optional<std::uint64_t> expect_header_checksum;
  /// When false, skip the per-section payload checksum re-hash (the
  /// header and section-table checksum is always verified). Only for
  /// callers that have already payload-verified the same file in this
  /// process — io/shard_store verifies each shard once per open and
  /// skips the rehash on later loads (TOKYONET_SHARD_VERIFY=always
  /// restores the per-load rehash).
  bool verify_payload = true;
};

/// Loads and fully verifies a snapshot into `out`, which comes back
/// validated and indexed; `info` (optional) receives the header
/// description.
[[nodiscard]] SnapshotResult load_snapshot(const std::filesystem::path& path,
                                           Dataset& out,
                                           const SnapshotLoadOptions& opts = {},
                                           SnapshotInfo* info = nullptr);

/// Reads and verifies only the header and section table.
[[nodiscard]] SnapshotResult read_snapshot_info(
    const std::filesystem::path& path, SnapshotInfo& out);

// --- On-disk campaign cache ------------------------------------------
//
// When TOKYONET_CACHE_DIR is set, sim::cached_campaign() keys snapshots
// of simulated campaigns by (snapshot version, year, scenario hash) so
// every process after the first loads in milliseconds instead of
// re-simulating. Default off: an empty/unset variable disables caching.

/// Cache directory from TOKYONET_CACHE_DIR (empty path = disabled).
[[nodiscard]] std::filesystem::path cache_dir();

/// File name a campaign with this config gets inside `dir`:
/// campaign-v<version>-<year>-<scenario hash, hex>.tksnap
[[nodiscard]] std::filesystem::path campaign_cache_path(
    const std::filesystem::path& dir, const ScenarioConfig& config);

}  // namespace tokyonet::io
