// Sharded campaign store: a snapshot split into fixed device ranges so
// million-user campaigns stream to disk and back with bounded memory.
//
// A shard directory looks like:
//
//   <dir>/
//     MANIFEST.tks       text manifest, written last (tmp + rename)
//     universe.tksnap    snapshot holding only the AP universe
//     shard-0000.tksnap  snapshot of devices [0, n0)       (local ids)
//     shard-0001.tksnap  snapshot of devices [n0, n0+n1)   (local ids)
//     ...
//
// Each shard is an ordinary PR 2-format snapshot (io/snapshot.h) of a
// contiguous device range: its device ids, survey rows, ground truth
// and per-device app-traffic ranges are all *local* to the shard, so
// every shard is independently checksummed, mmappable and indexable. The
// one thing a shard omits is the AP universe — samples reference APs by
// global id, and the universe lives once in universe.tksnap instead of
// being duplicated per shard.
//
// The manifest records the store version, the scenario hash, campaign
// frame, global totals, and one line per shard with its device range,
// sizes and snapshot header checksum; a trailing whole-manifest
// checksum closes the file. Because the manifest is written only after
// every shard file is durably in place (and itself via tmp + rename), a
// writer killed mid-stream leaves a directory without MANIFEST.tks —
// detected and rejected, never half-read.
//
// ShardedDataset is the reader: it verifies the manifest and every
// shard's identity up front, keeps the universe resident (it is tiny
// next to the samples), and then serves shards one at a time —
// load_shard() materializes a single fully-validated, indexed Dataset
// per call, which is the out-of-core analysis contract: per-device
// kernels run shard by shard and their partials reduce in shard (=
// device) order, byte-identical to the in-memory run (DESIGN.md §5i).
// A store is only ever scanned that way, never copied back into one
// Dataset: each shard equals the one-shot simulator's slice of its
// device range — every field value, and the sample columns byte for
// byte (tests/shard_store_test.cc).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "core/records.h"
#include "io/snapshot.h"

namespace tokyonet::io {

/// Bump on any change to the manifest grammar or directory layout.
inline constexpr std::uint32_t kShardStoreVersion = 1;

/// Manifest file name inside a shard directory.
inline constexpr const char* kShardManifestName = "MANIFEST.tks";

/// One shard's manifest entry.
struct ShardEntry {
  std::uint32_t index = 0;
  std::string file;  // file name relative to the directory
  std::uint64_t device_begin = 0;
  std::uint64_t device_count = 0;
  std::uint64_t n_samples = 0;
  std::uint64_t n_app_traffic = 0;
  std::uint64_t file_bytes = 0;
  std::uint64_t header_checksum = 0;  // SnapshotInfo::header_checksum
};

/// Parsed manifest of a shard directory.
struct ShardManifest {
  std::uint32_t version = kShardStoreVersion;
  std::uint32_t snapshot_version = 0;
  int year = 0;  // calendar year, 2013..2015
  Date start{};
  int num_days = 0;
  std::uint64_t scenario_hash = 0;
  std::uint64_t n_devices = 0;
  std::uint64_t n_aps = 0;
  std::uint64_t n_samples = 0;
  std::uint64_t n_app_traffic = 0;
  std::string universe_file;
  std::uint64_t universe_bytes = 0;
  std::uint64_t universe_checksum = 0;  // universe header checksum
  std::vector<ShardEntry> shards;
};

/// True when `dir` looks like a shard directory (has MANIFEST.tks).
[[nodiscard]] bool is_shard_dir(const std::filesystem::path& dir);

/// Resident-shard budget from TOKYONET_RESIDENT_SHARDS (the K in
/// DESIGN.md §5j): 0 = strict sequential scan, 1 = prefetch one shard
/// ahead (the default), K >= 2 = scan K shards concurrently. Unset
/// values, and values that are not an integer in [0, 4096] (with a
/// warning, core/env.h), fall back to `fallback`; the CLI's
/// --resident-shards flag overrides this.
[[nodiscard]] std::size_t resident_shards_from_env(
    std::size_t fallback = 1) noexcept;

/// Writes `m` as <dir>/MANIFEST.tks atomically (tmp + rename). Call
/// only after every referenced file is in place: the manifest's
/// existence is the directory's commit record.
[[nodiscard]] SnapshotResult write_shard_manifest(
    const ShardManifest& m, const std::filesystem::path& dir);

/// Reads, checksum-verifies and structurally validates
/// <dir>/MANIFEST.tks: version, totals consistent with the entries, and
/// shard device ranges sorted, non-overlapping and covering exactly
/// [0, n_devices). Does not touch the shard files themselves.
[[nodiscard]] SnapshotResult read_shard_manifest(
    const std::filesystem::path& dir, ShardManifest& out);

/// Verifies every file the manifest references against it: existence,
/// byte size, snapshot header checksum, device count, campaign frame
/// and scenario hash. Header-only reads — section payloads are
/// checksum-verified later, when a shard is actually loaded.
[[nodiscard]] SnapshotResult verify_shard_store(
    const std::filesystem::path& dir, const ShardManifest& m);

class ShardedDataset {
 public:
  /// Opens `dir`: manifest read + full verify_shard_store(), then loads
  /// the AP universe into memory. On success `out` serves shards.
  [[nodiscard]] static SnapshotResult open(const std::filesystem::path& dir,
                                           ShardedDataset& out,
                                           const SnapshotLoadOptions& opts = {});

  [[nodiscard]] const ShardManifest& manifest() const noexcept {
    return manifest_;
  }
  [[nodiscard]] std::size_t num_shards() const noexcept {
    return manifest_.shards.size();
  }
  /// Global device index of shard `i`'s first device.
  [[nodiscard]] std::size_t device_begin(std::size_t i) const noexcept {
    return static_cast<std::size_t>(manifest_.shards[i].device_begin);
  }

  /// The resident AP universe and campaign frame (valid after open()).
  [[nodiscard]] const std::vector<ApInfo>& universe_aps() const noexcept {
    return universe_.aps;
  }
  [[nodiscard]] Year year() const noexcept { return universe_.year; }
  [[nodiscard]] const CampaignCalendar& calendar() const noexcept {
    return universe_.calendar;
  }

  /// Loads shard `i` as a self-contained Dataset: the file's size and
  /// header are checked against the manifest, the file is
  /// checksum-verified (mmapped when possible), the dataset shares the
  /// store's one AP universe table (no copy), and the sample columns
  /// are validated against their per-device ranges, which become the
  /// index. Device ids are shard-local; add device_begin(i) to rebase.
  /// Only the returned dataset's samples are resident — dropping it
  /// before loading the next shard keeps memory bounded by one shard.
  ///
  /// Payload checksums are verified once per open: the first load of a
  /// shard rehashes every section; later loads of the same shard skip
  /// the rehash (header and manifest identity checks always run).
  /// Thread-safe for distinct or equal `i` — the once-per-open
  /// bookkeeping is atomic.
  [[nodiscard]] SnapshotResult load_shard(std::size_t i, Dataset& out,
                                          const SnapshotLoadOptions& opts = {});

 private:
  std::filesystem::path dir_;
  ShardManifest manifest_;
  // The resident universe and campaign frame (small next to any shard's
  // samples).
  Dataset universe_;
  // Once-per-open payload verification: flag `i` is set after shard i's
  // section checksums verified in this process. Atomic so the
  // prefetcher's loader thread and direct load_shard() callers never
  // race on the bookkeeping.
  std::shared_ptr<std::atomic<bool>[]> payload_verified_;
};

/// Asynchronous shard loader for pipelined scans (DESIGN.md §5j): a
/// dedicated loader thread walks shards [0, num_shards) in order and
/// runs each full load_shard() — read, checksum, universe install,
/// column validation, with the heavy chunked work hosted on the
/// core/parallel pool — while the consumer scans already-delivered
/// shards. A token budget bounds residency: at most `max_resident`
/// shard datasets exist at once, counting both the loader's in-flight
/// load and every delivered shard whose Loaded is still alive. With
/// max_resident = 2 the loader is exactly one shard ahead of the
/// consumer (the double-buffered prefetch); the K-parallel scan uses
/// K + 1.
///
/// Delivery is strictly in shard order. A failed load — an error result,
/// or an exception load_shard() threw (e.g. std::bad_alloc) — is
/// delivered at its position as a Loaded carrying it, after which the
/// loader stops: the consumer sees the failure on its own thread, in
/// order, with no further shards behind it (no hang, no partial fold,
/// no exception escaping the loader thread).
class ShardPrefetcher {
 public:
  struct Loaded {
    std::size_t index = 0;
    Dataset dataset;
    SnapshotResult result;
    /// What load_shard() threw, if anything; the consumer rethrows it.
    std::exception_ptr exception;
    /// Releases this shard's residency token when destroyed; the loader
    /// cannot start shard j until fewer than max_resident tokens are
    /// outstanding.
    std::shared_ptr<void> token;
  };

  /// Starts loading immediately. `store` must be open and outlive this
  /// prefetcher. max_resident is clamped to >= 1.
  ShardPrefetcher(ShardedDataset& store, std::size_t max_resident,
                  const SnapshotLoadOptions& opts = {});
  /// Cancels and joins the loader.
  ~ShardPrefetcher();

  ShardPrefetcher(const ShardPrefetcher&) = delete;
  ShardPrefetcher& operator=(const ShardPrefetcher&) = delete;

  /// Blocks for the next shard in order. Returns false when every shard
  /// has been delivered (or the loader stopped after delivering an
  /// error).
  [[nodiscard]] bool next(Loaded& out);

  /// Asks the loader to stop after its current load; pending deliveries
  /// remain readable via next().
  void cancel();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace tokyonet::io
