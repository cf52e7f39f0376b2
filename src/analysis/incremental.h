// Incremental (streaming) versions of the core analysis kernels.
//
// The batch pipeline computes everything from a complete Dataset; the
// ingest path (src/ingest) instead receives per-device record batches
// one frame at a time and must answer analysis queries mid-stream. This
// module maintains online state for four kernels:
//
//   - macro traffic totals (per-interface byte sums, LTE share,
//     per-app-category volumes) — integer accumulators,
//   - per-user daily volumes (the `user_days` rollup),
//   - the WiFi/cellular traffic and WiFi-user weekly ratio profiles
//     (the class-free `traffic_all` / `users_all` halves of
//     `compute_wifi_ratios`),
//   - per-AP observation counts (association samples per ApId).
//
// Equivalence contract: after every record of a campaign has been fed
// (per device, in (device, bin) order — which sharding by device id
// preserves), `IncrementalAnalysis::result()` is **byte-identical** to
// `batch_stream_result()` over the same records, at any shard count.
// It follows from the one rule of DESIGN.md §5c: the totals, the AP
// counts and the two ratio profiles are exact integer sums kept per
// shard and added at query time; the daily rollup is a per-device
// product (doubles accumulated in that device's arrival order),
// concatenated in device-id order. `compare_stream_results` checks the
// contract bit-for-bit.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "analysis/common.h"
#include "core/sample_rows.h"

namespace tokyonet::analysis {

/// Order-independent integer totals over every record seen.
struct StreamTotals {
  std::uint64_t n_samples = 0;
  std::uint64_t n_app_records = 0;
  std::uint64_t cell_rx = 0, cell_tx = 0;
  std::uint64_t wifi_rx = 0, wifi_tx = 0;
  std::uint64_t lte_rx = 0;          // cell_rx carried while tech == LTE
  std::uint64_t assoc_samples = 0;   // wifi_state == Associated
  std::uint64_t tether_samples = 0;
  std::uint64_t app_rx[kNumAppCategories] = {};
  std::uint64_t app_tx[kNumAppCategories] = {};
};

/// One queryable snapshot of the streaming kernels.
struct StreamResult {
  StreamTotals totals;
  /// Per-device-per-day volumes, ordered by (device, day); exactly
  /// `user_days(ds)` (default options) for a complete stream.
  std::vector<UserDay> user_days;
  /// WiFi share of download per hour-of-week; exactly
  /// `compute_wifi_ratios(...).traffic_all` for a complete stream.
  WeeklyProfile wifi_traffic;
  /// Share of samples associated with WiFi per hour-of-week; exactly
  /// `compute_wifi_ratios(...).users_all` for a complete stream.
  WeeklyProfile wifi_users;
  /// Associated-sample count per ApId.
  std::vector<std::uint64_t> ap_observations;
};

/// Streaming accumulator. One instance serves all shards of an ingest
/// server: each device id is owned by exactly one shard
/// (`device % num_shards`), so shard workers touch disjoint per-device
/// state (the daily rollup); everything summed across devices (totals,
/// ratio profiles, AP counts) is kept per shard and added at query
/// time. All mutation and queries are
/// internally synchronized per shard, so `result()` may be called while
/// workers are committing.
class IncrementalAnalysis {
 public:
  /// State for a campaign starting at `start` with `num_days` days,
  /// `n_devices` devices and `n_aps` access points, committed by
  /// `num_shards` shard workers.
  IncrementalAnalysis(Date start, int num_days, std::uint32_t n_devices,
                      std::uint32_t n_aps, int num_shards);
  ~IncrementalAnalysis();  // out of line: members use incomplete types

  IncrementalAnalysis(const IncrementalAnalysis&) = delete;
  IncrementalAnalysis& operator=(const IncrementalAnalysis&) = delete;

  /// Commits one batch of records for one device. Must be called from
  /// the worker owning `shard`, with `value(device) % num_shards() ==
  /// shard`; a device's batches must arrive in (bin) order for the
  /// equivalence contract to hold. `app` holds the frame-local
  /// per-application records; each sample's `app_begin` indexes into it.
  void add_batch(int shard, DeviceId device, std::span<const Sample> samples,
                 std::span<const AppTraffic> app);

  /// Merges all shard partials into one result, in a fixed order that
  /// does not depend on the shard count. Safe mid-stream.
  [[nodiscard]] StreamResult result() const;

  [[nodiscard]] int num_shards() const noexcept {
    return static_cast<int>(shards_.size());
  }
  [[nodiscard]] std::uint32_t num_devices() const noexcept {
    return n_devices_;
  }

  /// Locks one shard's state, pausing its worker at the next commit.
  /// Used by tests (deterministic backpressure) and by operators who
  /// want several consistent reads in a row.
  [[nodiscard]] std::unique_lock<std::mutex> freeze_shard(int shard) const;

 private:
  struct DeviceState;
  struct ShardState;

  CampaignCalendar calendar_;
  std::uint32_t n_devices_ = 0;
  std::uint32_t n_aps_ = 0;
  /// Lazily materialized per-device accumulators; slot i is written only
  /// by the shard owning device i.
  std::vector<std::unique_ptr<DeviceState>> devices_;
  std::vector<std::unique_ptr<ShardState>> shards_;
};

/// The batch counterpart of `IncrementalAnalysis::result()`, computed
/// with the existing batch kernels (`user_days`, `compute_wifi_ratios`)
/// plus per-device reductions for the integer aggregates. Defined to be
/// byte-identical to streaming the same dataset through the ingest path.
[[nodiscard]] StreamResult batch_stream_result(const Dataset& ds);

/// Bit-exact comparison of two stream results (doubles are compared by
/// representation, not value). Returns "" when identical, else a
/// description of the first mismatch.
[[nodiscard]] std::string compare_stream_results(const StreamResult& a,
                                                 const StreamResult& b);

}  // namespace tokyonet::analysis
