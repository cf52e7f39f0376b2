// The streaming ingest path's result: what a live stream is asked.
//
// The ingest server (src/ingest) commits each device's frames as sample
// columns and answers queries, mid-stream or after it, by running
// batch_stream_result over a DataSource whose blocks are the committed
// columns. So the live stream and the archived campaign are answered
// by the same kernels:
//
//   - macro traffic totals (per-interface byte sums, LTE share,
//     per-app-category volumes) and per-AP observation counts —
//     integer sums, merged across blocks by reduce,
//   - per-user daily volumes (the `user_days` rollup), concatenated
//     across blocks in device order,
//   - the WiFi/cellular traffic and WiFi-user weekly ratio profiles
//     (the class-free `traffic_all` / `users_all` halves of
//     `compute_wifi_ratios`).
//
// Every merge is exact (DESIGN.md §5c), so the result over the ingest
// server's per-shard blocks is byte-identical to the single in-memory
// block of the same records. `compare_stream_results` checks that
// bit for bit.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/common.h"
#include "analysis/query/fwd.h"

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

/// The stream's questions answered over `src`: one pass for the
/// per-device daily rollup with the integer totals, one for the ratio
/// profiles.
[[nodiscard]] StreamResult batch_stream_result(const query::DataSource& src);

/// batch_stream_result over the resident dataset (an InMemorySource).
[[nodiscard]] StreamResult batch_stream_result(const Dataset& ds);

/// Bit-exact comparison of two stream results (doubles are compared by
/// representation, not value). Returns "" when identical, else a
/// description of the first mismatch.
[[nodiscard]] std::string compare_stream_results(const StreamResult& a,
                                                 const StreamResult& b);

}  // namespace tokyonet::analysis
