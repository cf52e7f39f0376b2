// Campaign simulator: drives every simulated user through the campaign
// calendar, emitting the 10-minute record stream the paper's measurement
// software would have uploaded (§2).
//
// A Simulator owns everything that is global to one campaign — the
// scenario, the region, the AP deployment, the user population and the
// survey answers — and generates the per-device sample stream for any
// contiguous device range on demand. Because every hot-path draw is
// keyed by (seed, global device id, lane, slot) through counter-based
// Philox streams, the bytes of a device's samples do not depend on which
// block generated them: run_block(0, n) equals the concatenation of
// run_block(0, k) and run_block(k, n) for every k, sample for sample.
// That partition invariance is what lets sim::stream_campaign()
// (stream_runner.h) write million-user campaigns one shard at a time
// without ever holding the full panel in memory.
#pragma once

#include <cstddef>
#include <filesystem>
#include <memory>
#include <string>

#include "core/records.h"
#include "core/scenario.h"

namespace tokyonet::sim {

/// Runs one measurement campaign.
///
/// Deterministic: the same ScenarioConfig (including seed and scale)
/// always produces the same dataset, bit for bit, at any thread count.
class Simulator {
 public:
  /// Builds the campaign-global state: deployment, population (with
  /// home/office APs created in the deployment), mobile-hotspot
  /// assignment and the survey answers. The config is copied.
  explicit Simulator(const ScenarioConfig& config);
  ~Simulator();

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Number of devices in the campaign panel.
  [[nodiscard]] std::size_t num_devices() const noexcept;

  /// Devices per splice chunk of run_block(): 16 per pool thread at any
  /// pool size. A thread idles at a chunk's barrier for at most its last
  /// device's run, under 1/16 of its share whatever the mix of cheap iOS
  /// and dear Android devices; each device of a chunk holds a scratch
  /// slice of the campaign's record bound (135 KB for 2015's 26 days).
  [[nodiscard]] static std::size_t splice_chunk() noexcept;

  /// Simulates devices [begin, end) into a self-contained Dataset whose
  /// device ids are *local* (0 .. end - begin): devices, ground truth,
  /// survey and samples cover exactly the block, and the per-device app
  /// ranges are local to the block's app_traffic array. The sample rows
  /// per device are identical to the full run's — only the device and
  /// app-range offsets differ — so concatenating the blocks of a
  /// partition (rebasing the offsets back) reproduces run() exactly.
  ///
  /// The AP tables are left empty — the shard store keeps one shared
  /// copy — so the block does not pass Dataset::validate() until a
  /// universe is installed.
  [[nodiscard]] Dataset run_block(std::size_t begin, std::size_t end) const;

  /// Hands back a block the caller is done with: later run_block() calls
  /// write into its sample columns and app-record pages, as they do into
  /// the splice scratch, so a writer streaming block after block first-
  /// touches them once per stream. The Simulator frees them when it dies.
  void recycle(Dataset spent) const;

  /// The whole panel with the AP universe attached: run_block(0, n)
  /// plus universe()'s AP tables.
  [[nodiscard]] Dataset run() const;

  /// Just the campaign frame and AP universe (year, calendar,
  /// Dataset::aps, truth.aps) — no devices or samples. This is the
  /// shard store's shared universe file.
  [[nodiscard]] Dataset universe() const;

 private:
  struct Impl;
  std::unique_ptr<const Impl> impl_;
};

/// Convenience: simulate the calibrated scenario for `year` at `scale`.
[[nodiscard]] Dataset simulate_year(Year year, double scale = 1.0);

/// What cached_campaign() did, for callers that report it.
struct CampaignCacheStatus {
  bool enabled = false;  // TOKYONET_CACHE_DIR was set
  bool hit = false;      // served from an existing snapshot
  bool saved = false;    // simulated and written to the cache
  std::filesystem::path path;  // cache file consulted (when enabled)
  /// Non-fatal notes: corrupt snapshot re-simulated, save failure, ...
  std::string detail;
};

/// Simulate-or-load: when the on-disk campaign cache is enabled
/// (TOKYONET_CACHE_DIR set, see io/snapshot.h), returns the campaign
/// for `config` from its snapshot — mmapped, so this costs milliseconds
/// — simulating and persisting it on the first miss. With the cache
/// disabled this is exactly Simulator(config).run(). The cache key
/// (snapshot version, year, scenario hash) covers every simulation
/// input, so a cached load is byte-identical to a fresh simulation.
[[nodiscard]] Dataset cached_campaign(const ScenarioConfig& config,
                                      CampaignCacheStatus* status = nullptr);

/// Prints what cached_campaign() did when the cache is enabled: a
/// "tokyonet-cache: hit|miss <path>" line on stdout
/// (tools/cache_smoke_test.sh counts them) and any note on stderr.
void announce_cache(const CampaignCacheStatus& status);

}  // namespace tokyonet::sim
