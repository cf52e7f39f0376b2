// Campaign simulator: drives every simulated user through the campaign
// calendar, emitting the 10-minute record stream the paper's measurement
// software would have uploaded (§2).
#pragma once

#include <cstddef>
#include <filesystem>
#include <string>

#include "core/records.h"
#include "core/scenario.h"

namespace tokyonet::sim {

/// Runs one measurement campaign and returns the full dataset.
///
/// Deterministic: the same ScenarioConfig (including seed and scale)
/// always produces the same dataset, bit for bit.
class Simulator {
 public:
  /// `device_block`: devices per parallel task (CampaignEngine); any
  /// value yields the same dataset.
  explicit Simulator(ScenarioConfig config, std::size_t device_block = 1)
      : config_(std::move(config)), device_block_(device_block) {}

  [[nodiscard]] Dataset run() const;

  [[nodiscard]] const ScenarioConfig& config() const noexcept {
    return config_;
  }

 private:
  ScenarioConfig config_;
  std::size_t device_block_;
};

/// Convenience: simulate the calibrated scenario for `year` at `scale`.
[[nodiscard]] Dataset simulate_year(Year year, double scale = 1.0);

/// What cached_campaign() did, for callers that report it.
struct CampaignCacheStatus {
  bool enabled = false;  // TOKYONET_CACHE_DIR was set
  bool hit = false;      // served from an existing snapshot
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

}  // namespace tokyonet::sim
