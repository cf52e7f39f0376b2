// Campaign engine: the simulator's core, exposed at device-block
// granularity so campaigns can stream to disk shard by shard.
//
// A CampaignEngine owns everything that is global to one campaign — the
// scenario, the region, the AP deployment, the user population and the
// survey answers — and generates the per-device sample stream for any
// contiguous device range on demand. Because every hot-path draw is
// keyed by (seed, global device id, lane, slot) through counter-based
// Philox streams (PR 7), the bytes of a device's samples do not depend
// on which block generated them: run_block(0, n) equals the
// concatenation of run_block(0, k) and run_block(k, n) for every k,
// sample for sample. That partition invariance is what lets
// sim::stream_campaign() (stream_runner.h) write million-user campaigns
// one shard at a time without ever holding the full panel in memory.
//
// Simulator::run() is now a thin wrapper over run_all(); the engine is
// the only implementation of the campaign loop.
#pragma once

#include <cstddef>
#include <memory>

#include "core/records.h"
#include "core/scenario.h"

namespace tokyonet::sim {

class CampaignEngine {
 public:
  /// Builds the campaign-global state: deployment, population (with
  /// home/office APs created in the deployment), mobile-hotspot
  /// assignment and the survey answers. Deterministic in `config`
  /// (including seed and scale); the config is copied.
  explicit CampaignEngine(const ScenarioConfig& config);
  ~CampaignEngine();

  CampaignEngine(const CampaignEngine&) = delete;
  CampaignEngine& operator=(const CampaignEngine&) = delete;

  /// Number of devices in the campaign panel.
  [[nodiscard]] std::size_t num_devices() const noexcept;

  /// Simulates devices [begin, end) into a self-contained Dataset whose
  /// device ids are *local* (0 .. end - begin): devices, ground truth,
  /// survey and samples cover exactly the block, and the per-device app
  /// ranges are local to the block's app_traffic array. The sample rows
  /// per device are identical to the full run's — only the device and
  /// app-range offsets differ — so concatenating the blocks of a
  /// partition (rebasing the offsets back) reproduces run_all() exactly.
  ///
  /// `with_universe` additionally exports the campaign's full AP
  /// universe (Dataset::aps + truth.aps) into the block. Without it the
  /// AP tables are left empty — the shard-store keeps one shared copy —
  /// and the dataset does not pass Dataset::validate() until a universe
  /// is installed.
  [[nodiscard]] Dataset run_block(std::size_t begin, std::size_t end,
                                  bool with_universe);

  /// The whole campaign in one block with the universe attached:
  /// byte-identical to what sim::Simulator::run() has always produced.
  [[nodiscard]] Dataset run_all();

  /// Just the campaign frame and AP universe (year, calendar,
  /// Dataset::aps, truth.aps) — no devices or samples. This is the
  /// shard-store's shared universe file.
  [[nodiscard]] Dataset universe() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace tokyonet::sim
