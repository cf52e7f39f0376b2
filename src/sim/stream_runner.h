// Streaming campaign runner: simulate straight into a shard directory,
// holding at most two shards' samples in memory.
//
// stream_campaign() partitions the device panel into contiguous blocks,
// runs each block through Simulator::run_block (whose counter-based
// Philox streams make the bytes independent of the partitioning) and
// saves it as one shard-store snapshot. The write is pipelined
// (DESIGN.md §5j): a writer thread serializes and checksums block i
// while the caller's thread simulates block i+1, so at most two blocks
// are resident and the simulated bytes are unchanged — the pipeline
// reorders work across blocks, never within one. Peak memory
// is the campaign-global state (population, deployment) plus two
// shards' sample columns — a scale-1000 (~1.7 M device)
// campaign streams in a few GB of RSS where the in-memory path would
// need hundreds.
//
// The manifest is written last (see io/shard_store.h): a run killed
// mid-stream leaves a directory without MANIFEST.tks that readers
// reject, and re-running simply overwrites the shard files.
#pragma once

#include <cstddef>
#include <filesystem>
#include <string>

#include "core/scenario.h"
#include "io/shard_store.h"

namespace tokyonet::sim {

/// Devices per shard when StreamCampaignOptions::shards is 0. 2048
/// devices ≈ 7.7 M samples ≈ 260 MB of sample payload per shard (34 B
/// per sample).
inline constexpr std::size_t kDevicesPerShard = 2048;

struct StreamCampaignOptions {
  /// Exact shard count; 0 derives it from kDevicesPerShard.
  std::size_t shards = 0;
  /// Print one progress line per shard to stderr.
  bool announce = false;
};

struct StreamCampaignResult {
  std::string error;
  [[nodiscard]] bool ok() const noexcept { return error.empty(); }
  /// The manifest that was written (valid when ok()).
  io::ShardManifest manifest;
};

/// Simulates the campaign for `config` into shard directory `dir`
/// (created if needed). Deterministic: the shards' concatenation is
/// byte-identical to Simulator(config).run() at any shard count.
[[nodiscard]] StreamCampaignResult stream_campaign(
    const ScenarioConfig& config, const std::filesystem::path& dir,
    const StreamCampaignOptions& opts = {});

}  // namespace tokyonet::sim
