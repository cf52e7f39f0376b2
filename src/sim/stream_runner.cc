#include "sim/stream_runner.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <system_error>
#include <vector>

#include "io/snapshot.h"
#include "sim/simulator.h"

namespace tokyonet::sim {

namespace fs = std::filesystem;

StreamCampaignResult stream_campaign(const ScenarioConfig& config,
                                     const fs::path& dir,
                                     const StreamCampaignOptions& opts) {
  StreamCampaignResult result;

  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    result.error = dir.string() + ": cannot create: " + ec.message();
    return result;
  }

  const Simulator sim(config);
  const std::size_t n_devices = sim.num_devices();
  if (n_devices == 0) {
    result.error = "campaign has no devices (scale too small?)";
    return result;
  }
  std::size_t n_shards = opts.shards != 0
                             ? opts.shards
                             : (n_devices + kDevicesPerShard - 1) /
                                   kDevicesPerShard;
  n_shards = std::clamp<std::size_t>(n_shards, 1, n_devices);

  const std::uint64_t hash = scenario_hash(config);
  io::ShardManifest m;
  m.version = io::kShardStoreVersion;
  m.snapshot_version = io::kSnapshotVersion;
  m.year = year_number(config.year);
  m.start = config.start_date;
  m.num_days = config.num_days;
  m.scenario_hash = hash;
  m.n_devices = n_devices;

  // The shared AP universe first: one file instead of one copy per
  // shard (ESSID strings dominate the AP payload).
  {
    m.universe_file = "universe.tksnap";
    io::SnapshotInfo info;
    const io::SnapshotResult w =
        io::save_snapshot(sim.universe(), dir / m.universe_file, hash, &info);
    if (!w.ok()) {
      result.error = w.error;
      return result;
    }
    m.n_aps = info.n_aps;
    m.universe_bytes = info.file_bytes;
    m.universe_checksum = info.header_checksum;
  }

  // Balanced contiguous ranges: the first (n_devices % n_shards) shards
  // take one extra device.
  const std::size_t base = n_devices / n_shards;
  const std::size_t extra = n_devices % n_shards;
  std::vector<std::size_t> bounds(n_shards + 1, 0);
  for (std::size_t i = 0; i < n_shards; ++i) {
    bounds[i + 1] = bounds[i] + base + (i < extra ? 1 : 0);
  }

  // One block at a time (DESIGN.md §5j): simulate block i, write it on
  // this thread, then hand its memory back to the simulator, so block
  // i+1 writes into the same pages instead of first-touching fresh ones
  // and only one block is ever resident.
  for (std::size_t i = 0; i < n_shards; ++i) {
    char name[48];
    std::snprintf(name, sizeof(name), "shard-%04zu.tksnap", i);
    io::SnapshotInfo info;
    Dataset block = sim.run_block(bounds[i], bounds[i + 1]);
    const io::SnapshotResult w =
        io::save_snapshot(block, dir / name, hash, &info);
    if (!w.ok()) {
      result.error = w.error;
      return result;
    }
    sim.recycle(std::move(block));
    if (opts.announce) {
      std::fprintf(stderr,
                   "tokyonet-stream: shard %zu/%zu devices [%zu, %zu) "
                   "%" PRIu64 " samples\n",
                   i + 1, n_shards, bounds[i], bounds[i + 1], info.n_samples);
    }

    io::ShardEntry e;
    e.index = static_cast<std::uint32_t>(i);
    e.file = name;
    e.device_begin = bounds[i];
    e.device_count = bounds[i + 1] - bounds[i];
    e.n_samples = info.n_samples;
    e.n_app_traffic = info.n_app_traffic;
    e.file_bytes = info.file_bytes;
    e.header_checksum = info.header_checksum;
    m.n_samples += info.n_samples;
    m.n_app_traffic += info.n_app_traffic;
    m.shards.push_back(std::move(e));
  }

  // The manifest commits the directory — written only now, when every
  // shard is durably in place.
  const io::SnapshotResult w = io::write_shard_manifest(m, dir);
  if (!w.ok()) {
    result.error = w.error;
    return result;
  }
  result.manifest = std::move(m);
  return result;
}

}  // namespace tokyonet::sim
