#include "sim/stream_runner.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <future>
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

  // Pipelined write (DESIGN.md §5j): a writer thread serializes and
  // checksums block i while this thread simulates block i+1, so at most
  // two blocks are resident. The blocks' bytes are unaffected — Philox
  // streams are counter-based, so run_block(i+1) is the same whether or
  // not block i is still being written. The writer's future joins it on
  // every path: its destructor waits when run_block throws, and get()
  // rethrows an exception of the writer here. Entries are appended in
  // order after each join.
  // Each written block goes back to the simulator, so the block after
  // next writes into its pages instead of first-touching fresh ones.
  Dataset block = sim.run_block(bounds[0], bounds[1]);
  for (std::size_t i = 0; i < n_shards; ++i) {
    char name[48];
    std::snprintf(name, sizeof(name), "shard-%04zu.tksnap", i);
    io::SnapshotInfo info;
    std::future<io::SnapshotResult> written =
        std::async(std::launch::async, [&block, &info, hash,
                                        path = dir / name] {
          return io::save_snapshot(block, path, hash, &info);
        });
    Dataset next;
    if (i + 1 < n_shards) next = sim.run_block(bounds[i + 1], bounds[i + 2]);
    const io::SnapshotResult w = written.get();
    if (!w.ok()) {
      result.error = w.error;
      return result;
    }
    sim.recycle(std::move(block));
    block = std::move(next);
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
