#include "sim/simulator.h"

#include <system_error>

#include "core/env.h"
#include "io/shard_store.h"
#include "io/snapshot.h"
#include "sim/engine.h"
#include "sim/stream_runner.h"

namespace tokyonet::sim {

// The campaign loop lives in sim/engine.cc (CampaignEngine); run() is
// the classic one-shot form: the whole panel in one block, universe
// attached.
Dataset Simulator::run() const { return CampaignEngine(config_).run_all(); }

Dataset simulate_year(Year year, double scale) {
  return Simulator(scenario_config(year, scale)).run();
}

namespace {

/// Shard count for the campaign cache from TOKYONET_CACHE_SHARDS
/// (0 / unset = classic single-file snapshots). The storage mode is part
/// of the cache key — a sharded request never matches an in-memory blob
/// entry and vice versa.
[[nodiscard]] std::size_t cache_shards() noexcept {
  return static_cast<std::size_t>(
      core::env_integer("TOKYONET_CACHE_SHARDS", 0, 1L << 20, 0));
}

}  // namespace

Dataset cached_campaign(const ScenarioConfig& config,
                        CampaignCacheStatus* status) {
  CampaignCacheStatus local;
  CampaignCacheStatus& st = status != nullptr ? *status : local;
  st = CampaignCacheStatus{};

  const std::filesystem::path dir = io::cache_dir();
  if (dir.empty()) return Simulator(config).run();
  st.enabled = true;

  const std::size_t shards = cache_shards();
  std::error_code ec;
  if (shards > 0) {
    // Sharded storage mode: the cache entry is a shard *directory* under
    // a key that folds in the shard count, so a sharded warm hit can
    // never be served a single-file blob (or a directory sharded
    // differently) and the classic path never opens a directory.
    st.path = io::campaign_cache_shard_dir(dir, config, shards);
    if (std::filesystem::exists(st.path / io::kShardManifestName, ec)) {
      io::ShardedDataset store;
      const io::SnapshotResult r = io::ShardedDataset::open(st.path, store);
      if (r.ok() && store.manifest().scenario_hash == scenario_hash(config)) {
        Dataset ds;
        const io::SnapshotResult m =
            store.materialize(ds, {}, io::resident_shards_from_env(1));
        if (m.ok()) {
          st.hit = true;
          return ds;
        }
        st.detail = "unusable shard dir (" + m.error + "); re-simulating";
      } else {
        st.detail = r.ok() ? "scenario hash mismatch; re-simulating"
                           : "unusable shard dir (" + r.error +
                                 "); re-simulating";
      }
    }
    std::filesystem::create_directories(dir, ec);
    StreamCampaignOptions opts;
    opts.shards = shards;
    const StreamCampaignResult w = stream_campaign(config, st.path, opts);
    if (!w.ok()) {
      st.detail = "cache save failed: " + w.error;
      return Simulator(config).run();
    }
    io::ShardedDataset store;
    const io::SnapshotResult r = io::ShardedDataset::open(st.path, store);
    Dataset ds;
    if (r.ok() &&
        store.materialize(ds, {}, io::resident_shards_from_env(1)).ok()) {
      return ds;
    }
    st.detail = "cache save unreadable; re-simulating";
    return Simulator(config).run();
  }

  st.path = io::campaign_cache_path(dir, config);
  if (std::filesystem::exists(st.path, ec)) {
    Dataset ds;
    io::SnapshotInfo info;
    const io::SnapshotResult r = io::load_snapshot(st.path, ds, {}, &info);
    if (r.ok() && info.scenario_hash == scenario_hash(config)) {
      st.hit = true;
      return ds;
    }
    st.detail = r.ok() ? "scenario hash mismatch; re-simulating"
                       : "unusable snapshot (" + r.error + "); re-simulating";
  }

  Dataset ds = Simulator(config).run();
  std::filesystem::create_directories(dir, ec);
  const io::SnapshotResult w =
      io::save_snapshot(ds, st.path, scenario_hash(config));
  if (!w.ok()) st.detail = "cache save failed: " + w.error;
  return ds;
}

}  // namespace tokyonet::sim
