#include "sim/simulator.h"

#include <system_error>

#include "io/snapshot.h"
#include "sim/engine.h"

namespace tokyonet::sim {

// The campaign loop lives in sim/engine.cc (CampaignEngine); run() is
// the classic one-shot form: the whole panel in one block, universe
// attached.
Dataset Simulator::run() const {
  return CampaignEngine(config_, device_block_).run_all();
}

Dataset simulate_year(Year year, double scale) {
  return Simulator(scenario_config(year, scale)).run();
}

Dataset cached_campaign(const ScenarioConfig& config,
                        CampaignCacheStatus* status) {
  CampaignCacheStatus local;
  CampaignCacheStatus& st = status != nullptr ? *status : local;
  st = CampaignCacheStatus{};

  const std::filesystem::path dir = io::cache_dir();
  if (dir.empty()) return Simulator(config).run();
  st.enabled = true;

  std::error_code ec;
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
