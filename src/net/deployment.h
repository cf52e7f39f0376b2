// Access-point universe of one campaign.
//
// Public, venue and mobile hotspots are deployed up front following the
// region's density (downtown-heavy, Fig 10); home and office APs are
// created on demand as the population generator assigns them to users.
// The deployment also provides the per-cell *scan density field* — the
// expected number of detectable public networks per 10-minute scan —
// used to generate Android scan summaries (Fig 17, §3.5).
#pragma once

#include <optional>
#include <vector>

#include "core/records.h"
#include "core/scenario.h"
#include "geo/region.h"
#include "net/essid.h"
#include "net/radio.h"
#include "stats/philox.h"

namespace tokyonet::net {

/// One AP: observable identity plus ground truth.
struct AccessPoint {
  ApInfo info;
  ApPlacement placement = ApPlacement::Public;
  geo::Point location;
  GeoCell cell = kNoGeoCell;
};

class Deployment {
 public:
  /// Deploys the public/venue/mobile universe for `config`.
  Deployment(const ScenarioConfig& config, const geo::TokyoRegion& region,
             stats::PhiloxRng& rng);

  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;
  Deployment(Deployment&&) = default;
  Deployment& operator=(Deployment&&) = default;

  /// Creates a home AP at `where` for one household. A small fraction are
  /// FON community boxes broadcasting the public FON ESSID (§3.4.1).
  [[nodiscard]] ApId create_home_ap(geo::Point where, stats::PhiloxRng& rng);

  /// Creates an office AP at `where` for one BYOD workplace.
  [[nodiscard]] ApId create_office_ap(geo::Point where, stats::PhiloxRng& rng);

  [[nodiscard]] const std::vector<AccessPoint>& aps() const noexcept {
    return aps_;
  }
  [[nodiscard]] const AccessPoint& ap(ApId id) const {
    return aps_[value(id)];
  }
  [[nodiscard]] const PathLossModel& path_loss() const noexcept {
    return path_loss_;
  }

  /// A random public AP in the cell of `where` (the hotspot a visiting
  /// device would join), or nullopt if the cell has none. Hot path:
  /// draws from the caller's counter-based stream.
  [[nodiscard]] std::optional<ApId> pick_public_ap(geo::Point where,
                                                   stats::PhiloxRng& rng) const;

  /// A random venue AP near `where`, if any.
  [[nodiscard]] std::optional<ApId> pick_venue_ap(geo::Point where,
                                                  stats::PhiloxRng& rng) const;

  /// Typical device-to-AP distance when associated, by placement type.
  /// Public cells are larger, producing the paper's weaker public RSSI
  /// distribution (Fig 15).
  [[nodiscard]] double draw_association_distance_m(ApPlacement placement,
                                                   stats::PhiloxRng& rng) const;

  /// Expected number of detectable public networks per 10-min scan in
  /// `cell` (all bands). Peaks downtown per the scenario's
  /// `scan_density_peak`.
  [[nodiscard]] double expected_scan_count(GeoCell cell) const noexcept;

  /// Copies the observable part into `dataset.aps` and truth into
  /// `dataset.truth.aps`.
  void export_to(Dataset& dataset) const;

 private:
  [[nodiscard]] ApId append(AccessPoint ap);
  [[nodiscard]] std::uint64_t next_bssid(ApPlacement placement) noexcept;

  const ScenarioConfig* config_;
  const geo::TokyoRegion* region_;
  EssidFactory essids_;
  PathLossModel path_loss_{};
  std::vector<AccessPoint> aps_;
  /// Per-cell buckets of public / venue APs for association lookup.
  std::vector<std::vector<ApId>> public_by_cell_;
  std::vector<std::vector<ApId>> venue_by_cell_;
  std::uint32_t bssid_serial_ = 1;
};

}  // namespace tokyonet::net
