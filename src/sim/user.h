// Simulated user population.
//
// Each device gets a behavioural profile: demographics (Table 2),
// archetype (cellular-intensive / WiFi-intensive / mixed, Fig 5), home
// and office geography, AP ownership (§3.4.1), WiFi-toggling habits
// (Fig 9), public-WiFi configuration (§3.5, §4.2), traffic demand
// heterogeneity (Figs 3-5) and iOS-update behaviour (§3.7).
#pragma once

#include <vector>

#include "core/records.h"
#include "core/scenario.h"
#include "geo/region.h"
#include "net/deployment.h"
#include "stats/philox.h"

namespace tokyonet::sim {

/// Full ground-truth behavioural profile of one simulated user.
struct UserProfile {
  DeviceId id{};
  Os os = Os::Android;
  Carrier carrier = Carrier::CarrierA;
  CellTech tech = CellTech::Lte;
  bool recruited = true;
  Occupation occupation = Occupation::Other;
  UserArchetype archetype = UserArchetype::Mixed;

  geo::Point home{};
  geo::Point office{};
  bool works = false;           // has a weekday workplace/school
  bool is_student = false;

  bool has_home_ap = false;
  ApId home_ap = kNoAp;
  bool office_byod = false;     // may use the office WiFi
  ApId office_ap = kNoAp;
  bool has_mobile_hotspot = false;
  ApId mobile_ap = kNoAp;

  /// Probability that, on a given day, the user keeps WiFi explicitly
  /// off while away from home (Android WiFi-off behaviour, Fig 9).
  double wifi_off_propensity = 0.0;
  /// WiFi left enabled even with nothing to join (WiFi-available users).
  bool leaves_wifi_on = true;
  /// Configured for public hotspots (carrier SIM-auth etc.).
  bool uses_public_wifi = false;
  /// Runs WiFi-gated online-storage sync (productivity category).
  bool uses_sync = false;
  /// Occasionally tethers a laptop over cellular (Android hotspot; the
  /// paper strips this traffic from the main analysis, §2).
  bool is_tetherer = false;

  /// Per-user mean of log daily demand (MB); day draw adds day_sigma.
  double demand_mu = 4.0;
  /// Suppression of cellular use for WiFi-intensive users (<< 1).
  double cellular_affinity = 1.0;

  /// iOS only: would this user fetch the OS update over public/office
  /// WiFi despite lacking a home AP (§3.7's 19 inspected devices)?
  bool update_seeker = false;
};

/// Generates the device population, creating each user's home and
/// office APs in `deployment`. User i draws its profile, and its private
/// APs' names and radios, from PhiloxRng(config.seed, i, lane); the
/// traits the scenario gives as panel shares (archetype, tethering,
/// mobile hotspot, update seeking) come from additive sequences over
/// user ids whose phases `shares_rng` draws once. A profile therefore
/// depends on its coordinates alone; the APs' ids are handed out in user
/// order.
[[nodiscard]] std::vector<UserProfile> build_population(
    const ScenarioConfig& config, const geo::TokyoRegion& region,
    net::Deployment& deployment, std::uint32_t lane,
    stats::PhiloxRng& shares_rng);

/// Converts profiles [begin, end) into the observable DeviceInfo vector
/// and the ground-truth DeviceTruth vector of `dataset`, with *local*
/// device ids (0 .. end - begin), so a shard's dataset is self-contained.
void export_population(const std::vector<UserProfile>& users,
                       std::size_t begin, std::size_t end,
                       const geo::TokyoRegion& region, Dataset& dataset);

}  // namespace tokyonet::sim
