// Per-campaign scenario configuration.
//
// Every knob that differs between the 2013/2014/2015 campaigns lives
// here: population and device mix, technology adoption (LTE, home APs,
// public WiFi configuration), AP deployment, traffic demand, the carrier
// soft-cap policy, and the 2015 iOS-update event. `scenario_config()`
// returns presets calibrated against the paper's published aggregates
// (Tables 1-4 and the §3 headline numbers).
#pragma once

#include <array>
#include <cstdint>

#include "core/clock.h"
#include "core/types.h"

namespace tokyonet {

/// Who participates in the campaign.
struct PopulationParams {
  int n_android = 900;
  int n_ios = 800;
  /// Fraction of extra, non-recruited devices (organic app-store
  /// installs, §2) added on top of the recruited panel.
  double organic_frac = 0.02;
  /// Occupation mix of recruited users (Table 2).
  std::array<double, kNumOccupations> occupation_weights{};
};

/// Technology / behaviour adoption rates.
struct AdoptionParams {
  /// Share of devices on LTE (rest 3G), Table 1's %LTE column.
  double lte_device_share = 0.8;
  /// Share of users with a WiFi AP at home (66% / 73% / 79%, §3.4.1).
  double home_ap_ownership = 0.79;
  /// Share of office workers whose workplace allows BYOD WiFi (§4.2:
  /// low and stable).
  double office_byod_rate = 0.16;
  /// Share of users who configured public WiFi (carrier SIM-auth or
  /// manual), by OS. iOS auto-joins more aggressively (§3.3.4).
  double public_config_android = 0.35;
  double public_config_ios = 0.55;
  /// Target archetype mix (Fig 5: cellular-intensive shrank 35% -> 22%;
  /// WiFi-intensive stable at ~8%).
  double cellular_intensive_frac = 0.22;
  double wifi_intensive_frac = 0.08;
  /// Mean propensity of Android users to explicitly switch WiFi off when
  /// away from home (Fig 9: WiFi-off share 50% -> 40%).
  double wifi_off_mean = 0.40;
  /// Multiplier (>1) on iOS association probability vs Android.
  double ios_connect_boost = 1.3;
  /// Probability that a home-AP owner actually associates at home on a
  /// given day (configuration gaps, band steering failures, habit):
  /// calibrates the WiFi-user ratio (Fig 6b: mean 0.32 -> 0.48).
  double home_assoc_rate = 0.80;
};

/// Access-point universe.
struct DeploymentParams {
  /// Number of associable public hotspots (Table 4's public counts are
  /// the *associated* subset; the universe is larger).
  int n_public_aps = 16000;
  /// Venue APs (shops/hotels/friends) and personal mobile hotspots.
  int n_venue_aps = 900;
  int n_mobile_aps = 250;
  /// 5 GHz share by placement (Fig 14).
  double public_5ghz_frac = 0.55;
  double home_5ghz_frac = 0.17;
  double office_5ghz_frac = 0.18;
  /// Fraction of home routers that are FON community boxes (§3.4.1).
  double home_fon_frac = 0.02;
  /// Fraction of public hotspots that are multi-provider boxes: one
  /// physical AP announcing several provider ESSIDs on adjacent BSSIDs
  /// (§4.3 observes these by "similar BSSIDs assigned to different
  /// providers"). Grew as carriers started sharing street furniture.
  double multi_provider_frac = 0.10;
  /// Mean number of *detectable* public networks at the busiest downtown
  /// cell per 10-min scan; scales the scan density field (Fig 17, §3.5).
  double scan_density_peak = 28.0;
  /// Fraction of detected public networks that are strong (>= -70 dBm).
  double scan_strong_frac = 0.35;
  /// 5 GHz share of *detected* networks (lags the associable share).
  double scan_5ghz_frac = 0.40;
};

/// Traffic demand model.
struct DemandParams {
  /// log(MB): population median of per-user daily demand (all
  /// interfaces, before WiFi elasticity).
  double daily_mu_log_mb = 4.0;
  /// Cross-user spread of the per-user mean (log scale).
  double user_sigma = 1.05;
  /// Day-to-day spread around the per-user mean (log scale).
  double day_sigma = 0.85;
  /// Demand multiplier when the active interface is (unmetered) WiFi:
  /// users stream more video etc. when traffic is free (§3.6).
  double wifi_elasticity = 1.9;
  /// TX volume as a fraction of RX: lognormal(log(ratio), sigma).
  double upload_ratio = 0.20;
  double upload_ratio_sigma = 0.55;
  /// Extra WiFi-gated daily upload (online-storage sync, Table 7's
  /// productivity rows), MB/day for users of such apps.
  double sync_users_frac = 0.22;
  double sync_daily_mb = 25.0;
  /// Self-rationing of cellular use: beyond this daily cellular budget
  /// users defer to WiFi / give up (they know about the cap, §1), with
  /// the excess multiplied by `budget_excess_factor`. Users without a
  /// home AP ration far less (no alternative) -- they are the ones who
  /// end up capped (65% of capped users had no home AP, §3.8).
  double cell_budget_home_mb = 220.0;
  double cell_budget_no_home_mb = 280.0;
  double budget_excess_factor = 0.25;
};

/// Carrier soft-cap policy (§3.8): if the previous 3 days' cellular
/// download exceeds `threshold_mb`, peak-hour throughput is throttled the
/// next day, which suppresses realized cellular demand.
struct CapParams {
  double threshold_mb = 1000.0;
  /// Realized-demand multiplier during throttled peak-hour bins.
  double suppression = 0.15;
  /// Peak window (hours of day) in which the throttle applies.
  int peak_from_hour = 12;
  int peak_to_hour = 23;
  /// Two of three carriers relaxed the policy in Feb 2015 (§3.8):
  /// per-carrier flag; relaxed carriers barely suppress.
  std::array<bool, kNumCarriers> relaxed{false, false, false};
  double relaxed_suppression = 0.75;
};

/// The iOS 8.2 release during the 2015 campaign (§3.7).
struct UpdateParams {
  bool active = false;
  /// Day index (0-based within the campaign) of the release.
  int release_day = 10;
  double size_mb = 565.0;
  /// Per-day adoption hazard while associated with home WiFi.
  double home_hazard = 0.062;
  /// Per-visit hazard for no-home-AP seekers on public/office WiFi.
  double seeker_hazard = 0.25;
  /// Weekend multiplier on the hazard (Fig 18 peak (b)).
  double weekend_boost = 1.6;
  /// Share of no-home-AP users who will take the update over public or
  /// office WiFi when they encounter it (§3.7: 11 public + 2 office of
  /// 19 inspected).
  double public_seeker_frac = 0.18;
};

/// Full per-campaign configuration.
struct ScenarioConfig {
  Year year = Year::Y2015;
  Date start_date{2015, 2, 28};
  int num_days = 26;
  std::uint64_t seed = 20150228;

  PopulationParams population;
  AdoptionParams adoption;
  DeploymentParams deployment;
  DemandParams demand;
  CapParams cap;
  UpdateParams update;

  /// Uniformly scales population and deployment sizes; tests use small
  /// scales for speed. 1.0 reproduces the paper's panel size.
  double scale = 1.0;

  [[nodiscard]] int scaled(int n) const noexcept {
    const int v = static_cast<int>(n * scale);
    return v > 1 ? v : 1;
  }
};

/// Calibrated preset for one campaign year at the given scale.
[[nodiscard]] ScenarioConfig scenario_config(Year year, double scale = 1.0);

/// Version of the simulator's random-draw scheme. Bump whenever the
/// mapping from (config, seed) to generated samples changes — e.g. a new
/// generator, re-ordered draws, or a transform rewrite — so cached
/// campaigns keyed by scenario_hash() are regenerated instead of replayed
/// from a stale snapshot. v2: counter-based Philox4x32 streams replaced
/// the sequential per-device generator walk. v3: population, survey and
/// deployment draw from Philox coordinates too.
inline constexpr int kRngVersion = 3;

/// Stable 64-bit digest of every simulation-relevant field of a
/// ScenarioConfig (including seed and scale) plus the generator version
/// (kRngVersion, overridable for tests). Two configs with the same hash
/// produce the same campaign, so the hash keys the on-disk campaign
/// cache (io/snapshot.h); a kRngVersion bump changes every hash, so
/// stale caches miss instead of replaying a dataset the current
/// generator would no longer produce. Not portable across schema
/// changes: bump kSnapshotVersion when the config grows a field.
[[nodiscard]] std::uint64_t scenario_hash(
    const ScenarioConfig& config, int rng_version = kRngVersion) noexcept;

}  // namespace tokyonet
