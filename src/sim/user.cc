#include "sim/user.h"

#include <algorithm>
#include <array>
#include <cmath>

namespace tokyonet::sim {
namespace {

/// Panel shares realized as shares: a trait the scenario gives as a
/// share of the panel reads user i's point frac(phase + i * step) on its
/// own additive sequence instead of an independent draw. Every run of
/// consecutive users (each OS's recruits, the whole panel) then holds
/// the share to within a user or two; independent draws wander by a few
/// points at a few hundred devices, enough to reverse a year-to-year
/// direction or to leave a 2 % habit with no user. The steps are
/// quadratic irrationals independent over the rationals, so the traits
/// are also jointly equidistributed.
class ShareSequences {
 public:
  enum Trait { kArchetype, kTetherer, kMobileHotspot, kUpdateSeeker, kCount };

  /// One phase per trait, drawn from `rng`.
  explicit ShareSequences(stats::PhiloxRng& rng) {
    for (double& p : phase_) p = rng.uniform();
  }

  /// User `i`'s uniform in [0, 1) for `trait`.
  [[nodiscard]] double at(Trait trait, int i) const {
    return std::fmod(phase_[trait] + i * kStep[trait], 1.0);
  }

 private:
  // (sqrt(5) - 1) / 2, sqrt(2) - 1, sqrt(3) - 1, sqrt(7) - 2.
  static constexpr double kStep[kCount] = {
      0.6180339887498949, 0.4142135623730951, 0.7320508075688772,
      0.6457513110645906};
  std::array<double, kCount> phase_{};
};

[[nodiscard]] bool occupation_works(Occupation o, stats::PhiloxRng& rng) {
  switch (o) {
    case Occupation::GovernmentWorker:
    case Occupation::OfficeWorker:
    case Occupation::Engineer:
    case Occupation::WorkerOther:
    case Occupation::Professional:
      return true;
    case Occupation::SelfOwnedBusiness:
      return rng.bernoulli(0.6);
    case Occupation::PartTimer:
      return rng.bernoulli(0.8);
    case Occupation::Student:
      return true;  // school, modelled as a no-BYOD workplace
    case Occupation::Housewife:
      return false;
    case Occupation::Other:
      return rng.bernoulli(0.3);
  }
  return false;
}

}  // namespace

std::vector<UserProfile> build_population(const ScenarioConfig& cfg,
                                          const geo::TokyoRegion& region,
                                          net::Deployment& deployment,
                                          std::uint32_t lane,
                                          stats::PhiloxRng& shares_rng) {
  const AdoptionParams& adopt = cfg.adoption;

  const int n_android = cfg.scaled(cfg.population.n_android);
  const int n_ios = cfg.scaled(cfg.population.n_ios);
  const int n_organic = static_cast<int>(
      (n_android + n_ios) * cfg.population.organic_frac);
  const int n_total = n_android + n_ios + n_organic;

  std::vector<UserProfile> users;
  users.reserve(static_cast<std::size_t>(n_total));
  const ShareSequences shares(shares_rng);

  // Home-AP ownership per archetype. Cellular-intensive users mostly lack
  // (or never configured) a usable home AP; WiFi-intensive users nearly
  // all have one; the mixed majority absorbs the remainder so the
  // population-wide ownership hits the scenario target.
  const double f_cell = adopt.cellular_intensive_frac;
  const double f_wifi = adopt.wifi_intensive_frac;
  const double f_mixed = std::max(1e-9, 1.0 - f_cell - f_wifi);
  const double own_cell = 0.12;
  const double own_wifi = 0.98;
  const double own_mixed = std::clamp(
      (adopt.home_ap_ownership - own_cell * f_cell - own_wifi * f_wifi) /
          f_mixed,
      0.0, 1.0);

  for (int i = 0; i < n_total; ++i) {
    UserProfile u;
    u.id = DeviceId{static_cast<std::uint32_t>(i)};
    stats::PhiloxRng rng(cfg.seed, value(u.id), lane);
    u.os = i < n_android ? Os::Android
           : i < n_android + n_ios ? Os::Ios
           : (rng.bernoulli(0.5) ? Os::Android : Os::Ios);
    u.recruited = i < n_android + n_ios;
    u.carrier = static_cast<Carrier>(rng.uniform_int(kNumCarriers));
    u.tech = rng.bernoulli(adopt.lte_device_share) ? CellTech::Lte
                                                   : CellTech::ThreeG;
    u.occupation = static_cast<Occupation>(
        rng.categorical(cfg.population.occupation_weights));
    u.is_student = u.occupation == Occupation::Student;
    u.works = occupation_works(u.occupation, rng);

    // iPhones auto-join known networks and ship WiFi-first defaults, so
    // fewer iOS users end up never-configured (§3.3.4); skew the
    // cellular-intensive mass toward Android while preserving the
    // population-wide target.
    const double cell_frac_os = u.os == Os::Ios ? f_cell * 0.75
                                                : f_cell * 1.22;
    const double arch = shares.at(ShareSequences::kArchetype, i);
    u.archetype = arch < cell_frac_os ? UserArchetype::CellularIntensive
                  : arch < cell_frac_os + f_wifi ? UserArchetype::WifiIntensive
                                                 : UserArchetype::Mixed;

    u.home = region.sample_home(rng);
    if (u.works) u.office = region.sample_office(rng);

    switch (u.archetype) {
      case UserArchetype::CellularIntensive:
        u.has_home_ap = rng.bernoulli(own_cell);
        u.uses_public_wifi = false;
        // These users either keep WiFi off outright or leave an
        // unconfigured interface enabled (WiFi-available, Fig 9).
        u.wifi_off_propensity = rng.bernoulli(0.70) ? 1.0 : 0.0;
        u.leaves_wifi_on = u.wifi_off_propensity == 0.0;
        u.cellular_affinity = 1.0;
        break;
      case UserArchetype::WifiIntensive:
        u.has_home_ap = rng.bernoulli(own_wifi);
        u.uses_public_wifi = rng.bernoulli(
            u.os == Os::Android ? adopt.public_config_android * 1.6
                                : adopt.public_config_ios * 1.4);
        u.wifi_off_propensity = 0.05;
        u.leaves_wifi_on = true;
        // Most WiFi-intensive users have no usable data plan at all
        // (WiFi-only/MVNO devices); the rest keep a token allowance.
        u.cellular_affinity = rng.bernoulli(0.8) ? 0.0 : 0.05;
        break;
      case UserArchetype::Mixed:
        u.has_home_ap = rng.bernoulli(own_mixed);
        u.uses_public_wifi = rng.bernoulli(
            u.os == Os::Android ? adopt.public_config_android
                                : adopt.public_config_ios);
        // iOS users toggle WiFi off far less than Android users (§3.3.4).
        u.wifi_off_propensity =
            u.os == Os::Android
                ? std::clamp(rng.normal(adopt.wifi_off_mean, 0.25), 0.0, 1.0)
                : std::clamp(rng.normal(0.10, 0.08), 0.0, 0.5);
        u.leaves_wifi_on = rng.bernoulli(0.75);
        u.cellular_affinity = 1.0;
        break;
    }

    if (u.works && !u.is_student) {
      u.office_byod = rng.bernoulli(adopt.office_byod_rate);
    }

    u.has_mobile_hotspot =
        u.archetype != UserArchetype::CellularIntensive &&
        shares.at(ShareSequences::kMobileHotspot, i) < 0.02;
    u.uses_sync =
        u.has_home_ap && rng.bernoulli(cfg.demand.sync_users_frac);
    // Hotspot state is only observable on Android (§2), so tethering is
    // modelled there; the traffic looks like a burst of laptop-grade
    // cellular download.
    u.is_tetherer = u.os == Os::Android &&
                    u.archetype != UserArchetype::WifiIntensive &&
                    shares.at(ShareSequences::kTetherer, i) < 0.02;

    u.demand_mu =
        cfg.demand.daily_mu_log_mb + rng.normal(0.0, cfg.demand.user_sigma);
    // Bandwidth demand correlates with WiFi adoption: WiFi-intensive
    // users skew heavy (they adopted WiFi *because* they consume a lot),
    // cellular-intensive users skew light. This reproduces the paper's
    // observation that heavy hitters offload most traffic to WiFi
    // (Figs 7/8) while 2013 light users were cellular-first (Table 3).
    switch (u.archetype) {
      case UserArchetype::WifiIntensive: u.demand_mu += 0.55; break;
      case UserArchetype::CellularIntensive: u.demand_mu -= 0.25; break;
      case UserArchetype::Mixed:
        u.demand_mu += u.has_home_ap ? 0.12 : -0.12;
        break;
    }
    u.update_seeker = u.os == Os::Ios &&
                      shares.at(ShareSequences::kUpdateSeeker, i) <
                          cfg.update.public_seeker_frac;
    // Seekers without a home AP go out of their way to find WiFi for the
    // update (§3.7), which presumes they know how to join public APs.
    if (u.update_seeker && !u.has_home_ap) u.uses_public_wifi = true;

    // Create this user's private APs in the deployment.
    if (u.has_home_ap) u.home_ap = deployment.create_home_ap(u.home, rng);
    if (u.office_byod) u.office_ap = deployment.create_office_ap(u.office, rng);

    users.push_back(u);
  }
  return users;
}

void export_population(const std::vector<UserProfile>& users,
                       std::size_t begin, std::size_t end,
                       const geo::TokyoRegion& region, Dataset& dataset) {
  dataset.devices.clear();
  dataset.devices.reserve(end - begin);
  dataset.truth.devices.clear();
  dataset.truth.devices.reserve(end - begin);
  for (std::size_t i = begin; i < end; ++i) {
    const UserProfile& u = users[i];
    DeviceInfo d;
    // Local id: shard datasets satisfy the ids-equal-index contract on
    // their own; the full-range export reproduces the global ids.
    d.id = DeviceId{static_cast<std::uint32_t>(i - begin)};
    d.os = u.os;
    d.carrier = u.carrier;
    d.recruited = u.recruited;
    dataset.devices.push_back(d);

    DeviceTruth t;
    t.archetype = u.archetype;
    t.occupation = u.occupation;
    t.has_home_ap = u.has_home_ap;
    t.home_ap = u.home_ap;
    t.works_at_office = u.works;
    t.office_has_byod_wifi = u.office_byod;
    t.office_ap = u.office_ap;
    t.home_cell = region.grid().cell_at(u.home);
    t.office_cell = u.works ? region.grid().cell_at(u.office) : kNoGeoCell;
    t.wifi_off_propensity = static_cast<float>(u.wifi_off_propensity);
    t.demand_mu = static_cast<float>(u.demand_mu);
    t.uses_public_wifi = u.uses_public_wifi;
    t.is_tetherer = u.is_tetherer;
    dataset.truth.devices.push_back(t);
  }
}

}  // namespace tokyonet::sim
