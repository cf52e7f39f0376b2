#include "net/deployment.h"

#include <algorithm>
#include <cmath>

#include "net/channel.h"

namespace tokyonet::net {
namespace {

// Vendor OUI prefixes by placement, so BSSIDs look plausible and distinct
// populations never collide.
constexpr std::uint64_t kOuiHome = 0x001D73ull << 24;    // Buffalo
constexpr std::uint64_t kOuiPublic = 0x00254Bull << 24;  // carrier gear
constexpr std::uint64_t kOuiOffice = 0x0017DFull << 24;  // Cisco-like
constexpr std::uint64_t kOuiVenue = 0x002268ull << 24;
constexpr std::uint64_t kOuiMobile = 0x00266Cull << 24;

}  // namespace

Deployment::Deployment(const ScenarioConfig& config,
                       const geo::TokyoRegion& region, stats::PhiloxRng& rng)
    : config_(&config),
      region_(&region),
      essids_(static_cast<int>(config.year)) {
  const auto num_cells = static_cast<std::size_t>(region.grid().num_cells());
  public_by_cell_.resize(num_cells);
  venue_by_cell_.resize(num_cells);

  const DeploymentParams& dep = config.deployment;

  const int n_public = config.scaled(dep.n_public_aps);
  aps_.reserve(static_cast<std::size_t>(n_public + dep.n_venue_aps +
                                        dep.n_mobile_aps) + 2048);
  for (int i = 0; i < n_public; ++i) {
    AccessPoint ap;
    ap.location = region.sample_public_spot(rng);
    ap.cell = region.grid().cell_at(ap.location);
    ap.placement = ApPlacement::Public;
    ap.info.bssid = next_bssid(ApPlacement::Public);
    ap.info.essid = essids_.public_hotspot(rng);
    ap.info.band =
        rng.bernoulli(dep.public_5ghz_frac) ? Band::B5GHz : Band::B24GHz;
    ap.info.channel = ap.info.band == Band::B5GHz
                          ? pick_channel_5(rng)
                          : pick_channel_24(ChannelPolicy::PlannedNonOverlap, rng);
    const ApId id = append(std::move(ap));
    public_by_cell_[aps_[value(id)].cell].push_back(id);

    // Multi-provider boxes (§4.3): the same physical AP announces a
    // second provider's ESSID on the adjacent BSSID.
    if (rng.bernoulli(dep.multi_provider_frac)) {
      AccessPoint sibling = aps_[value(id)];
      sibling.info.bssid = aps_[value(id)].info.bssid + 1;  // adjacent
      for (int attempt = 0; attempt < 8; ++attempt) {
        std::string essid = essids_.public_hotspot(rng);
        if (essid != aps_[value(id)].info.essid) {
          sibling.info.essid = std::move(essid);
          break;
        }
      }
      if (sibling.info.essid != aps_[value(id)].info.essid) {
        const ApId sib = append(std::move(sibling));
        public_by_cell_[aps_[value(sib)].cell].push_back(sib);
      }
    }
  }

  const int n_venue = config.scaled(dep.n_venue_aps);
  for (int i = 0; i < n_venue; ++i) {
    AccessPoint ap;
    ap.location = region.sample_public_spot(rng);
    ap.cell = region.grid().cell_at(ap.location);
    ap.placement = ApPlacement::OtherVenue;
    ap.info.bssid = next_bssid(ApPlacement::OtherVenue);
    ap.info.essid = essids_.venue(rng);
    ap.info.band =
        rng.bernoulli(dep.office_5ghz_frac) ? Band::B5GHz : Band::B24GHz;
    ap.info.channel = ap.info.band == Band::B5GHz
                          ? pick_channel_5(rng)
                          : pick_channel_24(ChannelPolicy::AutoSelect, rng);
    const ApId id = append(std::move(ap));
    venue_by_cell_[aps_[value(id)].cell].push_back(id);
  }

  const int n_mobile = config.scaled(dep.n_mobile_aps);
  for (int i = 0; i < n_mobile; ++i) {
    AccessPoint ap;
    ap.location = region.sample_home(rng);
    ap.cell = region.grid().cell_at(ap.location);
    ap.placement = ApPlacement::MobileHotspot;
    ap.info.bssid = next_bssid(ApPlacement::MobileHotspot);
    ap.info.essid = essids_.mobile_hotspot(rng);
    ap.info.band = Band::B24GHz;
    ap.info.channel = pick_channel_24(ChannelPolicy::AutoSelect, rng);
    (void)append(std::move(ap));
  }
}

ApId Deployment::append(AccessPoint ap) {
  aps_.push_back(std::move(ap));
  return ApId{static_cast<std::uint32_t>(aps_.size() - 1)};
}

std::uint64_t Deployment::next_bssid(ApPlacement placement) noexcept {
  std::uint64_t oui = kOuiPublic;
  switch (placement) {
    case ApPlacement::Home: oui = kOuiHome; break;
    case ApPlacement::Public: oui = kOuiPublic; break;
    case ApPlacement::Office: oui = kOuiOffice; break;
    case ApPlacement::OtherVenue: oui = kOuiVenue; break;
    case ApPlacement::MobileHotspot: oui = kOuiMobile; break;
  }
  // Independent devices get sparse serials (real fleets are not
  // consecutively numbered); only multi-provider siblings sit on
  // adjacent addresses (§4.3).
  bssid_serial_ += 17;
  return oui | bssid_serial_;
}

ApId Deployment::create_home_ap(geo::Point where, stats::PhiloxRng& rng) {
  const DeploymentParams& dep = config_->deployment;
  AccessPoint ap;
  ap.location = where;
  ap.cell = region_->grid().cell_at(where);
  ap.placement = ApPlacement::Home;
  ap.info.bssid = next_bssid(ApPlacement::Home);
  ap.info.essid = rng.bernoulli(dep.home_fon_frac) ? essids_.home_fon()
                                                   : essids_.home(rng);
  ap.info.band =
      rng.bernoulli(dep.home_5ghz_frac) ? Band::B5GHz : Band::B24GHz;
  const bool factory_default = rng.bernoulli(
      home_factory_default_share(static_cast<int>(config_->year)));
  ap.info.channel =
      ap.info.band == Band::B5GHz
          ? pick_channel_5(rng)
          : pick_channel_24(factory_default ? ChannelPolicy::FactoryDefaultHeavy
                                            : ChannelPolicy::AutoSelect,
                            rng);
  return append(std::move(ap));
}

ApId Deployment::create_office_ap(geo::Point where, stats::PhiloxRng& rng) {
  const DeploymentParams& dep = config_->deployment;
  AccessPoint ap;
  ap.location = where;
  ap.cell = region_->grid().cell_at(where);
  ap.placement = ApPlacement::Office;
  ap.info.bssid = next_bssid(ApPlacement::Office);
  ap.info.essid = essids_.office(rng);
  ap.info.band =
      rng.bernoulli(dep.office_5ghz_frac) ? Band::B5GHz : Band::B24GHz;
  ap.info.channel = ap.info.band == Band::B5GHz
                        ? pick_channel_5(rng)
                        : pick_channel_24(ChannelPolicy::AutoSelect, rng);
  return append(std::move(ap));
}

std::optional<ApId> Deployment::pick_public_ap(geo::Point where,
                                               stats::PhiloxRng& rng) const {
  const GeoCell cell = region_->grid().cell_at(where);
  const auto& bucket = public_by_cell_[cell];
  if (bucket.empty()) return std::nullopt;
  return bucket[rng.uniform_int(bucket.size())];
}

std::optional<ApId> Deployment::pick_venue_ap(geo::Point where,
                                              stats::PhiloxRng& rng) const {
  const GeoCell cell = region_->grid().cell_at(where);
  const auto& bucket = venue_by_cell_[cell];
  if (bucket.empty()) return std::nullopt;
  return bucket[rng.uniform_int(bucket.size())];
}

double Deployment::draw_association_distance_m(ApPlacement placement,
                                               stats::PhiloxRng& rng) const {
  // Lognormal distances; medians chosen so the resulting RSSI PDFs match
  // Fig 15 (home mean ~ -54 dBm; public shifted toward -60 dBm with ~12%
  // below -70 dBm).
  switch (placement) {
    case ApPlacement::Home:
      return rng.lognormal(std::log(15.0), 0.45);
    case ApPlacement::Office:
      return rng.lognormal(std::log(15.0), 0.50);
    case ApPlacement::Public:
      return rng.lognormal(std::log(18.0), 0.55);
    case ApPlacement::OtherVenue:
      return rng.lognormal(std::log(12.0), 0.55);
    case ApPlacement::MobileHotspot:
      return rng.lognormal(std::log(1.5), 0.40);
  }
  return 10.0;
}

double Deployment::expected_scan_count(GeoCell cell) const noexcept {
  const double factor = region_->downtown_factor(cell);
  // Detected hotspot density falls off steeply away from the urban
  // cores; residential cells keep a thin baseline of convenience-store
  // hotspots.
  const double shaped = std::pow(factor, 3.0);
  return config_->deployment.scan_density_peak * (0.008 + 0.992 * shaped);
}

void Deployment::export_to(Dataset& dataset) const {
  std::vector<ApInfo>& infos = dataset.aps.mut();
  std::vector<ApTruth>& truths = dataset.truth.aps.mut();
  infos.clear();
  infos.reserve(aps_.size());
  truths.clear();
  truths.reserve(aps_.size());
  for (const AccessPoint& ap : aps_) {
    infos.push_back(ap.info);
    ApTruth t;
    t.placement = ap.placement;
    t.cell = ap.cell;
    truths.push_back(t);
  }
}

}  // namespace tokyonet::net
