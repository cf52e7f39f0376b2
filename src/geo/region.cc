#include "geo/region.h"

#include <algorithm>
#include <array>

namespace tokyonet::geo {
namespace {

// Approximate relative geometry of the Fig 10 city anchors, in km within
// a 180 x 150 km frame. Home weights reflect residential sprawl; office
// weights concentrate on the Tokyo core.
constexpr std::array<City, 10> kCities{{
    {"Tokyo", {90, 75}, 0.26, 0.55, 9},
    {"Yokohama", {78, 55}, 0.15, 0.13, 8},
    {"Kawasaki", {83, 63}, 0.09, 0.06, 5},
    {"Saitama", {88, 100}, 0.12, 0.07, 8},
    {"Chiba", {125, 65}, 0.09, 0.06, 8},
    {"Funabashi", {112, 70}, 0.08, 0.04, 5},
    {"Hachioji", {50, 78}, 0.08, 0.04, 7},
    {"Narita", {150, 85}, 0.04, 0.02, 6},
    {"Yokosuka", {85, 35}, 0.05, 0.02, 5},
    {"Odawara", {35, 40}, 0.04, 0.01, 6},
}};

}  // namespace

TokyoRegion::TokyoRegion() : grid_(36, 30) {}

std::span<const City> TokyoRegion::cities() const noexcept { return kCities; }

Point TokyoRegion::sample_mixture(stats::PhiloxRng& rng, bool office) const {
  std::array<double, kCities.size()> w;
  for (std::size_t i = 0; i < kCities.size(); ++i) {
    w[i] = office ? kCities[i].office_weight : kCities[i].home_weight;
  }
  const City& c = kCities[rng.categorical(w)];
  Point p{rng.normal(c.location.x_km, c.sigma_km),
          rng.normal(c.location.y_km, c.sigma_km)};
  p.x_km = std::clamp(p.x_km, 0.0, grid_.width_km() - 1e-9);
  p.y_km = std::clamp(p.y_km, 0.0, grid_.height_km() - 1e-9);
  return p;
}

Point TokyoRegion::sample_home(stats::PhiloxRng& rng) const {
  return sample_mixture(rng, /*office=*/false);
}

Point TokyoRegion::sample_office(stats::PhiloxRng& rng) const {
  return sample_mixture(rng, /*office=*/true);
}

Point TokyoRegion::sample_public_spot(stats::PhiloxRng& rng) const {
  // 70% of public spots follow the downtown/office density (stations,
  // shopping districts), 30% the residential density (suburban stations,
  // convenience stores).
  return sample_mixture(rng, /*office=*/rng.bernoulli(0.7));
}

double TokyoRegion::downtown_factor(GeoCell cell) const noexcept {
  const Point p = grid_.center_of(cell);
  double density = 0;
  for (const City& c : kCities) {
    const double d = distance_km(p, c.location);
    const double s = c.sigma_km;
    density += c.office_weight * std::exp(-(d * d) / (2 * s * s));
  }
  // Normalize against the density at the heart of Tokyo.
  static const double peak = [] {
    double best = 0;
    for (const City& a : kCities) {
      double v = 0;
      for (const City& c : kCities) {
        const double d = distance_km(a.location, c.location);
        v += c.office_weight * std::exp(-(d * d) / (2 * c.sigma_km * c.sigma_km));
      }
      best = std::max(best, v);
    }
    return best;
  }();
  return std::min(1.0, density / peak);
}

}  // namespace tokyonet::geo
