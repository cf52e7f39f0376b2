// The simulated Greater Tokyo region: grid + city anchors + density
// mixtures for sampling home, office and public-space locations.
#pragma once

#include <span>

#include "geo/grid.h"
#include "stats/philox.h"

namespace tokyonet::geo {

/// Greater Tokyo as a mixture of Gaussian population anchors over a
/// 180 km x 150 km grid of 5 km cells. Anchor geometry approximates the
/// real relative positions of the ten cities labelled in the paper's
/// Fig 10 maps.
class TokyoRegion {
 public:
  TokyoRegion();

  [[nodiscard]] const Grid& grid() const noexcept { return grid_; }
  [[nodiscard]] std::span<const City> cities() const noexcept;

  /// Draws a residential location (home-weight mixture).
  [[nodiscard]] Point sample_home(stats::PhiloxRng& rng) const;
  /// Draws a workplace location (office-weight mixture; much more
  /// concentrated downtown).
  [[nodiscard]] Point sample_office(stats::PhiloxRng& rng) const;
  /// Draws a public-space location (cafes, stations, streets): a blend of
  /// the office mixture (downtown hotspots) and the home mixture
  /// (suburban stations/shops).
  [[nodiscard]] Point sample_public_spot(stats::PhiloxRng& rng) const;

  /// Relative activity density of a cell in [0, 1]: how "downtown" it
  /// is. Drives public AP deployment density.
  [[nodiscard]] double downtown_factor(GeoCell cell) const noexcept;

  /// A point on the straight commute path between two points, at
  /// fraction t in [0, 1].
  [[nodiscard]] static Point along_path(Point from, Point to,
                                        double t) noexcept {
    return Point{from.x_km + t * (to.x_km - from.x_km),
                 from.y_km + t * (to.y_km - from.y_km)};
  }

 private:
  [[nodiscard]] Point sample_mixture(stats::PhiloxRng& rng, bool office) const;

  Grid grid_;
};

}  // namespace tokyonet::geo
