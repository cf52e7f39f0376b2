// Shared analysis primitives: per-user-day volume rollups, weekly
// time-series profiles, and user-class (heavy/light) definitions used
// throughout §3 of the paper.
//
// Analysis code consumes only observable record fields — never simulator
// ground truth. Tests compare analysis inferences against ground truth.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/records.h"

namespace tokyonet::analysis {

inline constexpr double kBytesPerMb = 1e6;

/// Traffic rollup of one device on one campaign day.
struct UserDay {
  DeviceId device{};
  int day = 0;
  double cell_rx_mb = 0;
  double cell_tx_mb = 0;
  double wifi_rx_mb = 0;
  double wifi_tx_mb = 0;

  [[nodiscard]] double total_rx_mb() const noexcept {
    return cell_rx_mb + wifi_rx_mb;
  }
  [[nodiscard]] double total_tx_mb() const noexcept {
    return cell_tx_mb + wifi_tx_mb;
  }
};

/// Options for the rollup.
struct UserDayOptions {
  /// Exclude the OS-update day and the following day per updated device,
  /// as the paper does for its main analysis (§2). Requires the caller
  /// to pass detected update bins (analysis/update.h).
  const std::vector<std::int32_t>* update_bin_by_device = nullptr;
  /// Drop samples taken while the device was tethering, mirroring the
  /// paper's data cleaning (§2: tethering traffic has different
  /// characteristics and is removed).
  bool exclude_tethering = true;
};

/// Per-device-per-day volumes for the whole campaign, ordered by
/// (device, day). Every device-day appears exactly once (even if idle).
[[nodiscard]] std::vector<UserDay> user_days(const Dataset& ds,
                                             const UserDayOptions& opt = {});

/// Paper §2: light users are user-days in the 40th-60th percentile of
/// daily *download* traffic; heavy hitters are the top 5%. One user may
/// be light one day and heavy another.
enum class UserClass : std::uint8_t { Light, Heavy, Neither };

/// Classifies every user-day by its total download volume.
class UserClassifier {
 public:
  /// Thresholds can be overridden for the ablation figures.
  explicit UserClassifier(const std::vector<UserDay>& days,
                          double light_lo_pct = 40, double light_hi_pct = 60,
                          double heavy_pct = 95);

  [[nodiscard]] UserClass classify(const UserDay& d) const noexcept;
  [[nodiscard]] double light_lo() const noexcept { return light_lo_; }
  [[nodiscard]] double light_hi() const noexcept { return light_hi_; }
  [[nodiscard]] double heavy_threshold() const noexcept { return heavy_; }

 private:
  double light_lo_ = 0;
  double light_hi_ = 0;
  double heavy_ = 0;
};

/// Aggregates a ratio per hour-of-week, week starting Saturday (the
/// paper's weekly x-axes run Sat..Sat). Multiple campaign weeks fold
/// onto one profile.
///
/// An exact monoid: numerator and denominator are u64 sums of the
/// integers every caller adds (bytes, sample counts, battery levels),
/// and the only division happens in ratio_series()/mean_ratio(). Merging
/// partial profiles is therefore grouping-independent — any chunk,
/// device block or shard decomposition gives the same bytes.
class WeeklyProfile {
 public:
  static constexpr int kHours = 7 * 24;

  /// Adds `num` / `den` to the sums of hour-of-week `hour` — pairs with
  /// the precomputed per-bin table in core::DatasetIndex
  /// (hour_of_week_table) or hour_of_week() below.
  void add_hour(int hour, std::uint64_t num, std::uint64_t den = 1) noexcept {
    num_[hour] += num;
    den_[hour] += den;
  }

  /// Hour-of-week index of a bin (0 = Saturday 00:00-01:00).
  [[nodiscard]] static int hour_of_week(const CampaignCalendar& cal,
                                        TimeBin bin) noexcept;

  /// Accumulates another profile's sums into this one.
  void merge(const WeeklyProfile& other) noexcept;

  /// num/den per hour (0 where den == 0).
  [[nodiscard]] std::vector<double> ratio_series() const;
  /// The exact sums (streaming/batch equivalence compares these).
  [[nodiscard]] std::vector<std::uint64_t> num_series() const;
  [[nodiscard]] std::vector<std::uint64_t> den_series() const;

  /// Mean of the ratio over hours with data.
  [[nodiscard]] double mean_ratio() const noexcept;

  [[nodiscard]] bool operator==(const WeeklyProfile&) const = default;

 private:
  std::uint64_t num_[kHours] = {};
  std::uint64_t den_[kHours] = {};
};

/// Device's inferred nighttime (home) geolocation cell: the most common
/// geo cell across 22:00-06:00 samples, or kNoGeoCell if unknown. Used
/// to split cellular traffic into "home" vs "other" (Tables 6/7).
[[nodiscard]] std::vector<GeoCell> infer_home_cells(const Dataset& ds);

}  // namespace tokyonet::analysis
