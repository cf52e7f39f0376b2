// Application-category traffic model (§3.6, Tables 6/7).
//
// When a simulated user consumes traffic in a 10-minute bin, the demand
// is attributed to 1-3 Google-Play categories. Category volume shares
// depend on the campaign year and the *context* — which interface the
// traffic rides and where the user is — reproducing the paper's
// observations: browsing dominates cellular, video exploded on home WiFi
// from 2014, download/video grew on public WiFi, and upload-heavy online
// storage (productivity) syncs only over WiFi.
#pragma once

#include <array>
#include <span>
#include <vector>

#include "core/records.h"
#include "core/types.h"
#include "stats/philox.h"
#include "stats/tables.h"

namespace tokyonet::app {

/// Consumption context for category selection.
enum class Context : std::uint8_t {
  CellHome = 0,   // cellular while at home (no/unused home AP)
  CellOther = 1,  // cellular elsewhere
  WifiHome = 2,
  WifiPublic = 3,
  WifiOther = 4,  // office / venue / mobile hotspot
};
inline constexpr int kNumContexts = 5;

/// Categories whose volume shares are modelled one by one; the others
/// share one collapsed minor-tail entry.
inline constexpr std::size_t kNumMajorCategories = 15;

/// Weights of AppMixer's category draw in `context`: the major shares,
/// then the minor tail (whatever the majors leave of 1).
[[nodiscard]] std::array<double, kNumMajorCategories + 1> category_weights(
    Year year, Context context) noexcept;

/// Weights of 1, 2 and 3 active categories per bin.
inline constexpr std::array<double, 3> kCategoryCountWeights{0.50, 0.35,
                                                             0.15};

/// Per-category upload/download character.
struct CategoryShape {
  AppCategory category;
  /// E[tx] / E[rx] for this category (productivity > 1: sync uploads).
  double tx_ratio;
};

/// Splits `demand_mb` of download demand across categories for one bin.
///
/// Returns 1-3 AppTraffic entries whose rx sum equals `demand_mb`
/// (converted to bytes) and whose tx follows per-category ratios with
/// multiplicative noise. Category selection draws from Walker alias
/// tables built once per scenario (one per context), so a draw costs
/// one uniform regardless of how many categories are modelled.
class AppMixer {
 public:
  explicit AppMixer(Year year);

  /// Draws a category mix. `out` is appended to; returns total tx bytes.
  std::uint64_t mix(Context context, double demand_mb, stats::PhiloxRng& rng,
                    std::vector<AppTraffic>& out) const;

  /// Expected volume share of `category` in `context` (for tests).
  [[nodiscard]] double expected_share(Context context,
                                      AppCategory category) const noexcept;

 private:
  Year year_;
  /// Alias table over the 15 major categories + 1 minor-tail pseudo
  /// entry, per context.
  std::array<stats::AliasTable, kNumContexts> category_table_;
  /// Alias table over the 1/2/3-categories-per-bin count weights.
  stats::AliasTable count_table_;
  /// Quantile table for the per-category tx jitter (lognormal(0, 0.5)):
  /// mix() runs for every active Android bin, so its noise draws skip
  /// the per-draw normal-quantile polynomial and exp.
  stats::LognormalTable tx_noise_;
};

/// Upload/download shape of a category (exposed for tests/docs).
[[nodiscard]] double category_tx_ratio(AppCategory category) noexcept;

}  // namespace tokyonet::app
