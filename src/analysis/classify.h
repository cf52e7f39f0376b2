// Access-point classification (§3.4.1).
//
// Reimplements the paper's methodology on observable records only:
//  - Home: the (BSSID, ESSID) pair a device associates with during at
//    least 70% of the 22:00-06:00 window of a day; each device's home AP
//    is its most frequent such candidate. FON boxes broadcasting a public
//    ESSID are classified home when a user camps on them overnight.
//  - Public: well-known provider ESSIDs (net::is_public_essid).
//  - Other: everything else. Within Other, the paper further estimates
//    *office* APs (association mainly 11:00-17:00 on weekdays) and
//    excludes *mobile* APs (seen across several geolocation cells).
#pragma once

#include <span>
#include <vector>

#include "analysis/query/fwd.h"
#include "core/records.h"

namespace tokyonet::analysis {

/// Tunables, exposed for the ablation figures (DESIGN.md §6).
struct ClassifyOptions {
  /// Minimum presence in the nightly window for a home candidate.
  double home_presence_threshold = 0.70;
  int night_from_hour = 22;
  int night_to_hour = 6;
  /// An AP seen in this many distinct geo cells is considered mobile.
  int mobile_min_cells = 3;
  /// Office rule: at least this share of an AP's association bins fall
  /// inside 11:00-17:00 on weekdays.
  double office_window_share = 0.60;
  int office_from_hour = 11;
  int office_to_hour = 17;
  /// Minimum association bins before an AP can be called an office.
  int office_min_bins = 12;
};

/// Result of the classification.
struct ApClassification {
  /// Per-ApId class; APs never associated with get ApClass::Other but
  /// are excluded from the counts below.
  std::vector<ApClass> ap_class;
  std::vector<bool> associated;  // AP appeared in >= 1 sample
  std::vector<bool> is_office;   // subset of Other
  std::vector<bool> is_mobile;   // subset of Other
  /// Per-device inferred home AP (kNoAp when the device has none).
  std::vector<ApId> home_ap_of_device;

  struct Counts {
    int home = 0;
    int publik = 0;
    int other = 0;
    int office = 0;  // subset of other
    int total = 0;
  };
  /// Table 4's row: counts over associated APs.
  [[nodiscard]] Counts counts() const;

  /// Share of devices with an inferred home AP (66%/73%/79%, §3.4.1).
  [[nodiscard]] double home_ap_device_share() const;

  [[nodiscard]] ApClass class_of(ApId id) const {
    return ap_class[value(id)];
  }
};

/// Runs the full classification over a campaign. Each device's scan
/// depends only on its own stream; per-AP tallies merge by addition and
/// set union and the per-device home-AP verdicts concatenate in device
/// order, so every backend and shard count gives the same result.
[[nodiscard]] ApClassification classify_aps(const query::DataSource& src,
                                            const ClassifyOptions& opt = {});

/// Threshold sweep: one classification per entry of `thresholds`, each
/// equal to classify_aps() with `opt.home_presence_threshold` set to
/// that entry (the field itself is ignored), from a single pass. Every
/// nightly window's most-present AP is recorded once per device and
/// replayed against each threshold.
[[nodiscard]] std::vector<ApClassification> classify_aps(
    const query::DataSource& src, const ClassifyOptions& opt,
    std::span<const double> thresholds);

}  // namespace tokyonet::analysis
