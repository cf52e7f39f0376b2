// Public WiFi availability for WiFi-available users (§3.5, Fig 17):
// CCDFs of the number of detected public networks per device per
// 10-minute scan, and the offloadable-cellular-traffic estimate.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "analysis/query/fwd.h"
#include "core/records.h"

namespace tokyonet::analysis {

/// How many samples reported each scan count (a u8, so 256 values).
struct ScanCountHistogram {
  std::array<std::uint64_t, 256> count{};

  /// Samples counted.
  [[nodiscard]] std::uint64_t samples() const noexcept;
  /// P[X > x] over the samples (1 when there are none): the same
  /// integer count over the same size as stats::Ecdf::ccdf.
  [[nodiscard]] double ccdf(double x) const noexcept;

  [[nodiscard]] bool operator==(const ScanCountHistogram&) const = default;
};

/// Scan-count histograms by band and strength, over samples of devices
/// in the WiFi-available state (Android; iOS reports no scans). Every
/// histogram counts the same samples.
struct ScanAvailability {
  ScanCountHistogram all_24;
  ScanCountHistogram strong_24;
  ScanCountHistogram all_5;
  ScanCountHistogram strong_5;
};

[[nodiscard]] ScanAvailability scan_availability(const query::DataSource& src);

/// §3.5's offloading headroom estimate for WiFi-available users.
struct OffloadOpportunity {
  /// Share of WiFi-available users who regularly see >= 1 strong public
  /// network ("stable" opportunity; ~60% in the paper).
  double users_with_stable_opportunity = 0;
  /// Share of those users' daily cellular download that occurred in bins
  /// where a strong public network was in range (15-20% in the paper).
  double offloadable_cell_share = 0;
  int num_wifi_available_users = 0;
};

struct OpportunityOptions {
  /// A user counts as WiFi-available if at least this share of their
  /// samples are in the OnUnassociated state.
  double available_state_share = 0.20;
  /// "Stable" opportunity: share of unassociated bins with >= 1 strong
  /// public network.
  double stable_bin_share = 0.15;
};

[[nodiscard]] OffloadOpportunity offload_opportunity(
    const query::DataSource& src, const OpportunityOptions& opt = {});

/// One estimate per entry of `opts`, each equal to offload_opportunity()
/// with that entry, from one pass: the per-device tallies do not depend
/// on the options.
[[nodiscard]] std::vector<OffloadOpportunity> offload_opportunity(
    const query::DataSource& src, std::span<const OpportunityOptions> opts);

}  // namespace tokyonet::analysis
