// Multi-provider AP detection (§4.3).
//
// The paper observes physical APs that announce several providers'
// ESSIDs, identified by "similar BSSIDs assigned to different
// providers". This module reproduces that check over the associated
// public networks: BSSIDs with the same OUI whose serial parts are
// adjacent, carrying different well-known provider ESSIDs, are grouped
// as one shared box.
#pragma once

#include <vector>

#include "analysis/classify.h"
#include "analysis/query/fwd.h"
#include "core/records.h"

namespace tokyonet::analysis {

struct SharedApAnalysis {
  /// Groups of AP ids believed to be one physical multi-provider box.
  std::vector<std::vector<ApId>> groups;
  /// Number of associated public networks examined.
  int public_aps = 0;
  /// Share of associated public networks that sit on shared hardware.
  double shared_share = 0;
};

struct SharedApOptions {
  /// Maximum serial distance between BSSIDs of one physical box.
  std::uint64_t max_serial_gap = 1;
};

/// The detection needs only the (resident) AP universe — no sample scan.
[[nodiscard]] SharedApAnalysis detect_shared_aps(
    const query::DataSource& src, const ApClassification& cls,
    const SharedApOptions& opt = {});

}  // namespace tokyonet::analysis
