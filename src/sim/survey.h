// Post-campaign survey synthesizer (§4.2, Tables 2/8/9).
//
// Recruited users answer from their ground-truth profile plus a
// perception-noise model reproducing the paper's observed gaps: users
// over-report public-WiFi connectivity relative to what the traffic data
// shows, and office answers reflect BYOD policy rather than observed
// associations.
#pragma once

#include <vector>

#include "core/records.h"
#include "core/scenario.h"
#include "sim/user.h"
#include "stats/philox.h"

namespace tokyonet::sim {

/// One response per user, parallel to `users`; only recruited users
/// answer. User i answers from PhiloxRng(config.seed, i, lane).
[[nodiscard]] std::vector<SurveyResponse> build_survey(
    const ScenarioConfig& config, const std::vector<UserProfile>& users,
    std::uint32_t lane);

}  // namespace tokyonet::sim
