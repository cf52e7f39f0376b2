// Survey tabulation (Tables 2, 8 and 9): demographics, self-reported
// WiFi connectivity per location, and reasons for unavailability.
//
// The tables read only the device table and its survey rows, which the
// analysis context gathers in its one pass (AnalysisContext::devices()
// and survey()), so they make no pass of their own. `survey` is
// parallel to `devices` (global device index); a campaign without
// survey rows passes an empty span and has no respondents.
#pragma once

#include <array>
#include <span>

#include "core/records.h"

namespace tokyonet::analysis {

/// Table 2: occupation shares (%) among recruited users.
struct Demographics {
  std::array<double, kNumOccupations> percent{};
  int respondents = 0;
};

[[nodiscard]] Demographics demographics(
    std::span<const DeviceInfo> devices, std::span<const SurveyResponse> survey);

/// Table 8: yes/no/not-answered (%) per location.
struct SurveyApUsage {
  std::array<double, kNumSurveyLocations> yes{};
  std::array<double, kNumSurveyLocations> no{};
  std::array<double, kNumSurveyLocations> not_answered{};
};

[[nodiscard]] SurveyApUsage survey_ap_usage(
    std::span<const DeviceInfo> devices, std::span<const SurveyResponse> survey);

/// Table 9: share (%) of "No" respondents giving each reason, per
/// location (multiple answers allowed).
struct SurveyReasons {
  std::array<std::array<double, kNumSurveyReasons>, kNumSurveyLocations>
      percent{};
  std::array<int, kNumSurveyLocations> respondents{};
};

[[nodiscard]] SurveyReasons survey_reasons(
    std::span<const DeviceInfo> devices, std::span<const SurveyResponse> survey);

}  // namespace tokyonet::analysis
