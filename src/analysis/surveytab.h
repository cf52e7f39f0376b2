// Survey tabulation (Tables 2, 8 and 9): demographics, self-reported
// WiFi connectivity per location, and reasons for unavailability.
#pragma once

#include <array>

#include "analysis/query/fwd.h"
#include "core/records.h"

namespace tokyonet::analysis {

/// Table 2: occupation shares (%) among recruited users.
struct Demographics {
  std::array<double, kNumOccupations> percent{};
  int respondents = 0;
};

[[nodiscard]] Demographics demographics(const query::DataSource& src);

/// Table 8: yes/no/not-answered (%) per location.
struct SurveyApUsage {
  std::array<double, kNumSurveyLocations> yes{};
  std::array<double, kNumSurveyLocations> no{};
  std::array<double, kNumSurveyLocations> not_answered{};
};

[[nodiscard]] SurveyApUsage survey_ap_usage(const query::DataSource& src);

/// Table 9: share (%) of "No" respondents giving each reason, per
/// location (multiple answers allowed).
struct SurveyReasons {
  std::array<std::array<double, kNumSurveyReasons>, kNumSurveyLocations>
      percent{};
  std::array<int, kNumSurveyLocations> respondents{};
};

[[nodiscard]] SurveyReasons survey_reasons(const query::DataSource& src);

}  // namespace tokyonet::analysis
