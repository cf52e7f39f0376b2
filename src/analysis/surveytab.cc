#include "analysis/surveytab.h"

#include <cstdint>

namespace tokyonet::analysis {
namespace {

// The survey row of a recruited device, or nullptr for a device that
// was not recruited or a campaign without survey rows.
[[nodiscard]] const SurveyResponse* response(
    const DeviceInfo& dev, std::size_t d,
    std::span<const SurveyResponse> survey) noexcept {
  return dev.recruited && d < survey.size() ? &survey[d] : nullptr;
}

}  // namespace

// Each table tallies integer counts and normalizes them once (×100/n),
// so the result depends only on the rows, not on how they were
// gathered.
Demographics demographics(std::span<const DeviceInfo> devices,
                          std::span<const SurveyResponse> survey) {
  std::array<std::uint64_t, kNumOccupations> occupation{};
  Demographics d;
  for (std::size_t i = 0; i < devices.size(); ++i) {
    const SurveyResponse* r = response(devices[i], i, survey);
    if (r == nullptr) continue;
    ++occupation[static_cast<std::size_t>(r->occupation)];
    ++d.respondents;
  }
  for (std::size_t i = 0; i < kNumOccupations; ++i) {
    d.percent[i] = static_cast<double>(occupation[i]);
  }
  if (d.respondents > 0) {
    for (double& p : d.percent) p = p * 100.0 / d.respondents;
  }
  return d;
}

SurveyApUsage survey_ap_usage(std::span<const DeviceInfo> devices,
                              std::span<const SurveyResponse> survey) {
  std::array<std::uint64_t, kNumSurveyLocations> yes{}, no{}, not_answered{};
  std::uint64_t n = 0;
  for (std::size_t i = 0; i < devices.size(); ++i) {
    const SurveyResponse* r = response(devices[i], i, survey);
    if (r == nullptr) continue;
    ++n;
    for (std::size_t loc = 0; loc < kNumSurveyLocations; ++loc) {
      switch (r->connected[loc]) {
        case SurveyYesNo::Yes: ++yes[loc]; break;
        case SurveyYesNo::No: ++no[loc]; break;
        case SurveyYesNo::NotAnswered: ++not_answered[loc]; break;
      }
    }
  }
  SurveyApUsage u;
  for (std::size_t loc = 0; loc < kNumSurveyLocations; ++loc) {
    u.yes[loc] = static_cast<double>(yes[loc]);
    u.no[loc] = static_cast<double>(no[loc]);
    u.not_answered[loc] = static_cast<double>(not_answered[loc]);
  }
  if (n > 0) {
    const auto total = static_cast<double>(n);
    for (std::size_t loc = 0; loc < kNumSurveyLocations; ++loc) {
      u.yes[loc] *= 100.0 / total;
      u.no[loc] *= 100.0 / total;
      u.not_answered[loc] *= 100.0 / total;
    }
  }
  return u;
}

SurveyReasons survey_reasons(std::span<const DeviceInfo> devices,
                             std::span<const SurveyResponse> survey) {
  std::array<std::array<std::uint64_t, kNumSurveyReasons>,
             kNumSurveyLocations>
      gave{};
  SurveyReasons out;
  for (std::size_t i = 0; i < devices.size(); ++i) {
    const SurveyResponse* r = response(devices[i], i, survey);
    if (r == nullptr) continue;
    for (std::size_t loc = 0; loc < kNumSurveyLocations; ++loc) {
      if (r->connected[loc] != SurveyYesNo::No) continue;
      ++out.respondents[loc];
      for (std::size_t reason = 0; reason < kNumSurveyReasons; ++reason) {
        if (r->gave_reason(static_cast<SurveyLocation>(loc),
                           static_cast<SurveyReason>(reason))) {
          ++gave[loc][reason];
        }
      }
    }
  }
  for (std::size_t loc = 0; loc < kNumSurveyLocations; ++loc) {
    for (std::size_t r = 0; r < kNumSurveyReasons; ++r) {
      out.percent[loc][r] = static_cast<double>(gave[loc][r]);
    }
    if (out.respondents[loc] == 0) continue;
    for (double& p : out.percent[loc]) {
      p *= 100.0 / static_cast<double>(out.respondents[loc]);
    }
  }
  return out;
}

}  // namespace tokyonet::analysis
