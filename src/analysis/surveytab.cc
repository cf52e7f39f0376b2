#include "analysis/surveytab.h"

#include <cstdint>

#include "analysis/query/source.h"

namespace tokyonet::analysis {
namespace {

// Raw per-shard tallies behind the survey tables. Each recruited
// device contributes integer increments keyed only by its own survey
// row, so partials are additive across any device partition; the
// ×100/n normalization happens once over the merged counts, from the
// same integer operands as the all-at-once scan.
struct DemographicsCounts {
  std::array<std::uint64_t, kNumOccupations> occupation{};
  std::uint64_t respondents = 0;

  void merge(const DemographicsCounts& p) noexcept {
    for (std::size_t i = 0; i < kNumOccupations; ++i) {
      occupation[i] += p.occupation[i];
    }
    respondents += p.respondents;
  }
};

[[nodiscard]] DemographicsCounts demographics_counts(const Dataset& ds) {
  DemographicsCounts out;
  for (const DeviceInfo& dev : ds.devices) {
    if (!dev.recruited) continue;
    const SurveyResponse& r = ds.survey[value(dev.id)];
    ++out.occupation[static_cast<std::size_t>(r.occupation)];
    ++out.respondents;
  }
  return out;
}

[[nodiscard]] Demographics demographics_finalize(
    const DemographicsCounts& c) {
  Demographics d;
  d.respondents = static_cast<int>(c.respondents);
  for (std::size_t i = 0; i < kNumOccupations; ++i) {
    d.percent[i] = static_cast<double>(c.occupation[i]);
  }
  if (d.respondents > 0) {
    for (double& p : d.percent) p = p * 100.0 / d.respondents;
  }
  return d;
}

struct ApUsageCounts {
  std::array<std::uint64_t, kNumSurveyLocations> yes{}, no{}, not_answered{};
  std::uint64_t n = 0;

  void merge(const ApUsageCounts& p) noexcept {
    for (std::size_t loc = 0; loc < kNumSurveyLocations; ++loc) {
      yes[loc] += p.yes[loc];
      no[loc] += p.no[loc];
      not_answered[loc] += p.not_answered[loc];
    }
    n += p.n;
  }
};

[[nodiscard]] ApUsageCounts ap_usage_counts(const Dataset& ds) {
  ApUsageCounts out;
  for (const DeviceInfo& dev : ds.devices) {
    if (!dev.recruited) continue;
    ++out.n;
    const SurveyResponse& r = ds.survey[value(dev.id)];
    for (int loc = 0; loc < kNumSurveyLocations; ++loc) {
      switch (r.connected[loc]) {
        case SurveyYesNo::Yes: ++out.yes[static_cast<std::size_t>(loc)]; break;
        case SurveyYesNo::No: ++out.no[static_cast<std::size_t>(loc)]; break;
        case SurveyYesNo::NotAnswered:
          ++out.not_answered[static_cast<std::size_t>(loc)];
          break;
      }
    }
  }
  return out;
}

[[nodiscard]] SurveyApUsage ap_usage_finalize(const ApUsageCounts& c) {
  SurveyApUsage u;
  for (std::size_t loc = 0; loc < kNumSurveyLocations; ++loc) {
    u.yes[loc] = static_cast<double>(c.yes[loc]);
    u.no[loc] = static_cast<double>(c.no[loc]);
    u.not_answered[loc] = static_cast<double>(c.not_answered[loc]);
  }
  if (c.n > 0) {
    const auto n = static_cast<double>(c.n);
    for (std::size_t loc = 0; loc < kNumSurveyLocations; ++loc) {
      u.yes[loc] *= 100.0 / n;
      u.no[loc] *= 100.0 / n;
      u.not_answered[loc] *= 100.0 / n;
    }
  }
  return u;
}

struct ReasonsCounts {
  std::array<std::array<std::uint64_t, kNumSurveyReasons>,
             kNumSurveyLocations>
      gave{};
  std::array<std::uint64_t, kNumSurveyLocations> respondents{};

  void merge(const ReasonsCounts& p) noexcept {
    for (std::size_t loc = 0; loc < kNumSurveyLocations; ++loc) {
      for (std::size_t r = 0; r < kNumSurveyReasons; ++r) {
        gave[loc][r] += p.gave[loc][r];
      }
      respondents[loc] += p.respondents[loc];
    }
  }
};

[[nodiscard]] ReasonsCounts reasons_counts(const Dataset& ds) {
  ReasonsCounts out;
  for (const DeviceInfo& dev : ds.devices) {
    if (!dev.recruited) continue;
    const SurveyResponse& r = ds.survey[value(dev.id)];
    for (int loc = 0; loc < kNumSurveyLocations; ++loc) {
      if (r.connected[loc] != SurveyYesNo::No) continue;
      ++out.respondents[static_cast<std::size_t>(loc)];
      for (int reason = 0; reason < kNumSurveyReasons; ++reason) {
        if (r.gave_reason(static_cast<SurveyLocation>(loc),
                          static_cast<SurveyReason>(reason))) {
          ++out.gave[static_cast<std::size_t>(loc)]
                    [static_cast<std::size_t>(reason)];
        }
      }
    }
  }
  return out;
}

[[nodiscard]] SurveyReasons reasons_finalize(const ReasonsCounts& c) {
  SurveyReasons out;
  for (std::size_t loc = 0; loc < kNumSurveyLocations; ++loc) {
    out.respondents[loc] = static_cast<int>(c.respondents[loc]);
    for (std::size_t r = 0; r < kNumSurveyReasons; ++r) {
      out.percent[loc][r] = static_cast<double>(c.gave[loc][r]);
    }
    if (c.respondents[loc] == 0) continue;
    for (double& p : out.percent[loc]) {
      p *= 100.0 / static_cast<double>(c.respondents[loc]);
    }
  }
  return out;
}

}  // namespace

Demographics demographics(const query::DataSource& src) {
  return demographics_finalize(src.reduce<DemographicsCounts>(
      [](const Dataset& block, std::size_t) {
        return demographics_counts(block);
      },
      [](DemographicsCounts& acc, DemographicsCounts&& p) { acc.merge(p); }));
}

SurveyApUsage survey_ap_usage(const query::DataSource& src) {
  return ap_usage_finalize(src.reduce<ApUsageCounts>(
      [](const Dataset& block, std::size_t) { return ap_usage_counts(block); },
      [](ApUsageCounts& acc, ApUsageCounts&& p) { acc.merge(p); }));
}

SurveyReasons survey_reasons(const query::DataSource& src) {
  return reasons_finalize(src.reduce<ReasonsCounts>(
      [](const Dataset& block, std::size_t) { return reasons_counts(block); },
      [](ReasonsCounts& acc, ReasonsCounts&& p) { acc.merge(p); }));
}

}  // namespace tokyonet::analysis
