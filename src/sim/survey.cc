#include "sim/survey.h"

#include <array>

namespace tokyonet::sim {
namespace {

// P(reason | answered "No" at location), loosely following Table 9's
// per-year movements: configuration pain shrinks over time (SIM-auth
// rollout), security worries about public WiFi grow, battery concern
// fades, "LTE is enough" appears from 2014.
struct ReasonProfile {
  double no_aps, setup, config, battery, failed, security, lte, other;
};

constexpr ReasonProfile kHome[3] = {
    {0.33, 0.32, 0.48, 0.18, 0.05, 0.00, 0.00, 0.06},
    {0.34, 0.27, 0.35, 0.14, 0.06, 0.06, 0.25, 0.05},
    {0.40, 0.21, 0.32, 0.15, 0.08, 0.14, 0.21, 0.05},
};
constexpr ReasonProfile kOffice[3] = {
    {0.46, 0.16, 0.33, 0.16, 0.07, 0.00, 0.00, 0.12},
    {0.49, 0.15, 0.25, 0.09, 0.07, 0.09, 0.12, 0.10},
    {0.52, 0.11, 0.22, 0.07, 0.07, 0.14, 0.10, 0.10},
};
constexpr ReasonProfile kPublic[3] = {
    {0.25, 0.31, 0.43, 0.25, 0.09, 0.00, 0.00, 0.09},
    {0.24, 0.31, 0.31, 0.18, 0.08, 0.15, 0.22, 0.05},
    {0.23, 0.25, 0.29, 0.13, 0.11, 0.35, 0.23, 0.04},
};

void fill_reasons(SurveyResponse& r, SurveyLocation loc,
                  const ReasonProfile& p, bool truly_no_ap, int year,
                  stats::PhiloxRng& rng) {
  // Users who genuinely lack an AP lean on "no available APs" /
  // "no configuration"; others sample the population profile.
  const double no_aps = truly_no_ap ? p.no_aps * 1.5 : p.no_aps * 0.6;
  if (rng.bernoulli(std::min(1.0, no_aps)))
    r.set_reason(loc, SurveyReason::NoAvailableAps);
  if (rng.bernoulli(p.setup)) r.set_reason(loc, SurveyReason::DifficultToSetUp);
  if (rng.bernoulli(truly_no_ap ? std::min(1.0, p.config * 1.3) : p.config * 0.8))
    r.set_reason(loc, SurveyReason::NoConfiguration);
  if (rng.bernoulli(p.battery)) r.set_reason(loc, SurveyReason::BatteryDrain);
  if (rng.bernoulli(p.failed)) r.set_reason(loc, SurveyReason::Failed);
  if (year >= 1) {  // asked from the 2014 survey onward
    if (rng.bernoulli(p.security)) r.set_reason(loc, SurveyReason::SecurityIssue);
    if (rng.bernoulli(p.lte)) r.set_reason(loc, SurveyReason::LteIsEnough);
  }
  if (rng.bernoulli(p.other)) r.set_reason(loc, SurveyReason::OtherReason);
}

}  // namespace

std::vector<SurveyResponse> build_survey(const ScenarioConfig& config,
                                         const std::vector<UserProfile>& users,
                                         std::uint32_t lane) {
  const int year = static_cast<int>(config.year);
  std::vector<SurveyResponse> survey(users.size());

  for (const UserProfile& u : users) {
    if (!u.recruited) continue;
    stats::PhiloxRng rng(config.seed, value(u.id), lane);
    SurveyResponse r;
    r.occupation = u.occupation;

    const double na_rate = 0.045;  // a few skip each question

    // Home (Table 8: tracks true ownership closely).
    if (rng.bernoulli(na_rate)) {
      r.connected[0] = SurveyYesNo::NotAnswered;
    } else {
      const double yes = u.has_home_ap ? 0.96 : 0.06;
      r.connected[0] = rng.bernoulli(yes) ? SurveyYesNo::Yes : SurveyYesNo::No;
    }

    // Office: answers reflect workplace policy more than measured use.
    if (rng.bernoulli(na_rate + 0.005)) {
      r.connected[1] = SurveyYesNo::NotAnswered;
    } else {
      const double yes = u.office_byod ? 0.93 : (u.works ? 0.22 : 0.05);
      r.connected[1] = rng.bernoulli(yes) ? SurveyYesNo::Yes : SurveyYesNo::No;
    }

    // Public: users over-report connectivity (§4.2's recognition gap).
    if (rng.bernoulli(na_rate + 0.015)) {
      r.connected[2] = SurveyYesNo::NotAnswered;
    } else {
      const double yes = u.uses_public_wifi ? 0.90 : 0.28;
      r.connected[2] = rng.bernoulli(yes) ? SurveyYesNo::Yes : SurveyYesNo::No;
    }

    if (r.connected[0] == SurveyYesNo::No) {
      fill_reasons(r, SurveyLocation::Home, kHome[year], !u.has_home_ap,
                   year, rng);
    }
    if (r.connected[1] == SurveyYesNo::No) {
      fill_reasons(r, SurveyLocation::Office, kOffice[year], !u.office_byod,
                   year, rng);
    }
    if (r.connected[2] == SurveyYesNo::No) {
      fill_reasons(r, SurveyLocation::Public, kPublic[year],
                   !u.uses_public_wifi, year, rng);
    }
    survey[value(u.id)] = r;
  }
  return survey;
}

}  // namespace tokyonet::sim
