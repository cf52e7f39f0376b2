// Tests for population generation (sim/user) and the survey synthesizer.
#include <gtest/gtest.h>

#include "net/deployment.h"
#include "sim/survey.h"
#include "sim/user.h"

namespace tokyonet::sim {
namespace {

// Any two distinct lanes: users draw from (seed, user id, lane).
constexpr std::uint32_t kPopulationLane = 1;
constexpr std::uint32_t kSurveyLane = 2;

class PopulationTest : public ::testing::Test {
 protected:
  PopulationTest()
      : config_(scenario_config(Year::Y2015, 0.5)),
        rng_(99, 0, 0),
        deployment_(config_, region_, rng_) {
    users_ = build_population(config_, region_, deployment_, kPopulationLane,
                              rng_);
  }

  ScenarioConfig config_;
  geo::TokyoRegion region_;
  stats::PhiloxRng rng_;
  net::Deployment deployment_;
  std::vector<UserProfile> users_;
};

TEST_F(PopulationTest, CountsMatchScaledConfig) {
  int android = 0, ios = 0, recruited = 0;
  for (const UserProfile& u : users_) {
    android += u.os == Os::Android;
    ios += u.os == Os::Ios;
    recruited += u.recruited;
  }
  EXPECT_EQ(recruited, config_.scaled(config_.population.n_android) +
                           config_.scaled(config_.population.n_ios));
  EXPECT_GE(android, config_.scaled(config_.population.n_android));
  EXPECT_GE(ios, config_.scaled(config_.population.n_ios));
  EXPECT_GT(users_.size(), static_cast<std::size_t>(recruited));  // organic installs
}

TEST_F(PopulationTest, SequentialDeviceIds) {
  for (std::size_t i = 0; i < users_.size(); ++i) {
    EXPECT_EQ(value(users_[i].id), i);
  }
}

TEST_F(PopulationTest, HomeApOwnershipNearTarget) {
  int with = 0;
  for (const UserProfile& u : users_) with += u.has_home_ap;
  EXPECT_NEAR(static_cast<double>(with) / static_cast<double>(users_.size()),
              config_.adoption.home_ap_ownership, 0.05);
}

TEST_F(PopulationTest, ApHandlesConsistent) {
  for (const UserProfile& u : users_) {
    EXPECT_EQ(u.has_home_ap, u.home_ap != kNoAp);
    EXPECT_EQ(u.office_byod, u.office_ap != kNoAp);
    if (u.has_home_ap) {
      EXPECT_EQ(deployment_.ap(u.home_ap).placement, ApPlacement::Home);
    }
    if (u.office_byod) {
      EXPECT_EQ(deployment_.ap(u.office_ap).placement, ApPlacement::Office);
      EXPECT_TRUE(u.works);
    }
  }
}

TEST_F(PopulationTest, ArchetypeMixNearTargets) {
  int cell = 0, wifi = 0;
  for (const UserProfile& u : users_) {
    cell += u.archetype == UserArchetype::CellularIntensive;
    wifi += u.archetype == UserArchetype::WifiIntensive;
  }
  const auto n = static_cast<double>(users_.size());
  EXPECT_NEAR(cell / n, config_.adoption.cellular_intensive_frac, 0.04);
  EXPECT_NEAR(wifi / n, config_.adoption.wifi_intensive_frac, 0.03);
}

TEST_F(PopulationTest, CellularIntensiveUsersHaveNoPublicConfig) {
  for (const UserProfile& u : users_) {
    if (u.archetype == UserArchetype::CellularIntensive) {
      // Unless they are no-home iOS update seekers, which forces
      // public-WiFi knowledge (§3.7).
      if (!u.update_seeker) {
        EXPECT_FALSE(u.uses_public_wifi);
      }
      EXPECT_FALSE(u.has_mobile_hotspot);
    }
  }
}

TEST_F(PopulationTest, WifiIntensiveSkewHeavy) {
  double wifi_mu = 0, cell_mu = 0;
  int nw = 0, nc = 0;
  for (const UserProfile& u : users_) {
    if (u.archetype == UserArchetype::WifiIntensive) {
      wifi_mu += u.demand_mu;
      ++nw;
    } else if (u.archetype == UserArchetype::CellularIntensive) {
      cell_mu += u.demand_mu;
      ++nc;
    }
  }
  ASSERT_GT(nw, 5);
  ASSERT_GT(nc, 5);
  EXPECT_GT(wifi_mu / nw, cell_mu / nc + 0.4);
}

TEST_F(PopulationTest, OccupationDistributionFollowsSurveyWeights) {
  std::array<int, kNumOccupations> counts{};
  for (const UserProfile& u : users_) {
    ++counts[static_cast<std::size_t>(u.occupation)];
  }
  double weight_sum = 0;
  for (double w : config_.population.occupation_weights) weight_sum += w;
  // Office workers are the biggest group in 2015 (23.6%, Table 2).
  const double office_share =
      static_cast<double>(counts[static_cast<std::size_t>(Occupation::OfficeWorker)]) /
      static_cast<double>(users_.size());
  EXPECT_NEAR(office_share,
              config_.population.occupation_weights[static_cast<std::size_t>(
                  Occupation::OfficeWorker)] /
                  weight_sum,
              0.04);
}

TEST_F(PopulationTest, ExportFillsParallelTruth) {
  Dataset ds;
  export_population(users_, 0, users_.size(), region_, ds);
  ASSERT_EQ(ds.devices.size(), users_.size());
  ASSERT_EQ(ds.truth.devices.size(), users_.size());
  for (std::size_t i = 0; i < users_.size(); ++i) {
    EXPECT_EQ(ds.devices[i].os, users_[i].os);
    EXPECT_EQ(ds.truth.devices[i].has_home_ap, users_[i].has_home_ap);
    EXPECT_EQ(ds.truth.devices[i].occupation, users_[i].occupation);
  }
}

TEST_F(PopulationTest, SurveyOnlyRecruitedAnswer) {
  Dataset ds;
  export_population(users_, 0, users_.size(), region_, ds);
  ds.survey = build_survey(config_, users_, kSurveyLane);
  ASSERT_EQ(ds.survey.size(), users_.size());
}

TEST_F(PopulationTest, SurveyHomeAnswersTrackOwnership) {
  Dataset ds;
  export_population(users_, 0, users_.size(), region_, ds);
  ds.survey = build_survey(config_, users_, kSurveyLane);
  int own_yes = 0, own_total = 0, no_own_yes = 0, no_own_total = 0;
  for (const UserProfile& u : users_) {
    if (!u.recruited) continue;
    const SurveyResponse& r = ds.survey[value(u.id)];
    if (u.has_home_ap) {
      ++own_total;
      own_yes += r.connected[0] == SurveyYesNo::Yes;
    } else {
      ++no_own_total;
      no_own_yes += r.connected[0] == SurveyYesNo::Yes;
    }
  }
  EXPECT_GT(static_cast<double>(own_yes) / own_total, 0.85);
  EXPECT_LT(static_cast<double>(no_own_yes) / no_own_total, 0.20);
}

TEST_F(PopulationTest, SurveyReasonsOnlyFromNoAnswers) {
  Dataset ds;
  export_population(users_, 0, users_.size(), region_, ds);
  ds.survey = build_survey(config_, users_, kSurveyLane);
  for (const UserProfile& u : users_) {
    if (!u.recruited) continue;
    const SurveyResponse& r = ds.survey[value(u.id)];
    for (int loc = 0; loc < kNumSurveyLocations; ++loc) {
      if (r.connected[loc] != SurveyYesNo::No) {
        EXPECT_EQ(r.reasons[loc], 0) << "reasons without a No answer";
      }
    }
  }
}

TEST_F(PopulationTest, SecurityConcernOnlyAskedFrom2014) {
  // The 2013 survey had no security/LTE questions (Table 9's NA cells).
  ScenarioConfig cfg13 = scenario_config(Year::Y2013, 0.5);
  geo::TokyoRegion region;
  stats::PhiloxRng r(1, 0, 0);
  net::Deployment dep(cfg13, region, r);
  const auto users = build_population(cfg13, region, dep, kPopulationLane, r);
  Dataset ds;
  export_population(users, 0, users.size(), region, ds);
  ds.survey = build_survey(cfg13, users, kSurveyLane);
  for (const UserProfile& u : users) {
    if (!u.recruited) continue;
    const SurveyResponse& resp = ds.survey[value(u.id)];
    for (int loc = 0; loc < kNumSurveyLocations; ++loc) {
      EXPECT_FALSE(resp.gave_reason(static_cast<SurveyLocation>(loc),
                                    SurveyReason::SecurityIssue));
      EXPECT_FALSE(resp.gave_reason(static_cast<SurveyLocation>(loc),
                                    SurveyReason::LteIsEnough));
    }
  }
}

}  // namespace
}  // namespace tokyonet::sim
