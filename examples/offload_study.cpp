// Offload study: the question the paper opens with — how do smartphone
// users split traffic between cellular and WiFi, and how much more could
// be offloaded? Runs all three campaign years and prints a longitudinal
// offloading report, the way a cellular provider planning public-WiFi
// deployment would consume this library.
//
//   $ ./build/examples/offload_study [scale]
#include <cstdio>
#include <cstdlib>

#include "analysis/aggregate.h"
#include "analysis/availability.h"
#include "analysis/classify.h"
#include "analysis/offload.h"
#include "analysis/query/source.h"
#include "analysis/ratios.h"
#include "analysis/usertype.h"
#include "analysis/volumes.h"
#include "io/table.h"
#include "sim/simulator.h"

using namespace tokyonet;

int main(int argc, char** argv) {
  const double scale = argc > 1 ? std::atof(argv[1]) : 0.25;
  std::printf("tokyonet offload study — three campaigns at scale %.2f\n\n",
              scale);

  io::TextTable report({"metric", "2013", "2014", "2015"});
  std::vector<std::vector<std::string>> rows(9);
  rows[0] = {"WiFi share of total volume"};
  rows[1] = {"WiFi-traffic ratio (mean)"};
  rows[2] = {"WiFi-user ratio (mean)"};
  rows[3] = {"cellular-intensive users"};
  rows[4] = {"mixed user-days above diagonal"};
  rows[5] = {"home share of WiFi volume"};
  rows[6] = {"est. share of RBB volume"};
  rows[7] = {"WiFi-available users w/ public option"};
  rows[8] = {"offloadable cellular share"};

  for (Year year : kAllYears) {
    const Dataset ds = sim::simulate_year(year, scale);
    const analysis::query::InMemorySource src(ds);
    const auto days = analysis::user_days(ds);
    const analysis::ApClassification cls = analysis::classify_aps(ds);
    const analysis::UserClassifier classes(days);

    const double wifi =
        analysis::aggregate_series(src, analysis::Stream::WifiRx).total_mb();
    const double cell =
        analysis::aggregate_series(src, analysis::Stream::CellRx).total_mb();
    rows[0].push_back(io::TextTable::pct(wifi / (wifi + cell), 0));

    const auto ratios = analysis::compute_wifi_ratios(ds, days, classes);
    rows[1].push_back(io::TextTable::pct(ratios.traffic_all.mean_ratio(), 0));
    rows[2].push_back(io::TextTable::pct(ratios.users_all.mean_ratio(), 0));

    const auto types = analysis::user_type_stats(ds.devices.size(), days);
    rows[3].push_back(io::TextTable::pct(types.cellular_intensive_frac, 0));
    rows[4].push_back(io::TextTable::pct(types.mixed_above_diagonal_frac, 0));

    const auto shares = analysis::wifi_location_shares(src, cls);
    rows[5].push_back(io::TextTable::pct(shares.home, 0));

    const auto impact = analysis::offload_impact(src, days, cls);
    rows[6].push_back(io::TextTable::pct(impact.est_rbb_share, 0));

    const auto opportunity = analysis::offload_opportunity(src);
    rows[7].push_back(
        io::TextTable::pct(opportunity.users_with_stable_opportunity, 0));
    rows[8].push_back(
        io::TextTable::pct(opportunity.offloadable_cell_share, 0));
  }
  for (auto& row : rows) report.add_row(std::move(row));
  report.print();

  std::printf(
      "\nreading the report:\n"
      " - WiFi adoption grows on every axis, 2013 -> 2015 (paper §1).\n"
      " - Yet a quarter of users still never touch WiFi, and WiFi-available\n"
      "   users could offload another 15-20%% of their cellular volume to\n"
      "   already-deployed public hotspots (§3.5) — the provider's\n"
      "   actionable headroom.\n");
  return 0;
}
