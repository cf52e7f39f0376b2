// Update flash crowd: the §3.7 case study as a runnable scenario. iOS
// only installs OS updates over WiFi, so a major release is a natural
// experiment in application-forced offloading — and a security story:
// users without home WiFi patch late.
//
//   $ ./build/examples/update_flashcrowd [scale]
//
// Besides reproducing the 2015 event, this example runs a *counterfactual*
// the paper could not: what if public-WiFi seekers did not exist (no
// user without home WiFi goes out of their way to fetch the update)?
#include <cstdio>
#include <cstdlib>

#include "analysis/classify.h"
#include "analysis/query/source.h"
#include "analysis/update.h"
#include "io/table.h"
#include "sim/simulator.h"
#include "stats/distribution.h"

using namespace tokyonet;

namespace {

analysis::UpdateTiming run_scenario(const ScenarioConfig& config) {
  const Dataset ds = sim::Simulator(config).run();
  analysis::UpdateDetectOptions detect;
  detect.min_day = config.update.release_day - 1;
  const auto detection = analysis::detect_updates(ds, detect);
  return analysis::analyze_update_timing(ds.devices, detection,
                                         analysis::classify_aps(
                                             analysis::query::InMemorySource(ds)));
}

void print_timing(const analysis::UpdateTiming& t) {
  const stats::Ecdf all(t.delay_days_all);
  io::TextTable table({"days since release", "share of updaters"});
  for (double day : {0.0, 1.0, 2.0, 4.0, 7.0, 10.0, 14.0}) {
    table.add_row({io::TextTable::num(day, 0),
                   io::TextTable::pct(all.at(day), 0)});
  }
  table.print();
  std::printf("updated overall: %s of iOS devices; on day one: %s\n",
              io::TextTable::pct(t.updated_share_all, 0).c_str(),
              io::TextTable::pct(t.first_day_share, 0).c_str());
  std::printf("no-home-AP users updated: %s; median delay home %.1f d vs "
              "no-home %.1f d\n",
              io::TextTable::pct(t.updated_share_no_home, 0).c_str(),
              t.median_delay_home, t.median_delay_no_home);
}

}  // namespace

int main(int argc, char** argv) {
  const double scale = argc > 1 ? std::atof(argv[1]) : 0.5;

  std::printf("=== iOS 8.2 flash crowd, as measured (2015, scale %.2f) ===\n",
              scale);
  ScenarioConfig baseline = scenario_config(Year::Y2015, scale);
  print_timing(run_scenario(baseline));

  std::printf("\n=== counterfactual: nobody seeks public WiFi for the "
              "update ===\n");
  ScenarioConfig no_seekers = baseline;
  no_seekers.update.public_seeker_frac = 0.0;
  print_timing(run_scenario(no_seekers));

  std::printf("\n=== counterfactual: a doubled flash (all home users eager) "
              "===\n");
  ScenarioConfig eager = baseline;
  eager.update.home_hazard *= 2.0;
  print_timing(run_scenario(eager));

  std::printf(
      "\nsecurity takeaway (§3.7): without home WiFi, devices stay\n"
      "unpatched for days longer — and removing the public-WiFi escape\n"
      "hatch (counterfactual 1) leaves those users unpatched entirely.\n");
  return 0;
}
