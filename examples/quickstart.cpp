// Quickstart: simulate a small measurement campaign and run the core of
// the paper's analysis pipeline on it.
//
//   $ ./build/examples/quickstart [scale]
//
// The flow below is the canonical tokyonet usage pattern:
//   1. pick a calibrated per-year scenario (or build your own),
//   2. run the Simulator to get a Dataset (the 10-minute record stream),
//   3. feed the dataset to the analysis functions, which only ever look
//      at observable record fields — exactly like the paper's authors.
#include <cstdio>
#include <cstdlib>

#include "analysis/classify.h"
#include "analysis/query/source.h"
#include "analysis/ratios.h"
#include "analysis/volumes.h"
#include "io/table.h"
#include "sim/simulator.h"

using namespace tokyonet;

int main(int argc, char** argv) {
  const double scale = argc > 1 ? std::atof(argv[1]) : 0.25;
  std::printf("tokyonet quickstart — simulating the 2015 campaign at "
              "scale %.2f\n\n", scale);

  // 1. Configure and run a campaign. scenario_config() returns the
  //    calibrated preset; every knob can be overridden before running.
  ScenarioConfig config = scenario_config(Year::Y2015, scale);
  const Dataset dataset = sim::Simulator(config).run();
  std::printf("simulated %zu devices, %zu samples, %zu APs over %d days\n",
              dataset.devices.size(), dataset.samples.size(),
              dataset.aps.size(), dataset.num_days());

  // 2. Roll up per-user daily volumes (Table 3 numbers).
  const auto days = analysis::user_days(dataset);
  const analysis::DailyVolumeStats stats = analysis::daily_volume_stats(days);
  io::TextTable volumes({"metric", "median [MB/day]", "mean [MB/day]"});
  volumes.add_row({"total download", io::TextTable::num(stats.median_all),
                   io::TextTable::num(stats.mean_all)});
  volumes.add_row({"cellular download", io::TextTable::num(stats.median_cell),
                   io::TextTable::num(stats.mean_cell)});
  volumes.add_row({"WiFi download", io::TextTable::num(stats.median_wifi),
                   io::TextTable::num(stats.mean_wifi)});
  volumes.print();

  // 3. Classify access points the way §3.4.1 does — from the records
  //    alone — and summarize where WiFi happens.
  const analysis::query::InMemorySource src(dataset);
  const analysis::ApClassification cls = analysis::classify_aps(src);
  const auto counts = cls.counts();
  std::printf("\nassociated APs: %d home, %d public, %d other (%d office)\n",
              counts.home, counts.publik, counts.other, counts.office);
  std::printf("users with an inferred home AP: %.0f%%\n",
              100 * cls.home_ap_device_share());

  // 4. The headline offloading metrics of Fig 6.
  const analysis::UserClassifier classes(days);
  const analysis::WifiRatios ratios =
      analysis::compute_wifi_ratios(src, days, classes);
  std::printf("\nmean WiFi-traffic ratio: %.2f   (paper 2015: 0.71)\n",
              ratios.traffic_all.mean_ratio());
  std::printf("mean WiFi-user ratio:    %.2f   (paper 2015: 0.48)\n",
              ratios.users_all.mean_ratio());
  std::printf("heavy hitters offload %.0f%% of their traffic to WiFi; "
              "light users %.0f%%\n",
              100 * ratios.traffic_heavy.mean_ratio(),
              100 * ratios.traffic_light.mean_ratio());
  return 0;
}
