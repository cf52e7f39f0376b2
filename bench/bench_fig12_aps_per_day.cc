// Fig 12: distribution of the number of APs a device associates with in
// one day — all users, heavy hitters, light users, per year.
#include "analysis/wifiusage.h"
#include "common.h"

namespace {

using namespace tokyonet;

void BM_ApsPerDay(benchmark::State& state) {
  const auto& src = bench::context(Year::Y2015).source();
  const auto& days = bench::days(Year::Y2015);
  const analysis::UserClassifier& classes = bench::classifier(Year::Y2015);
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::aps_per_day(src, days, classes));
  }
}
BENCHMARK(BM_ApsPerDay)->Unit(benchmark::kMillisecond);

}  // namespace

TOKYONET_BENCH_FIGURE("fig12")
