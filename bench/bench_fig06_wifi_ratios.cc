// Fig 6: WiFi-traffic ratio and WiFi-user ratio over the week, 2013 vs
// 2015.
#include "analysis/ratios.h"
#include "common.h"

namespace {

using namespace tokyonet;

void BM_ComputeRatios(benchmark::State& state) {
  const auto& src = bench::context(Year::Y2015).source();
  const auto& days = bench::days(Year::Y2015);
  const analysis::UserClassifier& classes = bench::classifier(Year::Y2015);
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::compute_wifi_ratios(src, days, classes));
  }
}
BENCHMARK(BM_ComputeRatios)->Unit(benchmark::kMillisecond);

}  // namespace

TOKYONET_BENCH_FIGURE("fig06")
