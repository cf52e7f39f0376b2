// Fig 8: WiFi-user ratio for heavy hitters vs light users, 2013 and 2015.
#include "analysis/ratios.h"
#include "common.h"

namespace {

using namespace tokyonet;

void BM_RatiosWithClasses(benchmark::State& state) {
  const auto& src = bench::context(Year::Y2013).source();
  const auto& days = bench::days(Year::Y2013);
  const analysis::UserClassifier& classes = bench::classifier(Year::Y2013);
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::compute_wifi_ratios(src, days, classes));
  }
}
BENCHMARK(BM_RatiosWithClasses)->Unit(benchmark::kMillisecond);

}  // namespace

TOKYONET_BENCH_FIGURE("fig08")
