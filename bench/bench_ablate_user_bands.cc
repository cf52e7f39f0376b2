// Ablation: the paper's user-class definitions (§2: light = 40-60th
// percentile of daily download, heavy = top 5%). Sweeps both bands and
// reports how the Fig 7 WiFi-traffic-ratio separation responds.
#include "analysis/ratios.h"
#include "common.h"

namespace {

using namespace tokyonet;

void BM_RatiosUnderBands(benchmark::State& state) {
  const auto& src = bench::context(Year::Y2015).source();
  const auto& days = bench::days(Year::Y2015);
  const analysis::UserClassifier classes(
      days, 40, 60, static_cast<double>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::compute_wifi_ratios(src, days, classes));
  }
}
BENCHMARK(BM_RatiosUnderBands)->Arg(90)->Arg(95)->Unit(benchmark::kMillisecond);

}  // namespace

TOKYONET_BENCH_FIGURE("ablate_user_bands")
