// Fig 5: per-user-day cellular-vs-WiFi download heat map (log-log) and
// the user-type split (cellular-intensive / WiFi-intensive / mixed).
#include "analysis/usertype.h"
#include "common.h"

namespace {

using namespace tokyonet;

void BM_UserTypeStats(benchmark::State& state) {
  const std::size_t n_devices = bench::campaign(Year::Y2015).devices.size();
  const auto& days = bench::days(Year::Y2015);
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::user_type_stats(n_devices, days));
  }
}
BENCHMARK(BM_UserTypeStats)->Unit(benchmark::kMillisecond);

void BM_Heatmap(benchmark::State& state) {
  const auto& days = bench::days(Year::Y2015);
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::user_day_heatmap(days));
  }
}
BENCHMARK(BM_Heatmap)->Unit(benchmark::kMillisecond);

}  // namespace

TOKYONET_BENCH_FIGURE("fig05")
