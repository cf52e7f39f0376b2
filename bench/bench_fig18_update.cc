// Fig 18: timing of iOS 8.2 software updates (2015 campaign) — CDF/PDF
// since the first observed update, split by inferred home-AP presence.
#include "analysis/update.h"
#include "common.h"

namespace {

using namespace tokyonet;

void BM_DetectUpdates(benchmark::State& state) {
  const Dataset& ds = bench::campaign(Year::Y2015);
  analysis::UpdateDetectOptions opt;
  opt.min_day = 9;
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::detect_updates(ds, opt));
  }
}
BENCHMARK(BM_DetectUpdates)->Unit(benchmark::kMillisecond);

void BM_UpdateTiming(benchmark::State& state) {
  const auto& devices = bench::campaign(Year::Y2015).devices;
  const auto& det = bench::updates(Year::Y2015);
  const auto& cls = bench::classification(Year::Y2015);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        analysis::analyze_update_timing(devices, det, cls));
  }
}
BENCHMARK(BM_UpdateTiming)->Unit(benchmark::kMicrosecond);

}  // namespace

TOKYONET_BENCH_FIGURE("fig18")
