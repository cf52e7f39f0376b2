// Fig 17: CCDFs of the number of detected public WiFi networks per
// WiFi-available device per 10 minutes (2.4/5 GHz x all/strong). §3.5's
// offloadable-traffic estimate is its own registry figure
// (sec35_opportunity; see bench_all for the full catalog).
#include "analysis/availability.h"
#include "common.h"

namespace {

using namespace tokyonet;

void BM_ScanAvailability(benchmark::State& state) {
  const auto& src = bench::context(Year::Y2015).source();
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::scan_availability(src));
  }
}
BENCHMARK(BM_ScanAvailability)->Unit(benchmark::kMillisecond);

void BM_OffloadOpportunity(benchmark::State& state) {
  const auto& src = bench::context(Year::Y2015).source();
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::offload_opportunity(src));
  }
}
BENCHMARK(BM_OffloadOpportunity)->Unit(benchmark::kMillisecond);

}  // namespace

TOKYONET_BENCH_FIGURE("fig17")
