// Fig 19: effect of the soft bandwidth cap — CDFs of daily cellular
// download relative to the user's previous-3-day mean, potentially
// capped users vs others, 2014 and 2015.
#include "analysis/cap.h"
#include "common.h"

namespace {

using namespace tokyonet;

void BM_CapAnalysis(benchmark::State& state) {
  const std::size_t n_devices = bench::campaign(Year::Y2015).devices.size();
  const auto& days = bench::days(Year::Y2015);
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::analyze_cap(n_devices, days));
  }
}
BENCHMARK(BM_CapAnalysis)->Unit(benchmark::kMillisecond);

}  // namespace

TOKYONET_BENCH_FIGURE("fig19")
