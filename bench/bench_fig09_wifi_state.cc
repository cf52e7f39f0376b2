// Fig 9: ratio of Android users by WiFi interface state (user / off /
// available) in 2013 and 2015, plus the iOS WiFi-user curves.
#include "analysis/wifistate.h"
#include "common.h"

namespace {

using namespace tokyonet;

void BM_WifiStates(benchmark::State& state) {
  const auto& src = bench::context(Year::Y2015).source();
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::compute_wifi_states(src));
  }
}
BENCHMARK(BM_WifiStates)->Unit(benchmark::kMillisecond);

}  // namespace

TOKYONET_BENCH_FIGURE("fig09")
