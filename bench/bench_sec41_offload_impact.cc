// §4.1: implications — the impact of smartphone WiFi offloading on
// residential broadband traffic.
#include "analysis/offload.h"
#include "common.h"

namespace {

using namespace tokyonet;

void BM_OffloadImpact(benchmark::State& state) {
  const auto& src = bench::context(Year::Y2015).source();
  const auto& days = bench::days(Year::Y2015);
  const auto& cls = bench::classification(Year::Y2015);
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::offload_impact(src, days, cls));
  }
}
BENCHMARK(BM_OffloadImpact)->Unit(benchmark::kMillisecond);

}  // namespace

TOKYONET_BENCH_FIGURE("sec41_offload")
