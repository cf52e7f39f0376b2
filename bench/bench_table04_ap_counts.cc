// Table 4: number of estimated (associated) APs by inferred class.
#include "common.h"

namespace {

using namespace tokyonet;

void BM_ClassifyAps(benchmark::State& state) {
  const auto& src = bench::context(Year::Y2015).source();
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::classify_aps(src));
  }
}
BENCHMARK(BM_ClassifyAps)->Unit(benchmark::kMillisecond)->Iterations(3);

}  // namespace

TOKYONET_BENCH_FIGURE("table04")
