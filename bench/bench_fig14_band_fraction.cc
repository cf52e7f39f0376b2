// Fig 14: fraction of associated unique 5 GHz APs at home / office /
// public, per year.
#include "analysis/wifiusage.h"
#include "common.h"

namespace {

using namespace tokyonet;

void BM_BandFractions(benchmark::State& state) {
  const auto& src = bench::context(Year::Y2015).source();
  const auto& cls = bench::classification(Year::Y2015);
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::band_fractions(src, cls));
  }
}
BENCHMARK(BM_BandFractions)->Unit(benchmark::kMicrosecond);

}  // namespace

TOKYONET_BENCH_FIGURE("fig14")
