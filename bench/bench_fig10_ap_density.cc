// Fig 10: number of associated unique APs per 5 km cell — home and
// public, 2013 vs 2015 — plus the coverage-growth statistics.
#include "analysis/quality.h"
#include "common.h"
#include "geo/region.h"

namespace {

using namespace tokyonet;

void BM_DensityMap(benchmark::State& state) {
  const auto& src = bench::context(Year::Y2015).source();
  const auto& cls = bench::classification(Year::Y2015);
  const geo::TokyoRegion region;
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::ap_density_map(
        src, cls, ApClass::Public, region.grid().num_cells()));
  }
}
BENCHMARK(BM_DensityMap)->Unit(benchmark::kMillisecond);

}  // namespace

TOKYONET_BENCH_FIGURE("fig10")
