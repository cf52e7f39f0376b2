// Table 1: overview of the three campaign datasets — device counts per
// OS and the share of cellular traffic on LTE.
#include "analysis/volumes.h"
#include "common.h"

namespace {

using namespace tokyonet;

void BM_Overview2015(benchmark::State& state) {
  const auto& src = bench::context(Year::Y2015).source();
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::overview(src));
  }
}
BENCHMARK(BM_Overview2015)->Unit(benchmark::kMillisecond);

void BM_SimulateCampaign(benchmark::State& state) {
  // Times a full campaign simulation at a small, fixed scale so the
  // benchmark itself stays fast.
  std::size_t n_samples = 0;
  for (auto _ : state) {
    const Dataset ds = sim::simulate_year(Year::Y2015, 0.05);
    n_samples = ds.samples.size();
    benchmark::DoNotOptimize(n_samples);
  }
  // Generation throughput (samples/s) — run_bench.sh lifts the
  // items_per_second this produces into the BENCH json.
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(n_samples));
}
BENCHMARK(BM_SimulateCampaign)->Unit(benchmark::kMillisecond);

}  // namespace

TOKYONET_BENCH_FIGURE("table01")
