// Ablation: the home-AP inference threshold (§3.4.1 uses 70% presence in
// the 22:00-06:00 window). Sweeps the threshold and reports inference
// precision/recall against simulator ground truth.
#include "common.h"

namespace {

using namespace tokyonet;

void BM_ClassifyAtThreshold(benchmark::State& state) {
  const auto& src = bench::context(Year::Y2015).source();
  analysis::ClassifyOptions opt;
  opt.home_presence_threshold = static_cast<double>(state.range(0)) / 100.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::classify_aps(src, opt));
  }
}
BENCHMARK(BM_ClassifyAtThreshold)
    ->Arg(50)
    ->Arg(70)
    ->Arg(90)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(2);

}  // namespace

TOKYONET_BENCH_FIGURE("ablate_home_threshold")
