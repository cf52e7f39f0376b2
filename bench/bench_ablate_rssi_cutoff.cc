// Ablation: the -70 dBm "strong signal" cutoff used by §3.5 to decide
// which detected public networks are usable. Sweeps the cutoff's effect
// on the offloadable-traffic estimate via the stable-bin-share knob.
#include "analysis/availability.h"
#include "common.h"

namespace {

using namespace tokyonet;

void BM_Opportunity(benchmark::State& state) {
  const auto& src = bench::context(Year::Y2015).source();
  analysis::OpportunityOptions opt;
  opt.stable_bin_share = static_cast<double>(state.range(0)) / 100.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::offload_opportunity(src, opt));
  }
}
BENCHMARK(BM_Opportunity)->Arg(5)->Arg(30)->Unit(benchmark::kMillisecond);

}  // namespace

TOKYONET_BENCH_FIGURE("ablate_rssi_cutoff")
