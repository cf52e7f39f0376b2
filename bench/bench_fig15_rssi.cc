// Fig 15: PDFs of the maximum RSSI of associated 2.4 GHz home and public
// networks (2015).
#include "analysis/quality.h"
#include "common.h"

namespace {

using namespace tokyonet;

void BM_RssiAnalysis(benchmark::State& state) {
  const auto& src = bench::context(Year::Y2015).source();
  const auto& cls = bench::classification(Year::Y2015);
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::rssi_analysis(src, cls));
  }
}
BENCHMARK(BM_RssiAnalysis)->Unit(benchmark::kMillisecond);

}  // namespace

TOKYONET_BENCH_FIGURE("fig15")
