// §4.3: multi-provider public APs — physical boxes announcing several
// providers' ESSIDs on adjacent BSSIDs, detected the way the paper did.
#include "analysis/sharedap.h"
#include "common.h"

namespace {

using namespace tokyonet;

void BM_DetectSharedAps(benchmark::State& state) {
  const auto& src = bench::context(Year::Y2015).source();
  const auto& cls = bench::classification(Year::Y2015);
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::detect_shared_aps(src, cls));
  }
}
BENCHMARK(BM_DetectSharedAps)->Unit(benchmark::kMillisecond);

}  // namespace

TOKYONET_BENCH_FIGURE("sec43_shared_aps")
