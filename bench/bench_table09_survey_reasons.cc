// Table 9: survey — reasons for WiFi unavailability per location per
// year (multiple answers allowed).
#include "analysis/surveytab.h"
#include "common.h"

namespace {

using namespace tokyonet;

void BM_SurveyReasons(benchmark::State& state) {
  const auto& src = bench::context(Year::Y2015).source();
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::survey_reasons(src));
  }
}
BENCHMARK(BM_SurveyReasons)->Unit(benchmark::kMicrosecond);

}  // namespace

TOKYONET_BENCH_FIGURE("table09")
