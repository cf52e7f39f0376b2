// Streaming ingest throughput (DESIGN.md §5e): loopback replay of each
// campaign through the sharded IngestServer, verifying on the way that
// the kernels' result over the committed columns stays byte-identical
// to their result over the campaign.
//
// Reproduction lines are greppable (`tokyonet-ingest: key=value ...`)
// so tools/run_bench.sh can lift replay throughput into the bench JSON.
#include "analysis/incremental.h"
#include "common.h"
#include "ingest/replay.h"
#include "ingest/server.h"

#include <chrono>
#include <cinttypes>

namespace {

using namespace tokyonet;

struct LoopbackRun {
  ingest::ReplayStats stats;
  ingest::IngestCounters counters;
  analysis::StreamResult result;
  double wall_seconds = 0.0;  // replay + drain, i.e. until committed
  bool clean = false;
};

/// Replays `ds` through an in-process server and waits (shutdown) until
/// every routed batch is committed, so records/sec measures the full
/// pipeline: encode -> parse -> check -> route -> shard commit.
LoopbackRun run_loopback(const Dataset& ds, int shards, bool shed,
                         std::size_t queue_capacity) {
  ingest::IngestConfig cfg;
  cfg.shards = shards;
  cfg.queue_capacity = queue_capacity;
  cfg.shed_on_overflow = shed;
  ingest::IngestServer server(cfg);

  LoopbackRun run;
  const auto t0 = std::chrono::steady_clock::now();
  {
    auto session = server.connect();
    ingest::SessionSink sink(*session);
    const bool sent =
        ingest::replay_dataset(ds, ingest::ReplayOptions{}, sink, &run.stats);
    run.clean = session->finish() && sent;
  }
  server.shutdown();  // drain: all accepted batches are committed now
  run.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  run.counters = server.counters();
  run.result = server.result();
  return run;
}

void print_run(Year year, const char* mode, int shards,
               const LoopbackRun& run, bool verified_vs_batch) {
  const double rps = run.wall_seconds > 0.0
                         ? static_cast<double>(run.stats.records) /
                               run.wall_seconds
                         : 0.0;
  std::printf(
      "tokyonet-ingest: year=%d mode=%s shards=%d records=%" PRIu64
      " app_records=%" PRIu64 " frames=%" PRIu64 " bytes=%" PRIu64
      " committed=%" PRIu64 " shed=%" PRIu64
      " seconds=%.3f records_per_sec=%.0f clean=%d verified=%d\n",
      year_number(year), mode, shards, run.stats.records,
      run.stats.app_records, run.stats.frames, run.stats.bytes,
      run.counters.records_committed, run.counters.records_shed,
      run.wall_seconds, rps, run.clean ? 1 : 0, verified_vs_batch ? 1 : 0);
}

void print_reproduction() {
  bench::print_header("bench_ingest",
                      "streaming ingest replay (DESIGN.md §5e)");
  for (const Year year : {Year::Y2013, Year::Y2014, Year::Y2015}) {
    const Dataset& ds = bench::campaign(year);  // materialize pre-server
    const analysis::StreamResult batch = analysis::batch_stream_result(ds);
    for (const int shards : {1, 4}) {
      const LoopbackRun run = run_loopback(ds, shards, /*shed=*/false,
                                           /*queue_capacity=*/64);
      const std::string diff =
          analysis::compare_stream_results(run.result, batch);
      if (!run.clean || !diff.empty()) {
        std::printf("bench_ingest: FAILED (year=%d shards=%d): %s\n",
                    year_number(year), shards,
                    diff.empty() ? "replay not clean" : diff.c_str());
      }
      print_run(year, "block", shards, run, run.clean && diff.empty());
    }
  }
  // Shed mode: a deliberately tiny queue so the drop-with-counter path
  // is exercised under load. Lossy by design -> no equivalence check.
  const LoopbackRun shed =
      run_loopback(bench::campaign(Year::Y2015), 4, /*shed=*/true,
                   /*queue_capacity=*/4);
  print_run(Year::Y2015, "shed", 4, shed, false);
}

void BM_LoopbackReplay(benchmark::State& state) {
  const Dataset& ds = bench::campaign(Year::Y2015);
  const int shards = static_cast<int>(state.range(0));
  std::uint64_t records = 0;
  for (auto _ : state) {
    const LoopbackRun run =
        run_loopback(ds, shards, /*shed=*/false, /*queue_capacity=*/64);
    records += run.stats.records;
    benchmark::DoNotOptimize(run.counters.records_committed);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(records));
}
BENCHMARK(BM_LoopbackReplay)
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Pure producer side: frame encode + CRC without a server, to separate
// wire-format cost from routing/commit cost.
class NullSink final : public ingest::FrameSink {
 public:
  [[nodiscard]] bool write(std::span<const std::uint8_t> bytes) override {
    bytes_ += bytes.size();
    return true;
  }
  [[nodiscard]] std::uint64_t bytes() const noexcept { return bytes_; }

 private:
  std::uint64_t bytes_ = 0;
};

void BM_EncodeFrames(benchmark::State& state) {
  const Dataset& ds = bench::campaign(Year::Y2015);
  std::uint64_t records = 0;
  for (auto _ : state) {
    NullSink sink;
    ingest::ReplayStats stats;
    const bool ok =
        ingest::replay_dataset(ds, ingest::ReplayOptions{}, sink, &stats);
    benchmark::DoNotOptimize(ok);
    benchmark::DoNotOptimize(sink.bytes());
    records += stats.records;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(records));
}
BENCHMARK(BM_EncodeFrames)->Unit(benchmark::kMillisecond);

}  // namespace

TOKYONET_BENCH_MAIN()
