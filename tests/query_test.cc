// The columnar query layer (analysis/query/): the shared chunk/block
// geometry, the DataSource fold/reduce primitives, and the two
// execution backends' byte-identity contract — in-memory chunked
// parallel at any thread count, out-of-core over a sharded store at
// any residency budget.
#include "analysis/query/scan.h"
#include "analysis/query/source.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "analysis/aggregate.h"
#include "analysis/classify.h"
#include "analysis/common.h"
#include "analysis/context.h"
#include "analysis/quality.h"
#include "analysis/ratios.h"
#include "analysis/volumes.h"
#include "analysis/wifistate.h"
#include "core/parallel.h"
#include "core/records.h"
#include "core/scenario.h"
#include "geo/region.h"
#include "io/shard_store.h"
#include "report/registry.h"
#include "report/runner.h"
#include "report/table.h"
#include "sim/simulator.h"
#include "sim/stream_runner.h"
#include "testutil.h"

namespace tokyonet {
namespace {

namespace fs = std::filesystem;
namespace query = analysis::query;

constexpr double kQueryTestScale = 0.02;

/// Forwards to another source and counts its fold_blocks passes.
class CountingSource final : public query::DataSource {
 public:
  explicit CountingSource(const query::DataSource& inner) : inner_(&inner) {}

  [[nodiscard]] Year year() const noexcept override { return inner_->year(); }
  [[nodiscard]] const CampaignCalendar& calendar() const noexcept override {
    return inner_->calendar();
  }
  [[nodiscard]] std::size_t n_devices() const noexcept override {
    return inner_->n_devices();
  }
  [[nodiscard]] std::size_t n_samples() const noexcept override {
    return inner_->n_samples();
  }
  [[nodiscard]] const std::vector<ApInfo>& aps() const noexcept override {
    return inner_->aps();
  }
  [[nodiscard]] const Dataset* dataset_or_null() const noexcept override {
    return inner_->dataset_or_null();
  }
  void fold_blocks(const ScanFn& scan, const FoldFn& fold) const override {
    ++passes_;
    inner_->fold_blocks(scan, fold);
  }

  [[nodiscard]] int passes() const noexcept { return passes_; }

 private:
  const query::DataSource* inner_;
  mutable int passes_ = 0;
};

/// The context's pass budget over `inner`: every intermediate —
/// devices(), updates(), days(), classification(), home_cells() and
/// survey() — shares one pass, the classifier costs none,
/// app_breakdown() and wifi_ratios() one more each, and nothing is
/// computed twice.
void expect_context_pass_budget(const query::DataSource& inner) {
  const CountingSource src(inner);
  const analysis::AnalysisContext ctx(src);
  EXPECT_EQ(src.passes(), 0);
  (void)ctx.survey();
  EXPECT_EQ(src.passes(), 1);
  EXPECT_EQ(ctx.devices().size(), inner.n_devices());
  EXPECT_EQ(ctx.survey().size(), inner.n_devices());
  (void)ctx.updates();
  (void)ctx.days();
  (void)ctx.classifier();  // built from days(), no pass of its own
  (void)ctx.classification();
  (void)ctx.home_cells();
  EXPECT_EQ(src.passes(), 1);
  (void)ctx.app_breakdown();
  EXPECT_EQ(src.passes(), 2);
  (void)ctx.wifi_ratios();
  EXPECT_EQ(src.passes(), 3);
  (void)ctx.wifi_location_hours();
  EXPECT_EQ(src.passes(), 4);

  (void)ctx.updates();
  (void)ctx.days();
  (void)ctx.devices();
  (void)ctx.classifier();
  (void)ctx.classification();
  (void)ctx.home_cells();
  (void)ctx.survey();
  (void)ctx.app_breakdown();
  (void)ctx.wifi_ratios();
  (void)ctx.wifi_location_hours();
  EXPECT_EQ(src.passes(), 4);

  // The sweep's intermediates equal the kernels' own passes.
  const analysis::ApClassification cls = analysis::classify_aps(inner);
  EXPECT_EQ(ctx.classification().ap_class, cls.ap_class);
  EXPECT_EQ(ctx.classification().home_ap_of_device, cls.home_ap_of_device);
  EXPECT_EQ(ctx.home_cells(),
            inner.concat<GeoCell>([](const Dataset& block, std::size_t) {
              return analysis::infer_home_cells(block);
            }));
  EXPECT_TRUE(ctx.wifi_ratios() ==
              analysis::compute_wifi_ratios(inner, ctx.days(),
                                            ctx.classifier()));
  const analysis::WifiLocationHours hours =
      analysis::wifi_location_hours(inner, cls);
  EXPECT_EQ(ctx.wifi_location_hours().rx_sums, hours.rx_sums);
  EXPECT_EQ(ctx.wifi_location_hours().tx_sums, hours.tx_sums);
}

/// Restores the environment-derived thread count on scope exit.
struct ThreadCountGuard {
  ~ThreadCountGuard() { core::set_thread_count(0); }
};

// --- Chunk / device-block geometry -------------------------------------

TEST(QueryScan, ChunkGeometryCoversRangeExactlyOnce) {
  EXPECT_EQ(query::num_chunks(0), 0u);
  EXPECT_EQ(query::num_chunks(1), 1u);
  EXPECT_EQ(query::num_chunks(query::kScanChunk), 1u);
  EXPECT_EQ(query::num_chunks(query::kScanChunk + 1), 2u);

  // A range straddling two chunk boundaries: three partials, the last
  // one short, covering [0, n) exactly once in order.
  const std::size_t n = 2 * query::kScanChunk + 7;
  const auto ranges = query::map_chunks(
      n, [](std::size_t b, std::size_t e) { return std::pair(b, e); });
  ASSERT_EQ(ranges.size(), 3u);
  std::size_t expected_begin = 0;
  for (const auto& [b, e] : ranges) {
    EXPECT_EQ(b, expected_begin);
    EXPECT_GT(e, b);
    expected_begin = e;
  }
  EXPECT_EQ(expected_begin, n);
  EXPECT_EQ(ranges.back().second - ranges.back().first, 7u);
}

TEST(QueryScan, DeviceBlockGeometryCoversRangeExactlyOnce) {
  EXPECT_EQ(query::num_device_blocks(0), 0u);
  EXPECT_EQ(query::num_device_blocks(query::kDeviceBlock), 1u);

  const std::size_t n = 2 * query::kDeviceBlock + 5;
  const auto ranges = query::map_device_blocks(
      n, [](std::size_t b, std::size_t e) { return std::pair(b, e); });
  ASSERT_EQ(ranges.size(), 3u);
  std::size_t expected_begin = 0;
  for (const auto& [b, e] : ranges) {
    EXPECT_EQ(b, expected_begin);
    expected_begin = e;
  }
  EXPECT_EQ(expected_begin, n);
  EXPECT_EQ(ranges.back().second - ranges.back().first, 5u);
}

// The partition depends only on the input size, so the partial vector —
// not just its reduction — is identical at any thread count.
TEST(QueryScan, PartialsAreThreadCountInvariant) {
  ThreadCountGuard guard;
  const std::size_t n = 3 * query::kScanChunk + 1234;
  const auto sum_range = [](std::size_t b, std::size_t e) {
    std::uint64_t sum = 0;
    for (std::size_t i = b; i < e; ++i) sum += i;
    return sum;
  };
  core::set_thread_count(1);
  const auto serial = query::map_chunks(n, sum_range);
  core::set_thread_count(4);
  const auto parallel = query::map_chunks(n, sum_range);
  EXPECT_EQ(serial, parallel);
}

// --- In-memory backend --------------------------------------------------

// An empty campaign is one empty block at base 0: kernels see zero
// devices/samples and produce their zero shapes without special cases.
TEST(QuerySource, EmptyDatasetYieldsZeroShapes) {
  const Dataset ds;  // no devices, no samples, zero-day calendar
  const query::InMemorySource src(ds);
  EXPECT_EQ(src.dataset_or_null(), &ds);
  EXPECT_EQ(src.n_devices(), 0u);
  EXPECT_EQ(src.n_samples(), 0u);
  EXPECT_EQ(src.num_days(), 0);

  const analysis::AllStreamSums sums = analysis::aggregate_all_streams(src);
  for (const auto& hour_sums : sums.hour_sums) EXPECT_TRUE(hour_sums.empty());
  const analysis::DatasetOverview o = analysis::overview(src);
  EXPECT_EQ(o.n_total, 0);
  EXPECT_EQ(o.lte_traffic_share, 0.0);

  int blocks = 0;
  std::size_t devices = 0;
  src.fold<std::size_t>(
      [](const Dataset& block, std::size_t base) {
        EXPECT_EQ(base, 0u);
        return block.devices.size();
      },
      [&](std::size_t&& n, std::size_t) {
        ++blocks;
        devices += n;
      });
  EXPECT_EQ(blocks, 1);  // the in-memory backend always delivers one block
  EXPECT_EQ(devices, 0u);
}

// A single device (smaller than one 16-device block): the hand-built
// campaign's hour sums must match a plain serial accumulation.
TEST(QuerySource, SingleDeviceMatchesSerialReference) {
  Dataset ds;
  ds.year = Year::Y2015;
  ds.calendar = CampaignCalendar(Date{2015, 2, 1}, 2);
  ds.devices.push_back(DeviceInfo{});
  ds.survey.emplace_back();
  ds.truth.devices.emplace_back();
  ds.truth.devices.back().capped_day.assign(2, 0);

  std::vector<std::uint64_t> expected(
      static_cast<std::size_t>(ds.num_days()) * 24, 0);
  std::vector<test::Row> rows;
  for (TimeBin bin : {TimeBin{0}, TimeBin{5}, TimeBin{6}, TimeBin{200}}) {
    test::add_sample(rows, 0, bin, 1000u + bin);
    expected[static_cast<std::size_t>(bin / kBinsPerHour)] += 1000u + bin;
  }
  test::set_rows(ds, rows);

  const query::InMemorySource src(ds);
  EXPECT_EQ(src.n_devices(), 1u);
  const analysis::AllStreamSums sums = analysis::aggregate_all_streams(src);
  EXPECT_EQ(sums.hour_sums[0], expected);
  for (int stream = 1; stream < 4; ++stream) {
    for (std::uint64_t v : sums.hour_sums[stream]) EXPECT_EQ(v, 0u);
  }
}

// A simulated campaign big enough that device sample ranges straddle
// the 64K chunk boundary: the chunked scan at 4 threads must reproduce
// the 1-thread bytes exactly.
TEST(QuerySource, ChunkStraddlingScanIsThreadCountInvariant) {
  ThreadCountGuard guard;
  const ScenarioConfig config =
      scenario_config(Year::Y2013, kQueryTestScale);
  const Dataset ds = sim::Simulator(config).run();
  // The premise of the test: more samples than one chunk, so at least
  // one device range crosses a chunk boundary.
  ASSERT_GT(ds.samples.size(), query::kScanChunk);
  const query::InMemorySource src(ds);

  core::set_thread_count(1);
  const analysis::AllStreamSums serial = analysis::aggregate_all_streams(src);
  const double serial_lte = analysis::overview(src).lte_traffic_share;
  core::set_thread_count(4);
  const analysis::AllStreamSums parallel =
      analysis::aggregate_all_streams(src);
  for (int stream = 0; stream < 4; ++stream) {
    EXPECT_EQ(serial.hour_sums[stream], parallel.hour_sums[stream]);
  }
  EXPECT_EQ(serial_lte, analysis::overview(src).lte_traffic_share);
}

// --- Out-of-core backend ------------------------------------------------

// The same campaign streamed into a 3-shard store and scanned out of
// core must reproduce the in-memory kernel byte for byte at every
// residency budget, and an out-of-core figure rendering through the
// Runner must byte-match the in-memory registry path.
TEST(QueryOutOfCore, ThreeShardStoreMatchesInMemory) {
  const ScenarioConfig config =
      scenario_config(Year::Y2013, kQueryTestScale);
  test::ScratchDir tmp;
  sim::StreamCampaignOptions opts;
  opts.shards = 3;
  ASSERT_TRUE(sim::stream_campaign(config, tmp.path / "store", opts).ok());
  io::ShardedDataset store;
  ASSERT_TRUE(io::ShardedDataset::open(tmp.path / "store", store).ok());
  ASSERT_EQ(store.num_shards(), 3u);

  const Dataset ds = sim::Simulator(config).run();
  const query::InMemorySource mem(ds);
  const analysis::AllStreamSums expected =
      analysis::aggregate_all_streams(mem);
  const double expected_lte = analysis::overview(mem).lte_traffic_share;
  ASSERT_GT(expected_lte, 0.0);

  for (const std::size_t k :
       {std::size_t{0}, std::size_t{1}, std::size_t{4}}) {
    const query::ShardedSource src(store, k);
    EXPECT_EQ(src.dataset_or_null(), nullptr);
    EXPECT_EQ(src.n_devices(), ds.devices.size());
    EXPECT_EQ(src.n_samples(), ds.samples.size());
    const analysis::AllStreamSums ooc = analysis::aggregate_all_streams(src);
    for (int stream = 0; stream < 4; ++stream) {
      EXPECT_EQ(ooc.hour_sums[stream], expected.hour_sums[stream])
          << "stream=" << stream << " resident_shards=" << k;
    }
    EXPECT_EQ(analysis::overview(src).lte_traffic_share, expected_lte)
        << "resident_shards=" << k;
  }

  // Figure-level identity through Runner::adopt_shards_out_of_core.
  report::Runner::Options opt;
  opt.scale = kQueryTestScale;
  report::Runner in_memory(opt);
  report::Runner out_of_core(opt);
  ASSERT_TRUE(
      out_of_core.adopt_shards_out_of_core(Year::Y2013, tmp.path / "store", 1)
          .ok());
  EXPECT_EQ(out_of_core.analysis(Year::Y2013).source().dataset_or_null(),
            nullptr);
  EXPECT_THROW((void)out_of_core.dataset(Year::Y2013), std::logic_error);
  const auto& registry = report::FigureRegistry::instance();
  for (const char* id : {"table01", "fig02", "fig12"}) {
    const report::FigureSpec* spec = registry.find(id);
    ASSERT_NE(spec, nullptr) << id;
    ASSERT_TRUE(spec->out_of_core) << id;
    EXPECT_EQ(
        report::to_canonical_json(out_of_core.run(*spec, Year::Y2013)),
        report::to_canonical_json(in_memory.run(*spec, Year::Y2013)))
        << id;
  }
}

// --- Context pass budget -------------------------------------------------

// Both backends run the context's intermediates through the same sweep,
// so the in-memory context costs the same passes as the out-of-core one.
TEST(QueryContext, PassBudgetInMemory) {
  const Dataset ds =
      sim::Simulator(scenario_config(Year::Y2015, kQueryTestScale)).run();
  expect_context_pass_budget(query::InMemorySource(ds));
}

TEST(QueryContext, PassBudgetThreeShards) {
  test::ScratchDir tmp;
  sim::StreamCampaignOptions opts;
  opts.shards = 3;
  ASSERT_TRUE(sim::stream_campaign(
                  scenario_config(Year::Y2015, kQueryTestScale),
                  tmp.path / "store", opts)
                  .ok());
  io::ShardedDataset store;
  ASSERT_TRUE(io::ShardedDataset::open(tmp.path / "store", store).ok());
  ASSERT_EQ(store.num_shards(), 3u);
  expect_context_pass_budget(query::ShardedSource(store));
}

// --- Sweeps ----------------------------------------------------------------

/// Calls fn(source, label) on the in-memory source of one small campaign
/// and on the sharded source of the same campaign streamed into 1, 3 and
/// 16 shards, each at resident_shards 0 and 1.
template <typename Fn>
void for_each_backend(const Fn& fn) {
  const ScenarioConfig config = scenario_config(Year::Y2013, kQueryTestScale);
  const Dataset ds = sim::Simulator(config).run();
  fn(query::InMemorySource(ds), std::string("in-memory"));
  test::ScratchDir tmp;
  for (const std::size_t shards : {1, 3, 16}) {
    const fs::path dir = tmp.path / ("store" + std::to_string(shards));
    sim::StreamCampaignOptions opts;
    opts.shards = shards;
    ASSERT_TRUE(sim::stream_campaign(config, dir, opts).ok());
    io::ShardedDataset store;
    ASSERT_TRUE(io::ShardedDataset::open(dir, store).ok());
    ASSERT_EQ(store.num_shards(), shards);
    for (const std::size_t k : {0, 1}) {
      fn(query::ShardedSource(store, k),
         std::to_string(shards) + " shards, K=" + std::to_string(k));
    }
  }
}

/// The block bases one lone fold over `src` sees.
std::vector<std::size_t> block_bases(const query::DataSource& src) {
  std::vector<std::size_t> bases;
  src.fold<int>([](const Dataset&, std::size_t) { return 0; },
                [&](int&&, std::size_t base) { bases.push_back(base); });
  return bases;
}

// N kernels registered on one sweep make one pass and give exactly the
// results of their N separate passes, on every backend.
TEST(QuerySweep, FoldsEqualSeparatePasses) {
  const int cells = geo::TokyoRegion().grid().num_cells();
  const double thresholds[] = {0.5, 0.7};
  for_each_backend([&](const query::DataSource& inner,
                       const std::string& label) {
    const analysis::ApClassification cls = analysis::classify_aps(inner);
    const CountingSource src(inner);
    query::Sweep sweep(src);
    const auto hours = analysis::wifi_location_hours(sweep, cls);
    constexpr ApClass kPublic[] = {ApClass::Public};
    const auto density = analysis::ap_density_maps(sweep, cls, kPublic, cells);
    const auto states = analysis::compute_wifi_states(sweep);
    const auto carriers = analysis::ios_wifi_user_by_carrier(sweep);
    const auto classified = analysis::classify_aps(sweep, {}, thresholds);
    const auto devices = sweep.concat<std::uint32_t>(
        [](const Dataset& block, std::size_t base) {
          std::vector<std::uint32_t> ids;
          for (const DeviceInfo& d : block.devices) {
            ids.push_back(static_cast<std::uint32_t>(base + value(d.id)));
          }
          return ids;
        });
    sweep.run();
    EXPECT_EQ(src.passes(), 1) << label;

    const analysis::WifiLocationHours alone =
        analysis::wifi_location_hours(inner, cls);
    EXPECT_EQ(hours.get().series({ApClass::Home, false}, true).mbps,
              alone.series({ApClass::Home, false}, true).mbps)
        << label;
    EXPECT_EQ(hours.get().series({ApClass::Other, true}, false).mbps,
              alone.series({ApClass::Other, true}, false).mbps)
        << label;
    const analysis::WifiLocationShares s =
        analysis::wifi_location_shares(inner, cls);
    EXPECT_EQ(hours.get().shares().home, s.home) << label;
    EXPECT_EQ(hours.get().shares().publik, s.publik) << label;
    EXPECT_EQ(hours.get().shares().office, s.office) << label;
    EXPECT_EQ(hours.get().shares().other, s.other) << label;
    ASSERT_EQ(density.get().size(), 1u) << label;
    EXPECT_EQ(density.get().front().count_by_cell,
              test::density_maps(inner, cls, {ApClass::Public}, cells)
                  .front()
                  .count_by_cell)
        << label;
    const analysis::WifiStateProfiles p = analysis::compute_wifi_states(inner);
    EXPECT_EQ(states.get().android_off.ratio_series(),
              p.android_off.ratio_series())
        << label;
    EXPECT_EQ(states.get().ios_user.ratio_series(), p.ios_user.ratio_series())
        << label;
    EXPECT_EQ(carriers.get(), analysis::ios_wifi_user_by_carrier(inner))
        << label;
    const std::vector<analysis::ApClassification> separate =
        analysis::classify_aps(inner, {}, thresholds);
    ASSERT_EQ(classified.get().size(), separate.size()) << label;
    for (std::size_t k = 0; k < separate.size(); ++k) {
      EXPECT_EQ(classified.get()[k].ap_class, separate[k].ap_class) << label;
      EXPECT_EQ(classified.get()[k].is_office, separate[k].is_office) << label;
      EXPECT_EQ(classified.get()[k].home_ap_of_device,
                separate[k].home_ap_of_device)
          << label;
    }
    ASSERT_EQ(devices.get().size(), inner.n_devices()) << label;
    for (std::size_t d = 0; d < devices.get().size(); ++d) {
      EXPECT_EQ(devices.get()[d], d) << label;
    }
  });
}

// Every entry's fold sees the blocks in shard order, as a lone fold does,
// and a sweep without entries makes no pass.
TEST(QuerySweep, EachFoldSeesBlocksInShardOrder) {
  for_each_backend([](const query::DataSource& inner,
                      const std::string& label) {
    const std::vector<std::size_t> expected = block_bases(inner);
    ASSERT_FALSE(expected.empty()) << label;
    EXPECT_EQ(expected.front(), 0u) << label;
    for (std::size_t i = 1; i < expected.size(); ++i) {
      EXPECT_LT(expected[i - 1], expected[i]) << label;
    }

    const CountingSource src(inner);
    query::Sweep empty(src);
    empty.run();
    EXPECT_EQ(src.passes(), 0) << label;

    query::Sweep sweep(src);
    std::vector<std::size_t> seen[3];
    for (std::vector<std::size_t>& bases : seen) {
      sweep.fold<std::size_t>(
          [](const Dataset&, std::size_t base) { return base; },
          [&bases](std::size_t&& scanned, std::size_t base) {
            EXPECT_EQ(scanned, base);
            bases.push_back(base);
          });
    }
    sweep.run();
    EXPECT_EQ(src.passes(), 1) << label;
    for (const std::vector<std::size_t>& bases : seen) {
      EXPECT_EQ(bases, expected) << label;
    }
  });
}

// An exception the second scan of a sweep throws reaches the caller of
// run(), as ShardPipeline.ScanExceptionReachesCaller requires for one
// scan: every entry has folded the blocks before the failing one and no
// other, and no finish step has run.
TEST(QuerySweep, SecondScanExceptionReachesCaller) {
  for_each_backend([](const query::DataSource& src, const std::string& label) {
    const std::vector<std::size_t> bases = block_bases(src);
    const std::size_t failing = bases[bases.size() / 2];
    const std::vector<std::size_t> before(
        bases.begin(),
        bases.begin() + static_cast<std::ptrdiff_t>(bases.size() / 2));

    query::Sweep sweep(src);
    std::vector<std::size_t> folded[3];
    const auto record = [&folded](int entry) {
      return [&folded, entry](int&&, std::size_t base) {
        folded[entry].push_back(base);
      };
    };
    const query::Pending<int> first = sweep.reduce<int>(
        [](const Dataset&, std::size_t) { return 1; },
        [](int& acc, int&& p) { acc += p; });
    sweep.fold<int>([](const Dataset&, std::size_t) { return 0; }, record(0));
    sweep.fold<int>(
        [failing](const Dataset&, std::size_t base) {
          if (base == failing) throw std::runtime_error("second scan failed");
          return 0;
        },
        record(1));
    sweep.fold<int>([](const Dataset&, std::size_t) { return 0; }, record(2));
    try {
      sweep.run();
      ADD_FAILURE() << "scan exception swallowed, " << label;
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "second scan failed") << label;
    }
    for (const std::vector<std::size_t>& f : folded) {
      EXPECT_EQ(f, before) << label;
    }
    EXPECT_THROW((void)first.get(), std::logic_error) << label;
  });
}

// --- Passes per figure -----------------------------------------------------

// The out-of-core catalog's store passes, figure by figure, over a
// 16-shard 2015 store in the order the benchmark renders them: the
// level-0 context sweep rides fig03, every figure that scans the store
// makes one pass however many kernels it runs, and the figures that
// read only context intermediates make none: sec41_offload reads the
// location shares of the scan fig11 memoized. 15 in total.
TEST(FigurePasses, OutOfCoreCatalogMakesOnePassPerScanningFigure) {
  const ScenarioConfig config = scenario_config(Year::Y2015, kQueryTestScale);
  test::ScratchDir tmp;
  sim::StreamCampaignOptions opts;
  opts.shards = 16;
  ASSERT_TRUE(sim::stream_campaign(config, tmp.path / "store", opts).ok());
  io::ShardedDataset store;
  ASSERT_TRUE(io::ShardedDataset::open(tmp.path / "store", store).ok());
  ASSERT_EQ(store.num_shards(), 16u);
  const query::ShardedSource sharded(store, 0);
  const CountingSource src(sharded);

  report::Runner::Options opt;
  opt.scale = kQueryTestScale;
  report::Runner runner(opt);
  runner.adopt_source(Year::Y2015, src);

  const struct {
    const char* id;
    int passes;
  } kExpected[] = {
      {"fig02", 1},   {"fig03", 1},   {"fig04", 0},
      {"fig05", 0},   {"fig09", 1},   {"fig10", 1},
      {"fig11", 1},   {"fig12", 1},   {"fig13", 1},
      {"fig14", 0},   {"fig15", 1},   {"fig16", 1},
      {"fig17", 1},   {"fig18", 0},   {"fig19", 0},
      {"sec35_opportunity", 1},       {"sec41_offload", 0},
      {"sec42_battery", 1},           {"sec43_shared_aps", 0},
      {"table01", 1}, {"table02", 0}, {"table04", 0},
      {"table05", 1}, {"table06", 1}, {"table07", 0},
      {"table08", 0}, {"table09", 0}};
  const auto& registry = report::FigureRegistry::instance();
  for (const auto& e : kExpected) {
    const report::FigureSpec* spec = registry.find(e.id);
    ASSERT_NE(spec, nullptr) << e.id;
    const int before = src.passes();
    (void)runner.run(*spec, Year::Y2015);
    EXPECT_EQ(src.passes() - before, e.passes) << e.id;
  }
  EXPECT_EQ(src.passes(), 15);
}

// Every per-year id, rendered in registry (id) order over the same
// store: the six the benchmark leaves out add four passes, 19 in all.
// Each parameter sweep is one pass: ablate_home_threshold's thresholds
// and ground truth, ablate_rssi_cutoff's four cutoffs and
// ablate_user_bands' five bands. fig06 makes the context's memoized
// WiFi-ratio pass, which fig07 and fig08 read. The ablations sort
// first, so ablate_user_bands (it reads days()) also carries the
// level-0 context sweep that rides fig03 in the benchmark's order.
// fig11 makes the context's memoized location pass, which
// sec41_offload reads.
TEST(FigurePasses, PerYearCatalogInRegistryOrder) {
  const ScenarioConfig config = scenario_config(Year::Y2015, kQueryTestScale);
  test::ScratchDir tmp;
  sim::StreamCampaignOptions opts;
  opts.shards = 16;
  ASSERT_TRUE(sim::stream_campaign(config, tmp.path / "store", opts).ok());
  io::ShardedDataset store;
  ASSERT_TRUE(io::ShardedDataset::open(tmp.path / "store", store).ok());
  const query::ShardedSource sharded(store, 0);
  const CountingSource src(sharded);

  report::Runner::Options opt;
  opt.scale = kQueryTestScale;
  report::Runner runner(opt);
  runner.adopt_source(Year::Y2015, src);

  const std::map<std::string, int> kExpected = {
      {"ablate_home_threshold", 1}, {"ablate_rssi_cutoff", 1},
      {"ablate_user_bands", 2},     {"fig02", 1},
      {"fig03", 0},   {"fig04", 0},   {"fig05", 0},   {"fig06", 1},
      {"fig07", 0},   {"fig08", 0},   {"fig09", 1},   {"fig10", 1},
      {"fig11", 1},   {"fig12", 1},   {"fig13", 1},   {"fig14", 0},
      {"fig15", 1},   {"fig16", 1},   {"fig17", 1},   {"fig18", 0},
      {"fig19", 0},   {"sec35_opportunity", 1},       {"sec41_offload", 0},
      {"sec42_battery", 1},           {"sec43_shared_aps", 0},
      {"table01", 1}, {"table02", 0}, {"table04", 0}, {"table05", 1},
      {"table06", 1}, {"table07", 0}, {"table08", 0}, {"table09", 0}};
  std::size_t rendered = 0;
  for (const report::FigureSpec& spec :
       report::FigureRegistry::instance().figures()) {
    if (!spec.per_year()) continue;
    ASSERT_TRUE(spec.applies_to(Year::Y2015)) << spec.id;
    const auto expected = kExpected.find(spec.id);
    ASSERT_NE(expected, kExpected.end()) << spec.id;
    const int before = src.passes();
    (void)runner.run(spec, Year::Y2015);
    EXPECT_EQ(src.passes() - before, expected->second) << spec.id;
    ++rendered;
  }
  EXPECT_EQ(rendered, kExpected.size());
  EXPECT_EQ(rendered, 33u);
  EXPECT_EQ(src.passes(), 19);
}

}  // namespace
}  // namespace tokyonet
