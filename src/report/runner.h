// Runner: the one execution path for registered figures.
//
// Resolves campaign datasets through the on-disk campaign cache
// (sim::cached_campaign; TOKYONET_CACHE_DIR), builds exactly one
// analysis::AnalysisContext per year (std::call_once, shared by every
// figure), and renders any FigureSpec as a report::Table. The CLI, the
// benchmark driver and the golden harness all drive figures through
// this class.
//
// Out of core, each store pass loads every shard once. A figure makes
// at most one pass of its own (the kernels it runs together share a
// query::Sweep), plus the context's one sweep if it is the first to
// need an intermediate, and app_breakdown()'s if it is the first of
// Tables 6/7; figures that read only intermediates make none.
#pragma once

#include <cstdint>
#include <filesystem>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "analysis/context.h"
#include "analysis/query/source.h"
#include "core/records.h"
#include "io/shard_store.h"
#include "io/snapshot.h"
#include "report/registry.h"

namespace tokyonet::report {

class Runner {
 public:
  struct Options {
    /// Panel scale passed to scenario_config().
    double scale = 1.0;
    /// Simulation seed override (default: the scenario's).
    std::optional<std::uint64_t> seed;
    /// Print "tokyonet-cache: hit|miss <path>" lines when the campaign
    /// cache is enabled (tools/cache_smoke_test.sh counts them).
    bool announce_cache = false;
  };

  Runner() = default;
  explicit Runner(const Options& opt) : opt_(opt) {}

  Runner(const Runner&) = delete;
  Runner& operator=(const Runner&) = delete;

  [[nodiscard]] const Options& options() const noexcept { return opt_; }

  /// Memoized campaign for `year`: simulated (or cache-loaded) at most
  /// once per Runner, thread-safely. Throws std::logic_error when the
  /// year runs out of core (adopt_shards_out_of_core / adopt_source).
  /// Figures never call this; they read analysis(year).source().
  [[nodiscard]] const Dataset& dataset(Year year);

  /// Memoized analysis context over `year`'s campaign (in-memory or
  /// out-of-core; analysis(year).source() is the backend-agnostic view).
  [[nodiscard]] const analysis::AnalysisContext& analysis(Year year);

  /// True when `year`'s campaign was installed as an out-of-core source
  /// (dataset(year) would throw).
  [[nodiscard]] bool out_of_core(Year year) const noexcept {
    return external_src_[static_cast<int>(year)] != nullptr;
  }

  /// Installs an externally loaded dataset (CSV import, snapshot) as
  /// `year`'s campaign. Must be called before the first dataset(year)
  /// resolution for that year.
  void adopt(Year year, Dataset ds);

  /// Opens a sharded campaign store (io/shard_store.h), materializes it
  /// back into one in-memory Dataset and adopt()s the result as
  /// `year`'s campaign. Fails if the store's campaign year disagrees
  /// with `year`. `resident_shards` >= 1 overlaps the next shard's load
  /// with the current shard's concatenation (io::ShardedDataset::
  /// materialize); 0 loads strictly sequentially.
  [[nodiscard]] io::SnapshotResult adopt_shards(
      Year year, const std::filesystem::path& dir,
      std::size_t resident_shards = 1);

  /// Opens a sharded campaign store and installs it as `year`'s
  /// campaign WITHOUT materializing it: every per-year figure then runs
  /// through a query::ShardedSource
  /// holding at most `resident_shards + 1` shards resident (exactly one
  /// at resident_shards = 0), byte-identical to the in-memory run.
  /// Must precede the first dataset()/analysis() resolution for `year`.
  [[nodiscard]] io::SnapshotResult adopt_shards_out_of_core(
      Year year, const std::filesystem::path& dir,
      std::size_t resident_shards = 1);

  /// Installs an externally owned source (must outlive the Runner) as
  /// `year`'s campaign. Same contract as adopt_shards_out_of_core.
  void adopt_source(Year year, const analysis::query::DataSource& src);

  /// Renders one figure. For per-year figures `year` must be set (any
  /// campaign year is accepted — `spec.years` lists the paper's
  /// defaults, not a hard restriction); for longitudinal figures it
  /// must be nullopt. The result carries the spec's id/title/paper_ref
  /// and the rendered year.
  [[nodiscard]] Table run(const FigureSpec& spec, std::optional<Year> year);

  /// Renders a figure for every year in `spec.years` and stacks the
  /// per-year rows into one table (figures emit a leading "year"
  /// column, so the stack reads like the paper's multi-year tables).
  /// Longitudinal figures render once, unchanged.
  [[nodiscard]] Table run_stacked(const FigureSpec& spec);

 private:
  /// Builds `year`'s context (and dataset, when in memory) exactly once.
  void resolve(Year year);

  Options opt_;

  std::once_flag once_[kNumYears];
  std::unique_ptr<Dataset> adopted_[kNumYears];
  std::unique_ptr<Dataset> ds_[kNumYears];
  std::unique_ptr<io::ShardedDataset> store_[kNumYears];
  std::unique_ptr<analysis::query::ShardedSource> shard_src_[kNumYears];
  const analysis::query::DataSource* external_src_[kNumYears] = {};
  std::unique_ptr<analysis::AnalysisContext> ctx_[kNumYears];
};

}  // namespace tokyonet::report
