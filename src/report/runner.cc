#include "report/runner.h"

#include <cassert>
#include <stdexcept>

#include "core/scenario.h"
#include "io/shard_store.h"
#include "sim/simulator.h"

namespace tokyonet::report {

void Runner::adopt(Year year, Dataset ds) {
  const int i = static_cast<int>(year);
  assert(ds_[i] == nullptr && "adopt() must precede dataset() resolution");
  adopted_[i] = std::make_unique<Dataset>(std::move(ds));
}

io::SnapshotResult Runner::adopt_shards_out_of_core(
    Year year, const std::filesystem::path& dir,
    std::size_t resident_shards) {
  const int i = static_cast<int>(year);
  assert(ds_[i] == nullptr && external_src_[i] == nullptr &&
         "adopt_shards_out_of_core() must precede resolution");
  auto store = std::make_unique<io::ShardedDataset>();
  if (io::SnapshotResult r = io::ShardedDataset::open(dir, *store); !r.ok()) {
    return r;
  }
  if (store->year() != year) {
    std::string err = "shard store ";
    err += dir.string();
    err += " holds the ";
    err += std::to_string(year_number(store->year()));
    err += " campaign, not ";
    err += std::to_string(year_number(year));
    return {std::move(err)};
  }
  store_[i] = std::move(store);
  shard_src_[i] = std::make_unique<analysis::query::ShardedSource>(
      *store_[i], resident_shards);
  external_src_[i] = shard_src_[i].get();
  return {};
}

void Runner::adopt_source(Year year,
                          const analysis::query::DataSource& src) {
  const int i = static_cast<int>(year);
  assert(ds_[i] == nullptr && external_src_[i] == nullptr &&
         "adopt_source() must precede resolution");
  external_src_[i] = &src;
}

void Runner::resolve(Year year) {
  const int i = static_cast<int>(year);
  std::call_once(once_[i], [&] {
    if (external_src_[i] != nullptr) {
      ctx_[i] =
          std::make_unique<analysis::AnalysisContext>(*external_src_[i]);
      return;
    }
    if (adopted_[i] != nullptr) {
      ds_[i] = std::move(adopted_[i]);
    } else {
      ScenarioConfig config = scenario_config(year, opt_.scale);
      if (opt_.seed) config.seed = *opt_.seed;
      sim::CampaignCacheStatus status;
      ds_[i] = std::make_unique<Dataset>(sim::cached_campaign(config, &status));
      if (opt_.announce_cache) sim::announce_cache(status);
    }
    ctx_[i] = std::make_unique<analysis::AnalysisContext>(*ds_[i]);
  });
}

const Dataset& Runner::dataset(Year year) {
  resolve(year);
  const int i = static_cast<int>(year);
  if (ds_[i] == nullptr) {
    throw std::logic_error(
        "campaign " + std::to_string(year_number(year)) +
        " runs out of core: figures must consume analysis().source()");
  }
  return *ds_[i];
}

const analysis::AnalysisContext& Runner::analysis(Year year) {
  resolve(year);
  return *ctx_[static_cast<int>(year)];
}

Table Runner::run(const FigureSpec& spec, std::optional<Year> year) {
  if (spec.per_year() != year.has_value()) {
    throw std::invalid_argument(
        spec.per_year()
            ? "figure '" + spec.id + "' is per-year: a year is required"
            : "figure '" + spec.id + "' is longitudinal: no year applies");
  }
  const FigureContext ctx(*this, year);
  Table t = spec.fn(ctx);
  t.id = spec.id;
  if (t.title.empty()) t.title = spec.title;
  if (t.paper_ref.empty()) t.paper_ref = spec.paper_ref;
  t.year = year ? std::optional<int>(year_number(*year)) : std::nullopt;
  return t;
}

Table Runner::run_stacked(const FigureSpec& spec) {
  if (!spec.per_year()) return run(spec, std::nullopt);

  std::optional<Table> stacked;
  for (const Year y : spec.years) {
    Table t = run(spec, y);
    if (!stacked) {
      stacked = std::move(t);
      continue;
    }
    if (t.columns() != stacked->columns()) {
      throw std::logic_error("figure '" + spec.id +
                             "' emits different columns per year");
    }
    // Year-qualify the earlier notes once we know several years stack.
    if (stacked->year) {
      for (std::string& note : stacked->notes) {
        note = "[" + std::to_string(*stacked->year) + "] " + note;
      }
      stacked->year = std::nullopt;
    }
    stacked->append_rows(t);
    for (const std::string& note : t.notes) {
      stacked->notes.push_back("[" + std::to_string(year_number(y)) + "] " +
                               note);
    }
  }
  return std::move(*stacked);
}

}  // namespace tokyonet::report
