// perfbench: the measuring process of tokyonet's end-to-end benchmark
// (see README.md; run.py drives it and turns its output into metrics).
//
//   perfbench goldens --dir DIR
//       Renders the catalog at report::kGoldenScale and byte-compares it
//       with the golden files in DIR. Exits 4 on any mismatch.
//
//   perfbench run --workload W --seed N --scale X --threads T --work DIR
//                 [--trace FILE] [--measure-store 1]
//       Runs one iteration of workload W — its set-up, then its timed
//       phase — in this fresh process and prints one JSON line: times,
//       peak RSS, counts, the digest of every output and any failure.
//       With --trace, spans are recorded around every call into the
//       program, per-layer figures are added to the line, and the spans
//       are written to FILE as Chrome trace-event JSON.
//
//   perfbench reference --seed N --scale X --threads T
//       Renders the pinned out-of-core ids from the resident campaign
//       and prints their digests: the reference every out-of-core
//       rendering must match.
//
// Exit codes: 0 ok; 1 runtime failure; 2 bad usage or non-Release
// build; 3 pinned figure id missing from the registry; 4 golden
// mismatch.
#include <sys/resource.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "analysis/context.h"
#include "analysis/incremental.h"
#include "analysis/query/source.h"
#include "core/hash.h"
#include "core/parallel.h"
#include "core/scenario.h"
#include "ingest/replay.h"
#include "ingest/server.h"
#include "io/shard_store.h"
#include "io/snapshot.h"
#include "report/golden.h"
#include "report/registry.h"
#include "report/runner.h"
#include "report/table.h"
#include "sim/simulator.h"
#include "sim/stream_runner.h"
#include "stats/simd.h"
#include "trace.h"

using namespace tokyonet;
namespace fs = std::filesystem;
using perfbench::cpu_s;
using perfbench::now_s;
using perfbench::ScopedSpan;
using perfbench::Span;
using perfbench::Trace;

namespace {

constexpr int kExitFailure = 1;
constexpr int kExitUsage = 2;
constexpr int kExitPinned = 3;
constexpr int kExitGolden = 4;

// What each catalog workload renders, pinned rather than derived from
// the registry: a pinned id the registry lacks fails the run, and an id
// the registry gains is reported and left out, so widening a workload
// is a change to this list.
constexpr const char* kInMemoryIds[] = {
    "ablate_home_threshold", "ablate_rssi_cutoff", "ablate_user_bands",
    "fig01", "fig02", "fig03", "fig04", "fig05", "fig06", "fig07", "fig08",
    "fig09", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16",
    "fig17", "fig18", "fig19", "sec35_opportunity", "sec41_offload",
    "sec42_battery", "sec43_shared_aps", "table01", "table02", "table03",
    "table04", "table05", "table06", "table07", "table08", "table09"};

constexpr const char* kOutOfCoreIds[] = {
    "fig02", "fig03", "fig04", "fig05", "fig09", "fig10", "fig11", "fig12",
    "fig13", "fig14", "fig15", "fig16", "fig17", "fig18", "fig19",
    "sec35_opportunity", "sec41_offload", "sec42_battery", "sec43_shared_aps",
    "table01", "table02", "table04", "table05", "table06", "table07",
    "table08", "table09"};

constexpr Year kOutOfCoreYear = Year::Y2015;
constexpr std::size_t kStoreShards = 16;
constexpr int kIngestShards = 4;
constexpr double kBytesPerMb = 1e6;

struct Options {
  std::string mode;
  std::string workload;
  std::uint64_t seed = 0;
  double scale = 1.0;
  int threads = 0;
  bool measure_store = false;
  fs::path work;
  fs::path trace_file;
  fs::path golden_dir;
};

// Peak resident set of this process so far.
double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) * 1024.0 / kBytesPerMb;
}

std::string digest(const std::string& bytes) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64,
                core::hash_bytes(bytes.data(), bytes.size(), 0));
  return buf;
}

std::string json_quoted(std::string_view s) {
  std::string out;
  report::append_json_string(out, s);
  return out;
}

// Guest-wide CPU time from /proc/stat, in clock ticks: all of it, and
// the part the hypervisor gave to other guests while ours wanted to run.
struct HostCpu {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};

HostCpu host_cpu() {
  HostCpu h;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return h;
  unsigned long long v[8] = {};
  if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0],
                  &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
    for (const unsigned long long x : v) h.total += x;
    h.steal = v[7];
  }
  std::fclose(f);
  return h;
}

// Share of the guest's CPU capacity stolen since `from`.
double steal_since(const HostCpu& from) {
  const HostCpu to = host_cpu();
  const std::uint64_t total = to.total - from.total;
  return total == 0 ? 0.0
                    : static_cast<double>(to.steal - from.steal) /
                          static_cast<double>(total);
}

std::uint64_t dir_bytes(const fs::path& dir) {
  std::uint64_t total = 0;
  for (const auto& e : fs::recursive_directory_iterator(dir)) {
    if (e.is_regular_file()) total += e.file_size();
  }
  return total;
}

ScenarioConfig config_for(const Options& opt, Year year) {
  ScenarioConfig c = scenario_config(year, opt.scale);
  c.seed = opt.seed;
  return c;
}

report::Runner::Options runner_options(const Options& opt) {
  report::Runner::Options r;
  r.scale = opt.scale;
  r.seed = opt.seed;
  return r;
}

// ---------------------------------------------------------------------
// Pinned figure lists.

// A pinned id the registry no longer serves as pinned.
struct PinnedError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

struct Pinned {
  std::vector<const report::FigureSpec*> specs;
  std::vector<std::string> span_names;  // "report.fig.<id>"
  std::vector<std::string> unpinned;    // registry ids left out
};

template <std::size_t N>
Pinned resolve_pinned(const char* const (&ids)[N], bool out_of_core) {
  const auto& registry = report::FigureRegistry::instance();
  Pinned p;
  for (const char* id : ids) {
    const report::FigureSpec* spec = registry.find(id);
    if (spec == nullptr) {
      throw PinnedError(std::string("pinned figure id '") + id +
                        "' is not in the registry");
    }
    if (out_of_core &&
        (!spec->out_of_core || !spec->applies_to(kOutOfCoreYear))) {
      throw PinnedError(std::string("pinned figure id '") + id +
                        "' no longer renders out of core for " +
                        std::string(to_string(kOutOfCoreYear)));
    }
    p.specs.push_back(spec);
    p.span_names.push_back("report.fig." + spec->id);
  }
  for (const report::FigureSpec& spec : registry.figures()) {
    if (out_of_core && !(spec.out_of_core && spec.applies_to(kOutOfCoreYear))) {
      continue;
    }
    bool listed = false;
    for (const char* id : ids) listed = listed || spec.id == id;
    if (!listed) p.unpinned.push_back(spec.id);
  }
  return p;
}

// ---------------------------------------------------------------------
// Wrappers around public interfaces that time the layer behind them.

// Forwards every call to another DataSource and records one span per
// store pass (fold_blocks) with a child span per block scan and per
// fold. Installed with Runner::adopt_source.
class TracingSource final : public analysis::query::DataSource {
 public:
  explicit TracingSource(const DataSource& inner) : inner_(&inner) {}

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
    const ScopedSpan pass("query.pass");
    const int pass_id = pass.id();
    inner_->fold_blocks(
        [&](const Dataset& block, std::size_t base) {
          const ScopedSpan s("query.scan", pass_id);
          return scan(block, base);
        },
        [&](std::shared_ptr<void> partial, std::size_t base) {
          const ScopedSpan s("query.fold", pass_id);
          fold(std::move(partial), base);
        });
  }

 private:
  const DataSource* inner_;
};

// Forwards frames to another sink and adds the time spent inside its
// writes (session parse, route and backpressure) to `*seconds`.
class TimedSink final : public ingest::FrameSink {
 public:
  TimedSink(ingest::FrameSink& inner, double* seconds)
      : inner_(&inner), seconds_(seconds) {}
  [[nodiscard]] bool write(std::span<const std::uint8_t> bytes) override {
    const double t0 = now_s();
    const bool ok = inner_->write(bytes);
    *seconds_ += now_s() - t0;
    return ok;
  }

 private:
  ingest::FrameSink* inner_;
  double* seconds_;
};

// Accepts every frame without parsing it: isolates the encode cost.
class NullSink final : public ingest::FrameSink {
 public:
  [[nodiscard]] bool write(std::span<const std::uint8_t>) override {
    return true;
  }
};

// ---------------------------------------------------------------------
// One iteration.

struct Iteration {
  double setup_s = 0.0;  // wall time of each phase
  double run_s = 0.0;
  double setup_steal = 0.0;  // share of host CPU stolen in each phase
  double run_steal = 0.0;
  double setup_cpu_s = 0.0;  // process CPU time of each phase
  double cpu_s = 0.0;
  double peak_rss_mb = 0.0;
  double store_mb = 0.0;  // 0 when not measured
  std::uint64_t records = 0;
  int attempted = 0;
  int failed = 0;
  double setup_begin = 0.0;  // steady clock
  double run_begin = 0.0;
  double run_end = 0.0;
  double cpu_begin = 0.0;
  HostCpu host_begin;  // at the start of the current phase
  std::map<std::string, std::string> renders;  // id -> digest
  std::vector<std::string> errors;
  std::vector<std::string> unpinned;
  std::map<std::string, double> layers;  // traced runs only
};

void begin_setup(Iteration& it) {
  it.host_begin = host_cpu();
  it.cpu_begin = cpu_s();
  it.setup_begin = now_s();
}

void end_setup(Iteration& it) {
  it.setup_s = now_s() - it.setup_begin;
  it.setup_cpu_s = cpu_s() - it.cpu_begin;
  it.setup_steal = steal_since(it.host_begin);
}

void begin_run(Iteration& it) {
  it.host_begin = host_cpu();
  it.cpu_begin = cpu_s();
  it.run_begin = now_s();
}

// Ends the timed phase and samples what it cost.
void end_run(Iteration& it) {
  it.run_end = now_s();
  it.cpu_s = cpu_s() - it.cpu_begin;
  it.run_s = it.run_end - it.run_begin;
  it.run_steal = steal_since(it.host_begin);
  it.peak_rss_mb = peak_rss_mb();
}

// Renders every pinned figure inside the timed phase, one top-level
// span each; digests are taken after the clock stops.
void render_pinned(report::Runner& runner, const Pinned& pinned,
                   std::optional<Year> year, Iteration& it) {
  std::vector<std::optional<report::Table>> tables(pinned.specs.size());
  std::vector<std::string> errors(pinned.specs.size());
  begin_run(it);
  for (std::size_t i = 0; i < pinned.specs.size(); ++i) {
    const ScopedSpan span(pinned.span_names[i]);
    try {
      tables[i] = year ? runner.run(*pinned.specs[i], *year)
                       : runner.run_stacked(*pinned.specs[i]);
    } catch (const std::exception& e) {
      errors[i] = e.what();
    }
  }
  end_run(it);
  it.unpinned = pinned.unpinned;
  for (std::size_t i = 0; i < pinned.specs.size(); ++i) {
    const report::FigureSpec& spec = *pinned.specs[i];
    const int renderings =
        year || !spec.per_year() ? 1 : static_cast<int>(spec.years.size());
    it.attempted += renderings;
    if (!tables[i]) {
      it.failed += renderings;
      it.renders[spec.id] = "error";
      it.errors.push_back(spec.id + ": " + errors[i]);
      continue;
    }
    it.renders[spec.id] = digest(report::to_canonical_json(*tables[i]));
  }
}

// Times each context intermediate once, in dependency order, on a
// context of its own (after the timed phase).
void probe_context(const analysis::AnalysisContext& ctx) {
  { const ScopedSpan s("analysis.ctx.scan"); (void)ctx.days(); }
  { const ScopedSpan s("analysis.ctx.classifier"); (void)ctx.classifier(); }
  {
    const ScopedSpan s("analysis.ctx.classification");
    (void)ctx.classification();
  }
  { const ScopedSpan s("analysis.ctx.home_cells"); (void)ctx.home_cells(); }
}

// Set-up: simulate the three campaigns. Timed: the 35 pinned figures,
// stacked over their paper years (75 renderings).
Iteration catalog_in_memory(const Options& opt) {
  const Pinned pinned = resolve_pinned(kInMemoryIds, false);
  Iteration it;
  report::Runner runner(runner_options(opt));
  begin_setup(it);
  for (Year y : kAllYears) {
    const ScopedSpan s("sim.simulate");
    it.records += runner.dataset(y).samples.size();
  }
  end_setup(it);
  render_pinned(runner, pinned, std::nullopt, it);

  if (opt.measure_store) {
    // What the campaign cache (TOKYONET_CACHE_DIR) holds for this run.
    std::uint64_t bytes = 0;
    for (Year y : kAllYears) {
      const fs::path file =
          opt.work / ("campaign-" + std::string(to_string(y)) + ".tksnap");
      const io::SnapshotResult r = io::save_snapshot(
          runner.dataset(y), file, scenario_hash(config_for(opt, y)));
      if (!r.ok()) throw std::runtime_error("snapshot save: " + r.error);
      bytes += fs::file_size(file);
      fs::remove(file);
    }
    it.store_mb = static_cast<double>(bytes) / kBytesPerMb;
  }
  if (Trace::enabled()) {
    for (Year y : kAllYears) {
      probe_context(analysis::AnalysisContext(runner.dataset(y)));
    }
    it.layers["sim.samples"] = static_cast<double>(it.records);
  }
  return it;
}

// Set-up: stream 2015 into a 16-shard store and open it. Timed: the 27
// pinned out-of-core figures over the store.
Iteration catalog_out_of_core(const Options& opt) {
  const Pinned pinned = resolve_pinned(kOutOfCoreIds, true);
  Iteration it;
  const fs::path store = opt.work / "store";
  fs::remove_all(store);
  const std::size_t resident = io::resident_shards_from_env();

  io::ShardedDataset sharded;
  begin_setup(it);
  {
    const ScopedSpan s("sim.stream_write");
    sim::StreamCampaignOptions so;
    so.shards = kStoreShards;
    const sim::StreamCampaignResult r =
        sim::stream_campaign(config_for(opt, kOutOfCoreYear), store, so);
    if (!r.ok()) throw std::runtime_error("stream_campaign: " + r.error);
    it.records = r.manifest.n_samples;
  }
  {
    const ScopedSpan s("io.open");
    if (io::SnapshotResult r = io::ShardedDataset::open(store, sharded);
        !r.ok()) {
      throw std::runtime_error("open store: " + r.error);
    }
  }
  if (sharded.year() != kOutOfCoreYear) {
    throw std::runtime_error("the store holds the wrong campaign year");
  }
  const analysis::query::ShardedSource source(sharded, resident);
  const TracingSource tracing(source);
  report::Runner runner(runner_options(opt));  // borrows `tracing`
  runner.adopt_source(kOutOfCoreYear, tracing);
  end_setup(it);
  it.store_mb = static_cast<double>(dir_bytes(store)) / kBytesPerMb;

  render_pinned(runner, pinned, kOutOfCoreYear, it);

  if (Trace::enabled()) {
    // One pass with the first-load payload verification, one steady
    // pass with the index rebuilt on each loaded shard, then each
    // context intermediate over a fresh source.
    io::ShardedDataset probe;
    if (io::SnapshotResult r = io::ShardedDataset::open(store, probe); !r.ok()) {
      throw std::runtime_error("reopen store: " + r.error);
    }
    for (const bool verify : {true, false}) {
      for (std::size_t i = 0; i < probe.num_shards(); ++i) {
        Dataset shard;
        io::SnapshotResult r;
        {
          const ScopedSpan s(verify ? "io.load_shard_verify" : "io.load_shard");
          r = probe.load_shard(i, shard);
        }
        if (!r.ok()) throw std::runtime_error("load_shard: " + r.error);
        if (!verify) {
          const ScopedSpan s("core.index_build");
          if (!shard.build_index()) throw std::runtime_error("build_index");
        }
      }
    }
    const analysis::query::ShardedSource fresh(probe, resident);
    probe_context(analysis::AnalysisContext(fresh));
    it.layers["io.store_shards"] = static_cast<double>(probe.num_shards());
  }
  return it;
}

// Set-up: simulate 2015. Timed: one in-process session replays it
// unthrottled into a 4-shard server (blocking backpressure, default
// queue) and the server drains every batch.
Iteration ingest_replay(const Options& opt) {
  Iteration it;
  begin_setup(it);
  Dataset ds;
  {
    const ScopedSpan s("sim.simulate");
    ds = sim::Simulator(config_for(opt, kOutOfCoreYear)).run();
  }
  end_setup(it);

  ingest::IngestConfig config;
  config.shards = kIngestShards;
  ingest::ReplayStats stats;
  ingest::IngestCounters counters;
  analysis::StreamResult result;
  bool clean = false;
  double feed_s = 0.0;
  std::string session_error;
  {
    begin_run(it);
    std::optional<ingest::IngestServer> server;
    std::unique_ptr<ingest::IngestServer::Session> session;
    {
      const ScopedSpan s("ingest.connect");
      server.emplace(config);
      session = server->connect();
    }
    ingest::SessionSink session_sink(*session);
    TimedSink sink(session_sink, &feed_s);
    bool sent = false;
    {
      const ScopedSpan s("ingest.replay");
      sent = ingest::replay_dataset(ds, {}, sink, &stats);
    }
    {
      const ScopedSpan s("ingest.finish");
      clean = sent && session->finish();
    }
    {
      const ScopedSpan s("ingest.drain");
      server->shutdown();
    }
    end_run(it);
    if (!clean) session_error = session->error();
    {
      const ScopedSpan s("ingest.result");
      result = server->result();
    }
    counters = server->counters();
    session.reset();
  }
  it.records = counters.records_committed;
  it.store_mb = static_cast<double>(stats.bytes) / kBytesPerMb;
  it.attempted = 1;

  std::string diff =
      analysis::compare_stream_results(result, analysis::batch_stream_result(ds));
  if (!clean) diff = "unclean session: " + session_error;
  if (counters.batches_shed > 0 || counters.records_shed > 0) {
    diff = "shed " + std::to_string(counters.records_shed) + " records";
  }
  if (counters.records_committed != ds.samples.size()) {
    diff = "committed " + std::to_string(counters.records_committed) + " of " +
           std::to_string(ds.samples.size()) + " records";
  }
  if (!diff.empty()) {
    it.failed = 1;
    it.errors.push_back("replay: " + diff);
  }

  if (Trace::enabled()) {
    NullSink null_sink;
    {
      const ScopedSpan s("ingest.encode");
      if (!ingest::replay_dataset(ds, {}, null_sink)) {
        throw std::runtime_error("replay into a null sink failed");
      }
    }
    it.layers["sim.samples"] = static_cast<double>(ds.samples.size());
    it.layers["ingest.feed_s"] = feed_s;
    it.layers["ingest.frames"] = static_cast<double>(stats.frames);
    it.layers["ingest.bytes"] = static_cast<double>(stats.bytes);
    it.layers["ingest.batches_shed"] =
        static_cast<double>(counters.batches_shed);
  }
  return it;
}

// ---------------------------------------------------------------------
// Per-layer figures from the spans of a traced run.

double sum_named(const std::vector<Span>& spans, std::string_view name) {
  double total = 0.0;
  for (const Span& s : spans) {
    if (s.name == name) total += s.duration();
  }
  return total;
}

double count_named(const std::vector<Span>& spans, std::string_view name) {
  double n = 0;
  for (const Span& s : spans) n += s.name == name ? 1 : 0;
  return n;
}

void add_span_layers(Iteration& it, const std::vector<Span>& spans) {
  const std::vector<double> self = perfbench::self_times(spans);
  double top = 0.0;
  double fig_self = 0.0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const bool in_run = s.start >= it.run_begin && s.start < it.run_end;
    if (in_run && s.parent == perfbench::kNoSpan) top += s.duration();
    if (s.name.rfind("report.fig.", 0) == 0) {
      it.layers[s.name + "_s"] += s.duration();
      fig_self += self[i];
    }
  }
  it.layers["report.fig_self_s"] = fig_self;
  it.layers["trace.coverage"] = top / it.run_s;
  it.layers["trace.spans"] = static_cast<double>(spans.size());
  for (const char* name :
       {"sim.simulate", "sim.stream_write", "io.open", "io.load_shard_verify",
        "io.load_shard", "core.index_build", "analysis.ctx.scan",
        "analysis.ctx.classifier", "analysis.ctx.classification",
        "analysis.ctx.home_cells", "ingest.drain", "ingest.result",
        "ingest.encode"}) {
    it.layers[std::string(name) + "_s"] = sum_named(spans, name);
  }
  const double pass = sum_named(spans, "query.pass");
  const double scan = sum_named(spans, "query.scan");
  const double fold = sum_named(spans, "query.fold");
  it.layers["query.passes"] = count_named(spans, "query.pass");
  it.layers["query.blocks"] = count_named(spans, "query.scan");
  it.layers["query.pass_s"] = pass;
  it.layers["query.scan_s"] = scan;
  it.layers["query.fold_s"] = fold;
  it.layers["query.load_wait_s"] = pass - scan - fold;
  it.layers["proc.cpu_s"] = it.cpu_s;
}

// ---------------------------------------------------------------------
// Output.

std::string conditions_json(const Options& opt) {
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "{\"workload\":%s,\"seed\":%" PRIu64 ",\"scale\":%.9g,"
                "\"threads\":%d,\"store_shards\":%zu,\"ingest_shards\":%d,"
                "\"resident_shards_default\":%zu,\"simd_isa\":%s,"
                "\"build_type\":%s}",
                json_quoted(opt.workload).c_str(), opt.seed, opt.scale,
                core::thread_count(), kStoreShards, kIngestShards,
                io::resident_shards_from_env(),
                json_quoted(stats::simd::active_isa()).c_str(),
                json_quoted(PERFBENCH_BUILD_TYPE).c_str());
  return buf;
}

std::string json_strings(const std::vector<std::string>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    out += (i ? "," : "") + json_quoted(v[i]);
  }
  return out + "]";
}

template <typename Map, typename Fmt>
std::string json_object(const Map& m, Fmt&& fmt) {
  std::string out = "{";
  for (const auto& [key, value] : m) {
    out += (out.size() > 1 ? "," : "") + json_quoted(key) + ":" + fmt(value);
  }
  return out + "}";
}

std::string number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

void print_iteration(const Options& opt, const Iteration& it) {
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "\"setup_s\":%.9g,\"run_s\":%.9g,\"setup_steal\":%.9g,"
                "\"run_steal\":%.9g,\"setup_cpu_s\":%.9g,\"cpu_s\":%.9g,"
                "\"peak_rss_mb\":%.9g,\"store_mb\":%.9g,\"records\":%" PRIu64
                ",\"attempted\":%d,\"failed\":%d",
                it.setup_s, it.run_s, it.setup_steal, it.run_steal,
                it.setup_cpu_s, it.cpu_s, it.peak_rss_mb, it.store_mb,
                it.records, it.attempted, it.failed);
  std::printf("{\"conditions\":%s,%s,\"renders\":%s,\"errors\":%s,"
              "\"unpinned\":%s,\"layers\":%s}\n",
              conditions_json(opt).c_str(), buf,
              json_object(it.renders, json_quoted).c_str(),
              json_strings(it.errors).c_str(),
              json_strings(it.unpinned).c_str(),
              json_object(it.layers, number).c_str());
}

// ---------------------------------------------------------------------
// Modes.

int cmd_goldens(const Options& opt) {
  report::Runner::Options ro;
  ro.scale = report::kGoldenScale;
  report::Runner runner(ro);
  const report::GoldenReport r = report::check_goldens(opt.golden_dir, runner);
  for (const std::string& e : r.errors) {
    std::fprintf(stderr, "golden: %s\n", e.c_str());
  }
  if (!r.ok()) {
    std::fprintf(stderr, "golden check FAILED: %d of %d renderings\n",
                 r.mismatched, r.figures);
    return kExitGolden;
  }
  std::printf("golden check OK: %d renderings\n", r.figures);
  return 0;
}

int cmd_reference(const Options& opt) {
  const Pinned pinned = resolve_pinned(kOutOfCoreIds, true);
  report::Runner runner(runner_options(opt));
  std::map<std::string, std::string> renders;
  for (const report::FigureSpec* spec : pinned.specs) {
    renders[spec->id] = digest(
        report::to_canonical_json(runner.run(*spec, kOutOfCoreYear)));
  }
  std::printf("{\"renders\":%s}\n", json_object(renders, json_quoted).c_str());
  return 0;
}

int cmd_run(const Options& opt) {
  fs::create_directories(opt.work);
  const bool traced = !opt.trace_file.empty();
  Trace::set_enabled(traced);
  Iteration it;
  if (opt.workload == "catalog_in_memory") {
    it = catalog_in_memory(opt);
  } else if (opt.workload == "catalog_out_of_core") {
    it = catalog_out_of_core(opt);
  } else if (opt.workload == "ingest_replay") {
    it = ingest_replay(opt);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", opt.workload.c_str());
    return kExitUsage;
  }
  Trace::set_enabled(false);
  if (traced) {
    const std::vector<Span> spans = Trace::spans();
    add_span_layers(it, spans);
    if (!perfbench::write_chrome_trace(opt.trace_file, spans,
                                       conditions_json(opt))) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   opt.trace_file.c_str());
      return kExitFailure;
    }
  }
  print_iteration(opt, it);
  return 0;
}

bool parse_args(int argc, char** argv, Options& opt) {
  if (argc < 2 || argc % 2 != 0) return false;
  opt.mode = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      opt.workload = v;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(v, &end, 10);
    } else if (flag == "--scale") {
      opt.scale = std::strtod(v, &end);
    } else if (flag == "--threads") {
      opt.threads = static_cast<int>(std::strtol(v, &end, 10));
    } else if (flag == "--measure-store") {
      opt.measure_store = std::strtol(v, &end, 10) != 0;
    } else if (flag == "--work") {
      opt.work = v;
    } else if (flag == "--trace") {
      opt.trace_file = v;
    } else if (flag == "--dir") {
      opt.golden_dir = v;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return false;
    }
    if (end != nullptr && (end == v || *end != '\0')) {
      std::fprintf(stderr, "invalid value for %s: '%s'\n", flag.c_str(), v);
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
#ifndef NDEBUG
  std::fprintf(stderr, "perfbench: refusing to measure a build with "
               "assertions on (build type '%s'); build Release\n",
               PERFBENCH_BUILD_TYPE);
  return kExitUsage;
#else
  if (std::string_view(PERFBENCH_BUILD_TYPE) != "Release") {
    std::fprintf(stderr, "perfbench: refusing build type '%s'; build "
                 "Release\n", PERFBENCH_BUILD_TYPE);
    return kExitUsage;
  }
  Options opt;
  if (!parse_args(argc, argv, opt)) {
    std::fprintf(stderr, "usage: perfbench goldens --dir DIR | run "
                 "--workload W --seed N --scale X --threads T --work DIR "
                 "[--trace FILE] [--measure-store 1] | reference --seed N "
                 "--scale X --threads T\n");
    return kExitUsage;
  }
  if (opt.threads > 0) core::set_thread_count(opt.threads);
  try {
    if (opt.mode == "goldens") return cmd_goldens(opt);
    if (opt.mode == "reference") return cmd_reference(opt);
    if (opt.mode == "run") return cmd_run(opt);
  } catch (const PinnedError& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return kExitPinned;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return kExitFailure;
  }
  std::fprintf(stderr, "unknown mode '%s'\n", opt.mode.c_str());
  return kExitUsage;
#endif
}
