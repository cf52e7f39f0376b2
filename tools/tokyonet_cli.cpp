// tokyonet command-line tool.
//
//   tokyonet fig list [--ids]
//       Enumerate the figure registry: every paper figure/table
//       reproduction with its id, years, paper reference and whether it
//       can run out-of-core (the `ooc` column: every per-year figure).
//
//   tokyonet fig run <id> [--year Y] [--scale S] [--seed N]
//                    [--format text|csv|json] [--shard-dir DIR]
//                    [--resident-shards K]
//       Render one registered reproduction. Without --year a per-year
//       figure is stacked over all its paper years; longitudinal
//       figures take no --year. With --shard-dir the campaign comes
//       from a sharded store instead of simulation, and the figure
//       scans it shard by shard with bounded memory (--resident-shards
//       below); only the store's campaign year renders, and a
//       longitudinal figure spans several campaigns and is rejected
//       with exit 2.
//
//   tokyonet fig all [--format text|csv|json] [--shard-dir DIR]
//                    [--resident-shards K]
//   tokyonet fig all --update-goldens [--goldens DIR]
//   tokyonet fig all --check-goldens [--goldens DIR]
//       Render the whole catalog, or write / byte-compare the golden
//       canonical-JSON files (always at the pinned golden scale).
//       With --shard-dir, render every figure for the store's campaign
//       year with bounded memory.
//
//   tokyonet simulate --year 2015 [--scale S] [--seed N] --out DIR
//       Simulate a campaign and export it as CSV (observable data only).
//
//   tokyonet report (--in DIR | --shard-dir DIR [--resident-shards K]
//                    | --year Y [--scale S])
//       Print the headline reproductions for a dataset through the
//       figure registry (Table 1/4, user types, offload opportunity,
//       and for 2015 the update event). --shard-dir scans a sharded
//       campaign store with bounded memory: --resident-shards K
//       (default 1, or TOKYONET_RESIDENT_SHARDS) pipelines the scan
//       with at most K+1 shards resident — 0 restores the strict
//       one-shard-at-a-time scan. The output is byte-identical at
//       every K, and to `report --year` over the same campaign.
//
//   tokyonet years [--scale S]
//       Headline report for all three campaigns plus the longitudinal
//       figures (Fig 1, Table 3).
//
//   tokyonet snapshot save --year Y [--scale S] [--seed N] --out FILE
//   tokyonet snapshot load --in FILE
//   tokyonet snapshot info --in PATH
//   tokyonet snapshot warm [--scale S]
//       Binary campaign snapshots (io/snapshot.h): persist a simulated
//       campaign, reload it (mmap, verified), inspect a file, or
//       pre-populate the TOKYONET_CACHE_DIR campaign cache for all
//       three years. `info` on a shard directory prints and verifies
//       its manifest instead.
//
//   tokyonet snapshot shard --year Y [--scale S] [--seed N] --out DIR
//                           [--shards N]
//       Stream a campaign simulation into a sharded store
//       (io/shard_store.h) without ever materializing it: block i+1
//       simulates while block i serializes, so peak memory is two
//       shards and million-device campaigns fit in a few GB. --shards 0
//       sizes shards automatically (2048 devices each).
//
//   tokyonet ingest serve --port P [--host H] [--shards N] [--queue N]
//                         [--shed] [--sessions N]
//       Run a TCP ingest server until N sessions have ended, then print
//       the counters and the stream's analysis summary. An ingest server
//       runs one worker thread per shard, so --shards is 1..256.
//
//   tokyonet ingest replay --year Y --port P [--host H] [--scale S]
//                          [--seed N] [--rate R] [--batch B]
//                          [--multiplier M]
//       Stream a campaign to a running ingest server over TCP.
//
//   tokyonet ingest stats --year Y [--scale S] [--seed N] [--shards N]
//                         [--queue N] [--shed] [--rate R] [--batch B]
//                         [--multiplier M] [--no-verify]
//       Loopback replay: stream a campaign through an in-process ingest
//       server, print throughput/counters, and verify the kernels' result
//       over the committed columns is byte-identical to their result
//       over the original campaign.
//
// Exit codes: 0 success; 1 runtime failure; 2 bad usage or malformed
// flags (a count out of its range included: --batch 0 is an error, not
// a 1-row batch); 3 load/IO failure (missing input, unreadable file); 4
// verification failure (golden mismatch, corrupt snapshot, ingest !=
// batch).
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <optional>
#include <string>
#include <thread>
#include <utility>

#include "analysis/incremental.h"
#include "analysis/query/source.h"
#include "ingest/replay.h"
#include "ingest/server.h"
#include "ingest/tcp.h"
#include "io/csv.h"
#include "io/shard_store.h"
#include "io/snapshot.h"
#include "io/table.h"
#include "report/golden.h"
#include "report/registry.h"
#include "report/runner.h"
#include "report/table.h"
#include "sim/simulator.h"
#include "sim/stream_runner.h"

using namespace tokyonet;

namespace {

constexpr int kExitOk = 0;
constexpr int kExitFailure = 1;
constexpr int kExitUsage = 2;
constexpr int kExitLoad = 3;
constexpr int kExitVerify = 4;

// The most shards `ingest` accepts. IngestServer starts one worker thread
// per shard in its constructor, so the cap is checked while parsing,
// before any thread starts.
constexpr int kMaxIngestShards = 256;

struct Args {
  std::string command;
  std::string subcommand;
  std::optional<int> year;
  double scale = 0.5;
  std::optional<std::uint64_t> seed;
  std::string in_dir;
  std::string out_dir;
  std::string shard_dir;
  // The K of DESIGN.md §5j: 0 = strict sequential shard scan, 1 =
  // prefetch one shard ahead, K >= 2 = scan K shards concurrently.
  // Defaults from TOKYONET_RESIDENT_SHARDS; --resident-shards overrides.
  std::size_t resident_shards = io::resident_shards_from_env(1);

  // fig flags
  std::string figure_id;
  std::string format = "text";
  std::string golden_dir = "tests/golden";
  bool update_goldens = false;
  bool check_goldens = false;
  bool ids_only = false;

  // ingest flags
  std::string host = "127.0.0.1";
  int port = 0;
  int shards = 4;
  int queue = 64;
  bool shed = false;
  int sessions = 1;
  double rate = 0.0;
  int batch = 512;
  int multiplier = 1;
  bool no_verify = false;
};

int usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  tokyonet fig list [--ids]\n"
               "  tokyonet fig run <id> [--year Y] [--scale S] [--seed N] "
               "[--format text|csv|json] [--shard-dir DIR] "
               "[--resident-shards K]\n"
               "  tokyonet fig all [--format text|csv|json] "
               "[--shard-dir DIR] [--resident-shards K]\n"
               "  tokyonet fig all --update-goldens|--check-goldens "
               "[--goldens DIR]\n"
               "  tokyonet simulate --year 2013|2014|2015 [--scale S] "
               "[--seed N] --out DIR\n"
               "  tokyonet report (--in DIR | --shard-dir DIR "
               "[--resident-shards K] | --year Y [--scale S])\n"
               "  tokyonet years [--scale S]\n"
               "  tokyonet snapshot save --year Y [--scale S] [--seed N] "
               "--out FILE\n"
               "  tokyonet snapshot shard --year Y [--scale S] [--seed N] "
               "--out DIR [--shards N]\n"
               "  tokyonet snapshot load --in FILE\n"
               "  tokyonet snapshot info --in PATH\n"
               "  tokyonet snapshot warm [--scale S]   "
               "(needs TOKYONET_CACHE_DIR)\n"
               "  tokyonet ingest serve --port P [--host H] [--shards N] "
               "[--queue N] [--shed] [--sessions N]\n"
               "  tokyonet ingest replay --year Y --port P [--host H] "
               "[--scale S] [--seed N] [--rate R] [--batch B] "
               "[--multiplier M]\n"
               "  tokyonet ingest stats --year Y [--scale S] [--seed N] "
               "[--shards N] [--queue N] [--shed] [--rate R] [--batch B] "
               "[--multiplier M] [--no-verify]\n"
               "ingest --shards is 1..%d; --queue, --sessions, --batch and "
               "--multiplier are at least 1\n"
               "exit codes: 0 ok, 1 failure, 2 usage, 3 load/IO, "
               "4 verification\n",
               kMaxIngestShards);
  return kExitUsage;
}

// Strict numeric flag parsing: the whole token must parse, so
// "--year 20x5" or "--scale abc" are rejected instead of silently
// truncating (the old std::atoi/atof behavior).
bool parse_int_flag(const char* flag, const char* value, int& out) {
  errno = 0;
  char* end = nullptr;
  const long parsed = std::strtol(value, &end, 10);
  if (end == value || *end != '\0' || errno == ERANGE || parsed < INT_MIN ||
      parsed > INT_MAX) {
    std::fprintf(stderr, "invalid integer for %s: '%s'\n", flag, value);
    return false;
  }
  out = static_cast<int>(parsed);
  return true;
}

// A count flag: an integer in [lo, hi]. A value outside the range is bad
// usage, never clamped into it.
bool parse_count_flag(const char* flag, const char* value, int lo, int hi,
                      int& out) {
  if (!parse_int_flag(flag, value, out)) return false;
  if (out < lo || out > hi) {
    if (hi == INT_MAX) {
      std::fprintf(stderr, "%s must be at least %d, got %d\n", flag, lo, out);
    } else {
      std::fprintf(stderr, "%s must be in %d..%d, got %d\n", flag, lo, hi,
                   out);
    }
    return false;
  }
  return true;
}

bool parse_u64_flag(const char* flag, const char* value, std::uint64_t& out) {
  errno = 0;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(value, &end, 10);
  if (end == value || *end != '\0' || errno == ERANGE || value[0] == '-') {
    std::fprintf(stderr, "invalid unsigned integer for %s: '%s'\n", flag,
                 value);
    return false;
  }
  out = static_cast<std::uint64_t>(parsed);
  return true;
}

bool parse_double_flag(const char* flag, const char* value, double& out) {
  errno = 0;
  char* end = nullptr;
  const double parsed = std::strtod(value, &end);
  if (end == value || *end != '\0' || errno == ERANGE) {
    std::fprintf(stderr, "invalid number for %s: '%s'\n", flag, value);
    return false;
  }
  out = parsed;
  return true;
}

bool parse_args(int argc, char** argv, Args& args) {
  if (argc < 2) return false;
  args.command = argv[1];
  int first_flag = 2;
  if (args.command == "snapshot" || args.command == "ingest" ||
      args.command == "fig") {
    if (argc < 3) return false;
    args.subcommand = argv[2];
    first_flag = 3;
  }
  for (int i = first_flag; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (!flag.empty() && flag[0] != '-') {
      // The only positional operand is `fig run <id>`.
      if (args.command == "fig" && args.subcommand == "run" &&
          args.figure_id.empty()) {
        args.figure_id = flag;
        continue;
      }
      std::fprintf(stderr, "unexpected argument: %s\n", flag.c_str());
      return false;
    }
    if (flag == "--year") {
      const char* v = next();
      if (v == nullptr) return false;
      int year = 0;
      if (!parse_int_flag("--year", v, year)) return false;
      args.year = year;
    } else if (flag == "--scale") {
      const char* v = next();
      if (v == nullptr) return false;
      if (!parse_double_flag("--scale", v, args.scale)) return false;
    } else if (flag == "--seed") {
      const char* v = next();
      if (v == nullptr) return false;
      std::uint64_t seed = 0;
      if (!parse_u64_flag("--seed", v, seed)) return false;
      args.seed = seed;
    } else if (flag == "--in") {
      const char* v = next();
      if (v == nullptr) return false;
      args.in_dir = v;
    } else if (flag == "--out") {
      const char* v = next();
      if (v == nullptr) return false;
      args.out_dir = v;
    } else if (flag == "--shard-dir") {
      const char* v = next();
      if (v == nullptr) return false;
      args.shard_dir = v;
    } else if (flag == "--resident-shards") {
      const char* v = next();
      if (v == nullptr) return false;
      int k = 0;
      if (!parse_count_flag("--resident-shards", v, 0, INT_MAX, k)) {
        return false;
      }
      args.resident_shards = static_cast<std::size_t>(k);
    } else if (flag == "--format") {
      const char* v = next();
      if (v == nullptr) return false;
      args.format = v;
    } else if (flag == "--goldens") {
      const char* v = next();
      if (v == nullptr) return false;
      args.golden_dir = v;
    } else if (flag == "--update-goldens") {
      args.update_goldens = true;
    } else if (flag == "--check-goldens") {
      args.check_goldens = true;
    } else if (flag == "--ids") {
      args.ids_only = true;
    } else if (flag == "--host") {
      const char* v = next();
      if (v == nullptr) return false;
      args.host = v;
    } else if (flag == "--port") {
      const char* v = next();
      if (v == nullptr) return false;
      if (!parse_count_flag("--port", v, 1, 65535, args.port)) return false;
    } else if (flag == "--shards") {
      const char* v = next();
      if (v == nullptr) return false;
      // An ingest server needs at least one shard; a store's 0 means
      // "size the shards automatically".
      const bool ingest = args.command == "ingest";
      if (!parse_count_flag("--shards", v, ingest ? 1 : 0,
                            ingest ? kMaxIngestShards : INT_MAX,
                            args.shards)) {
        return false;
      }
    } else if (flag == "--queue") {
      const char* v = next();
      if (v == nullptr) return false;
      if (!parse_count_flag("--queue", v, 1, INT_MAX, args.queue)) {
        return false;
      }
    } else if (flag == "--sessions") {
      const char* v = next();
      if (v == nullptr) return false;
      if (!parse_count_flag("--sessions", v, 1, INT_MAX, args.sessions)) {
        return false;
      }
    } else if (flag == "--rate") {
      const char* v = next();
      if (v == nullptr) return false;
      if (!parse_double_flag("--rate", v, args.rate)) return false;
    } else if (flag == "--batch") {
      const char* v = next();
      if (v == nullptr) return false;
      if (!parse_count_flag("--batch", v, 1, INT_MAX, args.batch)) {
        return false;
      }
    } else if (flag == "--multiplier") {
      const char* v = next();
      if (v == nullptr) return false;
      if (!parse_count_flag("--multiplier", v, 1, INT_MAX, args.multiplier)) {
        return false;
      }
    } else if (flag == "--shed") {
      args.shed = true;
    } else if (flag == "--no-verify") {
      args.no_verify = true;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", flag.c_str());
      return false;
    }
  }
  return true;
}

std::optional<Year> to_year(int y) {
  if (y < 2013 || y > 2015) return std::nullopt;
  return static_cast<Year>(y - 2013);
}

report::Runner::Options runner_options(const Args& args) {
  report::Runner::Options opt;
  opt.scale = args.scale;
  opt.seed = args.seed;
  opt.announce_cache = true;
  return opt;
}

// A snapshot (or shard store) that isn't there, or that another
// snapshot version wrote, is a load error (3): this build cannot read
// it. One that exists but fails header/checksum validation is a
// verification error (4).
int snapshot_failure_code(const std::string& path, const std::string& error) {
  std::error_code ec;
  const bool other_version =
      error.find("unsupported snapshot version") != std::string::npos;
  return std::filesystem::exists(path, ec) && !other_version ? kExitVerify
                                                             : kExitLoad;
}

// Installs the campaign held by shard directory `dir` into `runner` as
// a query::ShardedSource the figures scan with bounded memory, and
// reports its year. Returns kExitOk or the exit code to fail with.
int adopt_shard_dir(report::Runner& runner, const std::string& dir,
                    std::size_t resident_shards, Year& out_year) {
  io::ShardManifest m;
  const io::SnapshotResult r = io::read_shard_manifest(dir, m);
  if (!r.ok()) {
    std::fprintf(stderr, "shard store: %s\n", r.error.c_str());
    return snapshot_failure_code(dir, r.error);
  }
  const auto year = to_year(m.year);
  if (!year) {
    std::fprintf(stderr, "shard store %s: campaign year %d out of range\n",
                 dir.c_str(), m.year);
    return kExitVerify;
  }
  const io::SnapshotResult a =
      runner.adopt_shards_out_of_core(*year, dir, resident_shards);
  if (!a.ok()) {
    std::fprintf(stderr, "shard store: %s\n", a.error.c_str());
    return snapshot_failure_code(dir, a.error);
  }
  out_year = *year;
  return kExitOk;
}

// ---------------------------------------------------------------------
// fig: the figure registry.

std::string years_label(const report::FigureSpec& spec) {
  if (!spec.per_year()) return "longitudinal";
  std::string out;
  for (Year y : spec.years) {
    if (!out.empty()) out += ' ';
    out += std::string(to_string(y));
  }
  return out;
}

int cmd_fig_list(const Args& args) {
  const auto& registry = report::FigureRegistry::instance();
  if (args.ids_only) {
    for (const report::FigureSpec& spec : registry.figures()) {
      std::printf("%s\n", spec.id.c_str());
    }
    return kExitOk;
  }
  io::TextTable table({"id", "years", "ooc", "paper ref", "title"});
  for (const report::FigureSpec& spec : registry.figures()) {
    table.add_row({spec.id, years_label(spec), spec.per_year() ? "yes" : "-",
                   spec.paper_ref, spec.title});
  }
  table.print();
  std::printf("\n%zu reproductions; render one with "
              "`tokyonet fig run <id>`\n",
              registry.size());
  return kExitOk;
}

bool render_table(const report::Table& table, const std::string& format) {
  if (format == "text") {
    std::fputs(report::to_text(table).c_str(), stdout);
  } else if (format == "csv") {
    std::fputs(report::to_csv(table).c_str(), stdout);
  } else if (format == "json") {
    std::fputs(report::to_canonical_json(table).c_str(), stdout);
    std::printf("\n");
  } else {
    std::fprintf(stderr, "unknown --format '%s' (text|csv|json)\n",
                 format.c_str());
    return false;
  }
  return true;
}

int cmd_fig_run(const Args& args) {
  if (args.figure_id.empty()) return usage();
  const report::FigureSpec* spec =
      report::FigureRegistry::instance().find(args.figure_id);
  if (spec == nullptr) {
    std::fprintf(stderr,
                 "unknown figure id '%s'; see `tokyonet fig list`\n",
                 args.figure_id.c_str());
    return kExitUsage;
  }
  if (!args.shard_dir.empty() && !spec->per_year()) {
    // A longitudinal figure spans several campaigns; a store holds one.
    std::fprintf(stderr,
                 "%s is longitudinal; it cannot run over one campaign's "
                 "store\n",
                 spec->id.c_str());
    return kExitUsage;
  }
  std::optional<Year> year;
  if (args.year) {
    if (!spec->per_year()) {
      std::fprintf(stderr, "%s is longitudinal; it takes no --year\n",
                   spec->id.c_str());
      return kExitUsage;
    }
    year = to_year(*args.year);
    if (!year) {
      std::fprintf(stderr, "year must be 2013..2015\n");
      return kExitUsage;
    }
  }
  report::Runner runner(runner_options(args));
  if (!args.shard_dir.empty()) {
    Year store_year;
    const int rc = adopt_shard_dir(runner, args.shard_dir,
                                   args.resident_shards, store_year);
    if (rc != kExitOk) return rc;
    if (year && *year != store_year) {
      // The other years would have to be simulated in memory, defeating
      // the bounded-memory point of a store.
      std::fprintf(stderr,
                   "--shard-dir renders the store's campaign year only\n");
      return kExitUsage;
    }
    // A per-year figure renders the store's campaign year instead of
    // stacking (the other years would have to be simulated).
    year = store_year;
  }
  const report::Table table = (spec->per_year() && !year)
                                  ? runner.run_stacked(*spec)
                                  : runner.run(*spec, year);
  return render_table(table, args.format) ? kExitOk : kExitUsage;
}

int cmd_fig_all(const Args& args) {
  if (args.update_goldens || args.check_goldens) {
    // Goldens are pinned at a fixed scale and the scenario's own seed;
    // --scale/--seed do not apply here.
    report::Runner::Options opt;
    opt.scale = report::kGoldenScale;
    report::Runner runner(opt);
    if (args.update_goldens) {
      const report::GoldenReport r =
          report::write_goldens(args.golden_dir, runner);
      for (const std::string& e : r.errors) {
        std::fprintf(stderr, "golden: %s\n", e.c_str());
      }
      std::printf("wrote %d golden files (%d figure renderings) to %s\n",
                  r.written, r.figures, args.golden_dir.c_str());
      return r.errors.empty() ? kExitOk : kExitLoad;
    }
    const report::GoldenReport r =
        report::check_goldens(args.golden_dir, runner);
    for (const std::string& e : r.errors) {
      std::fprintf(stderr, "golden: %s\n", e.c_str());
    }
    if (!r.ok()) {
      std::fprintf(stderr, "golden check FAILED: %d of %d renderings "
                   "mismatched under %s\n",
                   r.mismatched, r.figures, args.golden_dir.c_str());
      return kExitVerify;
    }
    std::printf("golden check OK: %d renderings match %s\n", r.figures,
                args.golden_dir.c_str());
    return kExitOk;
  }

  report::Runner runner(runner_options(args));
  std::optional<Year> store_year;
  if (!args.shard_dir.empty()) {
    Year y;
    const int rc =
        adopt_shard_dir(runner, args.shard_dir, args.resident_shards, y);
    if (rc != kExitOk) return rc;
    store_year = y;
  }
  const auto& registry = report::FigureRegistry::instance();
  bool first = true;
  for (const report::FigureSpec& spec : registry.figures()) {
    // Over a store, the catalog narrows to the figures for the store's
    // campaign year — the longitudinal ones would simulate the others.
    if (store_year && !spec.applies_to(*store_year)) continue;
    if (!first && args.format == "text") std::printf("\n");
    first = false;
    const report::Table table = store_year ? runner.run(spec, *store_year)
                                           : runner.run_stacked(spec);
    if (!render_table(table, args.format)) return kExitUsage;
  }
  return kExitOk;
}

int cmd_fig(const Args& args) {
  if (args.subcommand == "list") return cmd_fig_list(args);
  if (args.subcommand == "run") return cmd_fig_run(args);
  if (args.subcommand == "all") return cmd_fig_all(args);
  return usage();
}

// ---------------------------------------------------------------------
// simulate / report / years.

Dataset make_dataset(const Args& args, Year year) {
  ScenarioConfig config = scenario_config(year, args.scale);
  if (args.seed) config.seed = *args.seed;
  // Consults the on-disk campaign cache when TOKYONET_CACHE_DIR is set;
  // otherwise this is a plain simulation.
  sim::CampaignCacheStatus status;
  Dataset ds = sim::cached_campaign(config, &status);
  sim::announce_cache(status);
  return ds;
}

// The headline reproductions for one campaign year, rendered through
// the registry: dataset/panel overview, AP census, user types, offload
// opportunity, and (2015) the iOS update event. The same output whether
// the campaign is simulated, imported or scanned from a shard store.
// The whole report is rendered before any of it is written, so a store
// pass that fails (a SourceError, exit 4) leaves stdout empty.
void print_report(report::Runner& runner, Year year) {
  const analysis::query::DataSource& src = runner.analysis(year).source();
  char header[160];
  std::snprintf(header, sizeof(header),
                "dataset: %s campaign, %d days, %zu devices, %zu samples\n",
                std::string(to_string(src.year())).c_str(), src.num_days(),
                src.n_devices(), src.n_samples());
  std::string out = header;

  const auto& registry = report::FigureRegistry::instance();
  const auto render = [&](const char* id) {
    if (const report::FigureSpec* spec = registry.find(id)) {
      out += "\n" + report::to_text(runner.run(*spec, year));
    }
  };
  for (const char* id : {"table01", "table04", "fig05", "sec35_opportunity"}) {
    render(id);
  }
  if (year == Year::Y2015) render("fig18");
  out += "\n(full catalog: tokyonet fig list)\n";
  std::fputs(out.c_str(), stdout);
}

int cmd_simulate(const Args& args) {
  if (!args.year || args.out_dir.empty()) return usage();
  const auto year = to_year(*args.year);
  if (!year) {
    std::fprintf(stderr, "year must be 2013..2015\n");
    return kExitUsage;
  }
  const Dataset ds = make_dataset(args, *year);
  const io::CsvResult r = io::save_dataset_csv(ds, args.out_dir);
  if (!r.ok()) {
    std::fprintf(stderr, "export failed: %s\n", r.error.c_str());
    return kExitLoad;
  }
  std::printf("wrote %zu devices / %zu samples to %s\n", ds.devices.size(),
              ds.samples.size(), args.out_dir.c_str());
  return kExitOk;
}

int cmd_report(const Args& args) {
  report::Runner runner(runner_options(args));
  Year year;
  if (!args.shard_dir.empty()) {
    const int rc =
        adopt_shard_dir(runner, args.shard_dir, args.resident_shards, year);
    if (rc != kExitOk) return rc;
  } else if (!args.in_dir.empty()) {
    Dataset ds;
    const io::CsvResult r = io::load_dataset_csv(args.in_dir, ds);
    if (!r.ok()) {
      std::fprintf(stderr, "load failed: %s\n", r.error.c_str());
      return kExitLoad;
    }
    year = ds.year;
    runner.adopt(year, std::move(ds));
  } else if (args.year) {
    const auto y = to_year(*args.year);
    if (!y) {
      std::fprintf(stderr, "year must be 2013..2015\n");
      return kExitUsage;
    }
    year = *y;
  } else {
    return usage();
  }
  print_report(runner, year);
  return kExitOk;
}

int cmd_years(const Args& args) {
  report::Runner runner(runner_options(args));
  for (Year y : kAllYears) {
    std::printf("================ %s ================\n",
                std::string(to_string(y)).c_str());
    print_report(runner, y);
    std::printf("\n");
  }
  // The longitudinal figures reuse the campaigns already simulated by
  // the per-year reports above.
  const auto& registry = report::FigureRegistry::instance();
  for (const char* id : {"fig01", "table03"}) {
    if (const report::FigureSpec* spec = registry.find(id)) {
      std::fputs(report::to_text(runner.run(*spec, std::nullopt)).c_str(),
                 stdout);
      std::printf("\n");
    }
  }
  return kExitOk;
}

// ---------------------------------------------------------------------
// snapshot.

int cmd_snapshot_save(const Args& args) {
  if (!args.year || args.out_dir.empty()) return usage();
  const auto year = to_year(*args.year);
  if (!year) {
    std::fprintf(stderr, "year must be 2013..2015\n");
    return kExitUsage;
  }
  ScenarioConfig config = scenario_config(*year, args.scale);
  if (args.seed) config.seed = *args.seed;
  const Dataset ds = sim::Simulator(config).run();
  const io::SnapshotResult r =
      io::save_snapshot(ds, args.out_dir, scenario_hash(config));
  if (!r.ok()) {
    std::fprintf(stderr, "snapshot save failed: %s\n", r.error.c_str());
    return kExitLoad;
  }
  std::printf("wrote %zu devices / %zu samples to %s\n", ds.devices.size(),
              ds.samples.size(), args.out_dir.c_str());
  return kExitOk;
}

int cmd_snapshot_shard(const Args& args) {
  if (!args.year || args.out_dir.empty()) return usage();
  const auto year = to_year(*args.year);
  if (!year) {
    std::fprintf(stderr, "year must be 2013..2015\n");
    return kExitUsage;
  }
  ScenarioConfig config = scenario_config(*year, args.scale);
  if (args.seed) config.seed = *args.seed;
  sim::StreamCampaignOptions opts;
  opts.shards = static_cast<std::size_t>(args.shards);
  opts.announce = true;
  const sim::StreamCampaignResult r =
      sim::stream_campaign(config, args.out_dir, opts);
  if (!r.ok()) {
    std::fprintf(stderr, "snapshot shard failed: %s\n", r.error.c_str());
    return kExitLoad;
  }
  std::printf("streamed %" PRIu64 " devices / %" PRIu64 " samples to %s "
              "(%zu shards)\n",
              r.manifest.n_devices, r.manifest.n_samples,
              args.out_dir.c_str(), r.manifest.shards.size());
  return kExitOk;
}

int cmd_snapshot_load(const Args& args) {
  if (args.in_dir.empty()) return usage();
  Dataset ds;
  io::SnapshotInfo info;
  const io::SnapshotResult r = io::load_snapshot(args.in_dir, ds, {}, &info);
  if (!r.ok()) {
    std::fprintf(stderr, "snapshot load failed: %s\n", r.error.c_str());
    return snapshot_failure_code(args.in_dir, r.error);
  }
  std::printf("loaded %s: %s campaign, %d days, %zu devices, %zu samples "
              "(%s)\n",
              args.in_dir.c_str(), std::string(to_string(ds.year)).c_str(),
              ds.num_days(), ds.devices.size(), ds.samples.size(),
              info.mapped ? "mmap" : "owned read");
  return kExitOk;
}

// `snapshot info` on a shard directory: print the manifest, then check
// every shard file against it. A directory that exists but fails
// manifest or shard verification (truncated shard, missing manifest
// after a killed writer, checksum flip) exits 4; a missing path 3.
int cmd_shard_info(const Args& args) {
  io::ShardManifest m;
  const io::SnapshotResult r = io::read_shard_manifest(args.in_dir, m);
  if (!r.ok()) {
    std::fprintf(stderr, "snapshot info failed: %s\n", r.error.c_str());
    return snapshot_failure_code(args.in_dir, r.error);
  }
  std::printf("shard store %s\n", args.in_dir.c_str());
  std::printf("  store version  %u (snapshot v%u)\n", m.version,
              m.snapshot_version);
  std::printf("  campaign       %d (%04d-%02d-%02d, %d days)\n", m.year,
              m.start.year, m.start.month, m.start.day, m.num_days);
  std::printf("  devices        %" PRIu64 "\n", m.n_devices);
  std::printf("  aps            %" PRIu64 "\n", m.n_aps);
  std::printf("  samples        %" PRIu64 "\n", m.n_samples);
  std::printf("  app traffic    %" PRIu64 "\n", m.n_app_traffic);
  std::printf("  scenario hash  %016" PRIx64 "\n", m.scenario_hash);
  std::printf("  universe       %s (%" PRIu64 " bytes, %016" PRIx64 ")\n",
              m.universe_file.c_str(), m.universe_bytes,
              m.universe_checksum);
  std::printf("  shards         %zu\n", m.shards.size());
  std::printf("                 idx devices      count      samples"
              "        bytes       checksum\n");
  for (const io::ShardEntry& s : m.shards) {
    std::printf("                 %3u %10" PRIu64 " %10" PRIu64 " %12" PRIu64
                " %12" PRIu64 " %016" PRIx64 "  %s\n",
                s.index, s.device_begin, s.device_count, s.n_samples,
                s.file_bytes, s.header_checksum, s.file.c_str());
  }
  const io::SnapshotResult v = verify_shard_store(args.in_dir, m);
  if (!v.ok()) {
    std::fprintf(stderr, "shard store verify FAILED: %s\n", v.error.c_str());
    return kExitVerify;
  }
  std::printf("verify OK: universe + %zu shard files match the manifest\n",
              m.shards.size());
  return kExitOk;
}

int cmd_snapshot_info(const Args& args) {
  if (args.in_dir.empty()) return usage();
  std::error_code ec;
  if (std::filesystem::is_directory(args.in_dir, ec)) {
    return cmd_shard_info(args);
  }
  io::SnapshotInfo info;
  const io::SnapshotResult r = io::read_snapshot_info(args.in_dir, info);
  if (!r.ok()) {
    std::fprintf(stderr, "snapshot info failed: %s\n", r.error.c_str());
    return snapshot_failure_code(args.in_dir, r.error);
  }
  std::printf("snapshot %s\n", args.in_dir.c_str());
  std::printf("  version        %u\n", info.version);
  std::printf("  campaign       %d (%04d-%02d-%02d, %d days)\n", info.year,
              info.start.year, info.start.month, info.start.day,
              info.num_days);
  std::printf("  devices        %" PRIu64 "\n", info.n_devices);
  std::printf("  aps            %" PRIu64 "\n", info.n_aps);
  std::printf("  samples        %" PRIu64 "\n", info.n_samples);
  std::printf("  app traffic    %" PRIu64 "\n", info.n_app_traffic);
  std::printf("  scenario hash  %016" PRIx64 "\n", info.scenario_hash);
  std::printf("  file bytes     %" PRIu64 "\n", info.file_bytes);
  std::printf("  sections       id       offset        bytes       checksum\n");
  for (const io::SnapshotSection& s : info.sections) {
    std::printf("                 %2u %12" PRIu64 " %12" PRIu64
                " %016" PRIx64 "\n",
                s.id, s.offset, s.bytes, s.checksum);
  }
  return kExitOk;
}

int cmd_snapshot_warm(const Args& args) {
  if (io::cache_dir().empty()) {
    std::fprintf(stderr,
                 "snapshot warm needs TOKYONET_CACHE_DIR to be set\n");
    return kExitUsage;
  }
  int rc = kExitOk;
  for (Year y : kAllYears) {
    ScenarioConfig config = scenario_config(y, args.scale);
    if (args.seed) config.seed = *args.seed;
    sim::CampaignCacheStatus status;
    const Dataset ds = sim::cached_campaign(config, &status);
    sim::announce_cache(status);
    // A note means the save failed (the cache is still cold) or a stale
    // entry was replaced.
    if (!status.detail.empty()) rc = kExitLoad;
    std::printf("%s: %zu devices, %zu samples\n",
                std::string(to_string(y)).c_str(), ds.devices.size(),
                ds.samples.size());
  }
  return rc;
}

int cmd_snapshot(const Args& args) {
  if (args.subcommand == "save") return cmd_snapshot_save(args);
  if (args.subcommand == "shard") return cmd_snapshot_shard(args);
  if (args.subcommand == "load") return cmd_snapshot_load(args);
  if (args.subcommand == "info") return cmd_snapshot_info(args);
  if (args.subcommand == "warm") return cmd_snapshot_warm(args);
  return usage();
}

// ---------------------------------------------------------------------
// ingest.

ingest::IngestConfig ingest_config(const Args& args) {
  ingest::IngestConfig config;
  config.shards = args.shards;
  config.queue_capacity = static_cast<std::size_t>(args.queue);
  config.shed_on_overflow = args.shed;
  return config;
}

ingest::ReplayOptions replay_options(const Args& args) {
  ingest::ReplayOptions opts;
  opts.batch_records = static_cast<std::size_t>(args.batch);
  opts.rate_records_per_sec = args.rate;
  opts.device_multiplier = static_cast<std::uint32_t>(args.multiplier);
  return opts;
}

void print_ingest_summary(const ingest::IngestServer& server,
                          const analysis::StreamResult& r) {
  const ingest::IngestCounters c = server.counters();
  std::printf("sessions: %" PRIu64 " opened, %" PRIu64 " closed, %" PRIu64
              " failed\n",
              c.sessions_opened, c.sessions_closed, c.sessions_failed);
  std::printf("frames:   %" PRIu64 " accepted, %" PRIu64 " rejected, %" PRIu64
              " bytes\n",
              c.frames_accepted, c.frames_rejected, c.bytes_received);
  std::printf("commits:  %" PRIu64 " batches / %" PRIu64 " records / %" PRIu64
              " app records; shed %" PRIu64 " batches / %" PRIu64
              " records\n",
              c.batches_committed, c.records_committed,
              c.app_records_committed, c.batches_shed, c.records_shed);

  if (r.totals.n_samples > 0) {
    const double gb = 1024.0 * 1024.0 * 1024.0;
    std::printf("stream:   %" PRIu64 " samples; cellular %.2f GB down, "
                "WiFi %.2f GB down; WiFi-traffic ratio %.2f\n",
                r.totals.n_samples,
                static_cast<double>(r.totals.cell_rx) / gb,
                static_cast<double>(r.totals.wifi_rx) / gb,
                r.wifi_traffic.mean_ratio());
  }
}

int cmd_ingest_serve(const Args& args) {
  if (args.port <= 0) return usage();
  ingest::IngestServer server(ingest_config(args));
  ingest::TcpIngestListener listener(server);
  std::string error;
  if (!listener.start(args.host, static_cast<std::uint16_t>(args.port),
                      &error)) {
    std::fprintf(stderr, "ingest serve: %s\n", error.c_str());
    return kExitFailure;
  }
  const int want = args.sessions;
  std::printf("listening on %s:%u (%d shards, queue %d, %s); waiting for "
              "%d session%s\n",
              args.host.c_str(), listener.port(), server.config().shards,
              static_cast<int>(server.config().queue_capacity),
              server.config().shed_on_overflow ? "shed" : "block", want,
              want == 1 ? "" : "s");
  std::fflush(stdout);
  for (;;) {
    const ingest::IngestCounters c = server.counters();
    if (c.sessions_closed + c.sessions_failed >=
        static_cast<std::uint64_t>(want)) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  listener.stop();
  server.shutdown();
  print_ingest_summary(server, server.result());
  const ingest::IngestCounters c = server.counters();
  return c.sessions_failed > 0 ? kExitFailure : kExitOk;
}

int cmd_ingest_replay(const Args& args) {
  if (!args.year || args.port <= 0) return usage();
  const auto year = to_year(*args.year);
  if (!year) {
    std::fprintf(stderr, "year must be 2013..2015\n");
    return kExitUsage;
  }
  const Dataset ds = make_dataset(args, *year);

  ingest::TcpClientSink sink;
  std::string error;
  if (!sink.connect(args.host, static_cast<std::uint16_t>(args.port),
                    &error)) {
    std::fprintf(stderr, "ingest replay: %s\n", error.c_str());
    return kExitFailure;
  }
  ingest::ReplayStats stats;
  const bool ok = ingest::replay_dataset(ds, replay_options(args), sink,
                                         &stats);
  sink.close();
  std::printf("streamed %" PRIu64 " records / %" PRIu64 " frames / %" PRIu64
              " bytes in %.2fs (%.0f records/s)%s\n",
              stats.records, stats.frames, stats.bytes, stats.wall_seconds,
              stats.wall_seconds > 0
                  ? static_cast<double>(stats.records) / stats.wall_seconds
                  : 0.0,
              ok ? "" : " [aborted: server rejected the stream]");
  return ok ? kExitOk : kExitFailure;
}

int cmd_ingest_stats(const Args& args) {
  if (!args.year) return usage();
  const auto year = to_year(*args.year);
  if (!year) {
    std::fprintf(stderr, "year must be 2013..2015\n");
    return kExitUsage;
  }
  const Dataset ds = make_dataset(args, *year);

  ingest::IngestServer server(ingest_config(args));
  auto session = server.connect();
  ingest::SessionSink sink(*session);
  ingest::ReplayStats stats;
  const bool sent = ingest::replay_dataset(ds, replay_options(args), sink,
                                           &stats);
  const bool clean = sent && session->finish();
  if (!clean) {
    std::fprintf(stderr, "ingest stats: session failed: %s\n",
                 session->error().c_str());
  }
  server.shutdown();

  std::printf("replayed %" PRIu64 " records / %" PRIu64 " frames / %" PRIu64
              " bytes in %.2fs (%.0f records/s)\n",
              stats.records, stats.frames, stats.bytes, stats.wall_seconds,
              stats.wall_seconds > 0
                  ? static_cast<double>(stats.records) / stats.wall_seconds
                  : 0.0);
  const analysis::StreamResult result = server.result();
  print_ingest_summary(server, result);

  int rc = clean ? kExitOk : kExitFailure;
  const bool verify = !args.no_verify && args.multiplier <= 1 && !args.shed;
  if (verify && clean) {
    const std::string diff = analysis::compare_stream_results(
        result, analysis::batch_stream_result(ds));
    if (diff.empty()) {
      std::printf("verify:   ingest == batch (byte-identical)\n");
    } else {
      std::fprintf(stderr, "verify: MISMATCH: %s\n", diff.c_str());
      rc = kExitVerify;
    }
  }
  return rc;
}

int cmd_ingest(const Args& args) {
  if (args.subcommand == "serve") return cmd_ingest_serve(args);
  if (args.subcommand == "replay") return cmd_ingest_replay(args);
  if (args.subcommand == "stats") return cmd_ingest_stats(args);
  return usage();
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) return usage();
  try {
    if (args.command == "fig") return cmd_fig(args);
    if (args.command == "simulate") return cmd_simulate(args);
    if (args.command == "report") return cmd_report(args);
    if (args.command == "years") return cmd_years(args);
    if (args.command == "snapshot") return cmd_snapshot(args);
    if (args.command == "ingest") return cmd_ingest(args);
  } catch (const analysis::query::SourceError& e) {
    // An out-of-core scan lost its store mid-figure (truncated shard,
    // checksum flip, deleted file): load/verify semantics, not a crash.
    std::fprintf(stderr, "tokyonet: %s\n", e.what());
    return args.shard_dir.empty()
               ? kExitLoad
               : snapshot_failure_code(args.shard_dir, e.what());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tokyonet: %s\n", e.what());
    return kExitFailure;
  }
  return usage();
}
