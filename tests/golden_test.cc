// Golden-file regression over the whole figure catalog: every
// registered figure, for every applicable campaign year, rendered to
// canonical JSON at the pinned golden scale, must byte-match the files
// under tests/golden/. The kernels are byte-identical at any thread
// count, so CMake registers this binary twice (golden_threads1 /
// golden_threads4) with different TOKYONET_THREADS values.
//
// After an intentional analysis change, regenerate the files with
//   tokyonet fig all --update-goldens --goldens tests/golden
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "core/scenario.h"
#include "io/shard_store.h"
#include "report/golden.h"
#include "report/registry.h"
#include "report/runner.h"
#include "report/table.h"
#include "sim/stream_runner.h"
#include "testutil.h"

#ifndef TOKYONET_GOLDEN_DIR
#error "TOKYONET_GOLDEN_DIR must name the pinned golden directory"
#endif

namespace tokyonet::report {
namespace {

TEST(Golden, EveryFigureMatchesItsGoldenFile) {
  Runner::Options opt;
  opt.scale = kGoldenScale;
  Runner runner(opt);
  const GoldenReport report = check_goldens(TOKYONET_GOLDEN_DIR, runner);
  for (const std::string& error : report.errors) {
    ADD_FAILURE() << error;
  }
  EXPECT_TRUE(report.ok());
  // One rendering per (figure, applicable year) combination; a new
  // figure must come with a regenerated golden set.
  EXPECT_EQ(report.figures, 75);
}

// The out-of-core backend against the same pinned files: every per-year
// figure, rendered from a sharded store via
// Runner::adopt_shards_out_of_core (scanned shard by shard),
// must byte-match the golden its in-memory rendering is pinned to.
// CMake registers this as golden_query_threads{1,4}.
TEST(GoldenQuery, OutOfCoreFiguresMatchGoldens) {
  namespace fs = std::filesystem;
  const test::ScratchDir scratch;
  const fs::path& root = scratch.path;

  int renderings = 0;
  for (const Year year : kAllYears) {
    const ScenarioConfig config = scenario_config(year, kGoldenScale);
    const fs::path dir = root / std::string(to_string(year));
    sim::StreamCampaignOptions opts;
    opts.shards = 4;
    const sim::StreamCampaignResult w =
        sim::stream_campaign(config, dir, opts);
    ASSERT_TRUE(w.ok()) << w.error;

    Runner runner;
    const io::SnapshotResult a = runner.adopt_shards_out_of_core(year, dir);
    ASSERT_TRUE(a.ok()) << a.error;
    for (const FigureSpec& spec : FigureRegistry::instance().figures()) {
      if (!spec.applies_to(year)) continue;
      const fs::path golden = fs::path(TOKYONET_GOLDEN_DIR) /
                              golden_filename(spec, year);
      std::ifstream in(golden, std::ios::binary);
      ASSERT_TRUE(in) << "missing golden " << golden;
      std::ostringstream expected;
      expected << in.rdbuf();
      EXPECT_EQ(to_canonical_json(runner.run(spec, year)), expected.str())
          << spec.id << " (" << year_number(year) << ")";
      ++renderings;
    }
  }
  // Every per-year (figure, year) combination in the catalog: all 75
  // renderings but the two longitudinal ones (fig01, table03).
  EXPECT_EQ(renderings, 73);
}

}  // namespace
}  // namespace tokyonet::report
