// Tests for the report layer: the typed result model (Value/Table),
// the three emitters (text / CSV / canonical JSON), the figure
// registry's catalog invariants, and spot-check equivalence between
// registry renderings and the underlying analysis kernels.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <string>

#include "analysis/classify.h"
#include "analysis/context.h"
#include "analysis/macro.h"
#include "analysis/volumes.h"
#include "core/records.h"
#include "report/golden.h"
#include "report/registry.h"
#include "report/runner.h"
#include "report/table.h"

namespace tokyonet::report {
namespace {

TEST(Value, RendersTextByKind) {
  EXPECT_EQ(Value().render_text(), "-");
  EXPECT_EQ(Value::text("abc").render_text(), "abc");
  EXPECT_EQ(Value::integer(-42).render_text(), "-42");
  EXPECT_EQ(Value::real(3.14159, 2).render_text(), "3.14");
  EXPECT_EQ(Value::pct(0.421, 1).render_text(), "42.1%");
}

TEST(Value, JsonEmitsRawScalars) {
  std::string out;
  Value::pct(0.5, 1).append_json(out);  // the raw fraction, not "50.0%"
  EXPECT_EQ(out, "0.5");
  out.clear();
  Value().append_json(out);
  EXPECT_EQ(out, "null");
  out.clear();
  Value::real(std::nan(""), 2).append_json(out);  // non-finite -> null
  EXPECT_EQ(out, "null");
  out.clear();
  Value::text("a\"b\\c\n").append_json(out);
  EXPECT_EQ(out, "\"a\\\"b\\\\c\\n\"");
}

TEST(FormatDouble, ShortestFormRoundTrips) {
  const double cases[] = {0.1,     1.0 / 3.0, 57.9, 1e-12, -0.0001,
                          2.5e17,  123456789.123456};
  for (const double v : cases) {
    const std::string s = format_double(v);
    EXPECT_EQ(std::strtod(s.c_str(), nullptr), v) << s;
  }
}

TEST(Table, CanonicalJsonSortsKeysAndPinsRowLayout) {
  Table t({"name", "n"});
  t.id = "fig99";
  t.title = "a title";
  t.paper_ref = "Fig 99";
  t.year = 2015;
  t.notes.push_back("note 1");
  t.add_row({Value::text("a"), Value::integer(1)});
  const std::string json = to_canonical_json(t);

  // Object keys appear in sorted order, each on its own line.
  const char* keys[] = {"\"columns\"", "\"id\"",    "\"notes\"",
                        "\"paper_ref\"", "\"rows\"", "\"title\"",
                        "\"year\""};
  std::size_t pos = 0;
  for (const char* key : keys) {
    const std::size_t at = json.find(key, pos);
    ASSERT_NE(at, std::string::npos) << key;
    pos = at;
  }
  EXPECT_NE(json.find("[\"a\", 1]"), std::string::npos);
  EXPECT_NE(json.find("\"year\": 2015"), std::string::npos);

  // Longitudinal tables still carry the key, as null.
  t.year.reset();
  EXPECT_NE(to_canonical_json(t).find("\"year\": null"), std::string::npos);
}

TEST(Table, CsvQuotesSpecialCells) {
  Table t({"a,b", "v"});
  t.add_row({Value::text("x\"y"), Value::real(0.5, 1)});
  EXPECT_EQ(to_csv(t), "\"a,b\",v\n\"x\"\"y\",0.5\n");
}

TEST(Registry, CatalogIsCompleteSortedAndUnique) {
  const FigureRegistry& r = FigureRegistry::instance();
  EXPECT_EQ(r.size(), 35u);
  std::string prev;
  for (const FigureSpec& spec : r.figures()) {
    EXPECT_LT(prev, spec.id);  // strictly increasing => sorted, unique
    prev = spec.id;
    EXPECT_NE(spec.fn, nullptr) << spec.id;
    EXPECT_FALSE(spec.title.empty()) << spec.id;
    EXPECT_FALSE(spec.paper_ref.empty()) << spec.id;
  }
  ASSERT_NE(r.find("fig06"), nullptr);
  EXPECT_TRUE(r.find("fig06")->applies_to(Year::Y2013));
  EXPECT_FALSE(r.find("fig06")->applies_to(Year::Y2014));
  EXPECT_EQ(r.find("no-such-figure"), nullptr);
}

TEST(Golden, FilenamesEncodeTheYear) {
  const FigureRegistry& r = FigureRegistry::instance();
  EXPECT_EQ(golden_filename(*r.find("fig06"), Year::Y2013),
            "fig06_2013.json");
  EXPECT_EQ(golden_filename(*r.find("fig01"), std::nullopt), "fig01.json");
}

// Spot-check that registry renderings carry exactly the numbers the
// analysis kernels produce (same memoized context, no drift between
// the figure layer and the kernels).
class RunnerEquivalence : public ::testing::Test {
 protected:
  static Runner& runner() {
    static Runner r([] {
      Runner::Options opt;
      opt.scale = 0.05;
      return opt;
    }());
    return r;
  }
};

TEST_F(RunnerEquivalence, Table01MatchesOverviewKernel) {
  const FigureSpec* spec = FigureRegistry::instance().find("table01");
  ASSERT_NE(spec, nullptr);
  const Table t = runner().run(*spec, Year::Y2015);
  const analysis::DatasetOverview ov =
      analysis::overview(runner().analysis(Year::Y2015).source());
  ASSERT_EQ(t.num_rows(), 1u);
  EXPECT_EQ(t.at(0, 2).as_int(), ov.n_android);
  EXPECT_EQ(t.at(0, 3).as_int(), ov.n_ios);
  EXPECT_EQ(t.at(0, 4).as_int(), ov.n_android + ov.n_ios);
  EXPECT_EQ(t.at(0, 5).as_real(), ov.lte_traffic_share);
  EXPECT_EQ(t.year, 2015);
  EXPECT_EQ(t.id, "table01");
}

TEST_F(RunnerEquivalence, Table04MatchesClassifierCounts) {
  const FigureSpec* spec = FigureRegistry::instance().find("table04");
  ASSERT_NE(spec, nullptr);
  const Table t = runner().run(*spec, Year::Y2015);
  const analysis::ApClassification::Counts c =
      runner().analysis(Year::Y2015).classification().counts();
  ASSERT_EQ(t.num_rows(), 5u);
  EXPECT_EQ(t.at(0, 2).as_int(), c.home);
  EXPECT_EQ(t.at(1, 2).as_int(), c.publik);
  EXPECT_EQ(t.at(2, 2).as_int(), c.other);
  EXPECT_EQ(t.at(4, 2).as_int(), c.total);
}

TEST_F(RunnerEquivalence, Fig01MatchesMacroGrowthSeries) {
  const FigureSpec* spec = FigureRegistry::instance().find("fig01");
  ASSERT_NE(spec, nullptr);
  const Table t = runner().run(*spec, std::nullopt);
  const auto series = analysis::macro_growth_series(1);
  ASSERT_EQ(t.num_rows(), series.size());
  EXPECT_EQ(t.at(0, 1).as_real(), series.front().rbb_gbps);
  EXPECT_EQ(t.at(series.size() - 1, 2).as_real(), series.back().cell_gbps);
  EXPECT_FALSE(t.year.has_value());
}

TEST_F(RunnerEquivalence, StackedRenderingIsByteStable) {
  const FigureSpec* spec = FigureRegistry::instance().find("table01");
  ASSERT_NE(spec, nullptr);
  EXPECT_EQ(to_canonical_json(runner().run_stacked(*spec)),
            to_canonical_json(runner().run_stacked(*spec)));
}

TEST_F(RunnerEquivalence, PerYearMismatchThrows) {
  const FigureRegistry& r = FigureRegistry::instance();
  EXPECT_THROW((void)runner().run(*r.find("fig01"), Year::Y2015),
               std::invalid_argument);
  EXPECT_THROW((void)runner().run(*r.find("table01"), std::nullopt),
               std::invalid_argument);
}

}  // namespace
}  // namespace tokyonet::report
