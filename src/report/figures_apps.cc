// Application-category tables (Tables 6-7): top categories per traffic
// context, ranked by download or upload volume.
#include "analysis/apps.h"
#include "report/figures.h"
#include "report/registry.h"
#include "report/runner.h"

namespace tokyonet::report {
namespace {

Table app_table(const FigureContext& ctx, bool rx) {
  const analysis::AppBreakdown b = analysis::app_breakdown(
      ctx.source(), ctx.analysis().classification(),
      ctx.analysis().home_cells());

  static const char* kContexts[] = {"Cell home", "Cell other", "WiFi home",
                                    "WiFi public"};
  Table t({"year", "context", "rank", "category", "share [%]"});
  for (int c = 0; c < analysis::kNumAppContexts; ++c) {
    const auto top = b.top(static_cast<analysis::AppContext>(c), rx, 5);
    for (std::size_t rank = 0; rank < top.size(); ++rank) {
      t.add_row({Value::integer(year_number(ctx.year())),
                 Value::text(kContexts[c]),
                 Value::integer(static_cast<long long>(rank) + 1),
                 Value::text(std::string(to_string(top[rank].category))),
                 Value::real(100 * top[rank].share, 2)});
    }
  }
  return t;
}

Table table06(const FigureContext& ctx) {
  Table t = app_table(ctx, /*rx=*/true);
  t.notes.push_back(
      "paper highlights: browser leads cellular everywhere; video jumps "
      "to 30.4% of WiFi-home RX in 2014; downloads surge on public WiFi "
      "(22.5% in 2014)");
  return t;
}

Table table07(const FigureContext& ctx) {
  Table t = app_table(ctx, /*rx=*/false);
  t.notes.push_back(
      "paper highlights: social/communication upload-heavy on cellular; "
      "productivity (online storage, WiFi-gated sync) peaks at 39.5% of "
      "WiFi-home TX in 2014");
  return t;
}

}  // namespace

void register_app_figures(FigureRegistry& r) {
  r.add({"table06", "top app categories by download (RX) volume per context",
         "Table 6 (top app categories by RX volume)",
         {Year::Y2013, Year::Y2014, Year::Y2015}, &table06});
  r.add({"table07", "top app categories by upload (TX) volume per context",
         "Table 7 (top app categories by TX volume)",
         {Year::Y2013, Year::Y2014, Year::Y2015}, &table07});
}

}  // namespace tokyonet::report
