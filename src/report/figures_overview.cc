// Dataset overview and survey tables (Tables 1, 2, 8, 9). All are
// per-year; stacking the three years reproduces the paper's layouts.
#include "analysis/context.h"
#include "analysis/surveytab.h"
#include "analysis/volumes.h"
#include "report/battery.h"
#include "report/figures.h"
#include "report/registry.h"
#include "report/runner.h"

namespace tokyonet::report {

Table render_table01(Year year, int num_days,
                     const analysis::DatasetOverview& o) {
  static const char* kPaperLte[] = {"25%", "70%", "80%"};

  Table t({"year", "days", "android", "ios", "total", "LTE share",
           "paper LTE"});
  t.add_row({Value::integer(year_number(year)), Value::integer(num_days),
             Value::integer(o.n_android), Value::integer(o.n_ios),
             Value::integer(o.n_total), Value::pct(o.lte_traffic_share, 0),
             Value::text(kPaperLte[static_cast<int>(year)])});
  t.notes.push_back("paper panel: 1755 / 1676 / 1616 devices");
  return t;
}

namespace {

constexpr Year kEveryYear[] = {Year::Y2013, Year::Y2014, Year::Y2015};

Table table01(const FigureContext& ctx) {
  const auto& src = ctx.source();
  return render_table01(ctx.year(), src.num_days(), analysis::overview(src));
}

Table table02(const FigureContext& ctx) {
  const analysis::Demographics d = analysis::demographics(
      ctx.analysis().devices(), ctx.analysis().survey());
  Table t({"year", "occupation", "share [%]"});
  for (int o = 0; o < kNumOccupations; ++o) {
    t.add_row({Value::integer(year_number(ctx.year())),
               Value::text(std::string(to_string(static_cast<Occupation>(o)))),
               Value::real(d.percent[static_cast<std::size_t>(o)], 1)});
  }
  t.notes.push_back(strf("respondents: %d", d.respondents));
  return t;
}

Table table08(const FigureContext& ctx) {
  const analysis::SurveyApUsage u = analysis::survey_ap_usage(
      ctx.analysis().devices(), ctx.analysis().survey());
  static const char* kPaperYes[] = {"70.4/72.9/78.2", "31.6/25.6/28.0",
                                    "44.9/47.9/53.6"};
  Table t({"year", "location", "answer", "share [%]", "paper yes"});
  for (int loc = 0; loc < kNumSurveyLocations; ++loc) {
    const auto l = static_cast<std::size_t>(loc);
    const std::string name{to_string(static_cast<SurveyLocation>(loc))};
    const Value year = Value::integer(year_number(ctx.year()));
    t.add_row({year, Value::text(name), Value::text("yes"),
               Value::real(u.yes[l], 1), Value::text(kPaperYes[loc])});
    t.add_row({year, Value::text(name), Value::text("no"),
               Value::real(u.no[l], 1), Value()});
    t.add_row({year, Value::text(name), Value::text("NA"),
               Value::real(u.not_answered[l], 1), Value()});
  }
  return t;
}

Table table09(const FigureContext& ctx) {
  const analysis::SurveyReasons r = analysis::survey_reasons(
      ctx.analysis().devices(), ctx.analysis().survey());
  Table t({"year", "location", "reason", "share [%]"});
  for (int loc = 0; loc < kNumSurveyLocations; ++loc) {
    const auto l = static_cast<std::size_t>(loc);
    const std::string name{to_string(static_cast<SurveyLocation>(loc))};
    for (int reason = 0; reason < kNumSurveyReasons; ++reason) {
      const auto re = static_cast<std::size_t>(reason);
      // Two answers only entered the questionnaire in 2014.
      const bool asked =
          ctx.year() != Year::Y2013 ||
          (reason != static_cast<int>(SurveyReason::SecurityIssue) &&
           reason != static_cast<int>(SurveyReason::LteIsEnough));
      t.add_row(
          {Value::integer(year_number(ctx.year())), Value::text(name),
           Value::text(std::string(to_string(static_cast<SurveyReason>(reason)))),
           asked ? Value::real(r.percent[l][re], 0) : Value()});
    }
    t.notes.push_back(strf("%s respondents: %d", name.c_str(),
                           r.respondents[l]));
  }
  t.notes.push_back(
      "paper trends: configuration pain shrinks (SIM-auth rollout); "
      "public-WiFi security concern grows to 35% by 2015; battery "
      "worries fade; 'LTE is enough' appears from 2014");
  return t;
}

}  // namespace

void register_overview_figures(FigureRegistry& r) {
  r.add({"table01", "dataset overview: devices per OS and LTE share",
         "Table 1 (dataset overview)",
         {kEveryYear[0], kEveryYear[1], kEveryYear[2]}, &table01});
  r.add({"table02", "user-survey demographics (occupation mix)",
         "Table 2 (user demographics)",
         {kEveryYear[0], kEveryYear[1], kEveryYear[2]}, &table02});
  r.add({"table08", "survey: self-reported WiFi AP usage per location",
         "Table 8 (survey: associated WiFi APs)",
         {kEveryYear[0], kEveryYear[1], kEveryYear[2]}, &table08});
  r.add({"table09", "survey: reasons for WiFi unavailability per location",
         "Table 9 (survey: reasons for unavailability)",
         {kEveryYear[0], kEveryYear[1], kEveryYear[2]}, &table09});
}

}  // namespace tokyonet::report
