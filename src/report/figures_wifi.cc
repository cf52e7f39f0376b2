// WiFi usage figures (Figs 10-14, Tables 4-5): AP density, traffic by
// AP location, APs per day, association durations, 5 GHz share, and the
// AP classification tables.
#include <array>
#include <map>

#include "analysis/aggregate.h"
#include "analysis/classify.h"
#include "analysis/query/source.h"
#include "analysis/quality.h"
#include "analysis/wifiusage.h"
#include "geo/region.h"
#include "report/figures.h"
#include "report/registry.h"
#include "report/runner.h"
#include "stats/descriptive.h"
#include "stats/distribution.h"

namespace tokyonet::report {

namespace {

Table render_table04(Year year_, const analysis::ApClassification& cls) {
  const analysis::ApClassification::Counts c = cls.counts();

  Table t({"year", "type", "APs", "paper '13/'14/'15"});
  const Value year = Value::integer(year_number(year_));
  t.add_row({year, Value::text("home"), Value::integer(c.home),
             Value::text("1139/1223/1289")});
  t.add_row({year, Value::text("public"), Value::integer(c.publik),
             Value::text("5041/9302/10481")});
  t.add_row({year, Value::text("other"), Value::integer(c.other),
             Value::text("545/673/664")});
  t.add_row({year, Value::text("(office)"), Value::integer(c.office),
             Value::text("166/168/166")});
  t.add_row({year, Value::text("total"), Value::integer(c.total),
             Value::text("6725/11198/12434")});
  t.notes.push_back(strf(
      "users with inferred home AP: %.0f%%   [paper 66%% / 73%% / 79%%]",
      100 * cls.home_ap_device_share()));
  return t;
}

Table fig10(const FigureContext& ctx) {
  const geo::TokyoRegion region;
  const int cells = region.grid().num_cells();
  constexpr ApClass kClasses[] = {ApClass::Home, ApClass::Public};

  // Both density maps in one pass.
  analysis::query::Sweep sweep(ctx.source());
  std::vector<analysis::query::Pending<analysis::ApDensityMap>> maps;
  for (const ApClass c : kClasses) {
    maps.push_back(analysis::ap_density_map(
        sweep, ctx.analysis().classification(), c, cells));
  }
  sweep.run();

  Table t({"year", "AP class", "cells >= 1 AP", "cells >= 100 APs",
           "max APs per cell"});
  for (std::size_t i = 0; i < maps.size(); ++i) {
    const analysis::ApDensityMap& m = maps[i].get();
    t.add_row({Value::integer(year_number(ctx.year())),
               Value::text(std::string(to_string(kClasses[i]))),
               Value::integer(m.cells_with_ap), Value::integer(m.cells_with_100),
               Value::integer(m.max_count)});
  }
  t.notes.push_back(
      "paper: public cells with >=1 AP grow 229 -> 265; cells with >100 "
      "APs grow 10 -> 23");
  return t;
}

Table fig11(const FigureContext& ctx) {
  const auto& src = ctx.source();
  const auto& cls = ctx.analysis().classification();

  // Six series and the location shares in one pass.
  analysis::query::Sweep sweep(src);
  const auto series = [&](analysis::LocationFilter filter, bool rx) {
    return analysis::location_series(sweep, cls, filter, rx);
  };
  const auto home_rx = series({ApClass::Home, false}, true);
  const auto home_tx = series({ApClass::Home, false}, false);
  const auto pub_rx = series({ApClass::Public, false}, true);
  const auto pub_tx = series({ApClass::Public, false}, false);
  const auto off_rx = series({ApClass::Other, true}, true);
  const auto off_tx = series({ApClass::Other, true}, false);
  const auto shares = analysis::wifi_location_shares(sweep, cls);
  sweep.run();

  Table t({"year", "date", "hour", "Home RX", "Home TX", "Public RX",
           "Public TX", "Office RX", "Office TX"});
  for (int day = 0; day < 8 && day < src.num_days(); ++day) {
    for (int hour = 0; hour < 24; hour += 6) {
      const auto i = static_cast<std::size_t>(day * 24 + hour);
      t.add_row({Value::integer(year_number(ctx.year())),
                 Value::text(src.calendar().day_label(day)),
                 Value::text(std::to_string(hour) + ":00"),
                 Value::real(home_rx.get().mbps[i], 2),
                 Value::real(home_tx.get().mbps[i], 2),
                 Value::real(pub_rx.get().mbps[i], 3),
                 Value::real(pub_tx.get().mbps[i], 3),
                 Value::real(off_rx.get().mbps[i], 3),
                 Value::real(off_tx.get().mbps[i], 3)});
    }
  }

  const analysis::WifiLocationShares& s = shares.get();
  t.notes.push_back(strf(
      "WiFi volume shares: home %.1f%%, public %.1f%%, office %.1f%%, "
      "other %.1f%%   [paper 2015: home 95%%, public+office ~4%%]",
      100 * s.home, 100 * s.publik, 100 * s.office, 100 * s.other));
  return t;
}

Table fig12(const FigureContext& ctx) {
  const analysis::ApsPerDay a =
      analysis::aps_per_day(ctx.source(), ctx.analysis().days(),
                            ctx.analysis().classifier());
  static const char* kClasses[] = {"all", "heavy", "light"};

  Table t({"year", "class", "1 AP", "2 APs", "3 APs", "4+ APs"});
  for (int c = 0; c < 3; ++c) {
    const auto& share = a.share[static_cast<std::size_t>(c)];
    t.add_row({Value::integer(year_number(ctx.year())),
               Value::text(kClasses[c]), Value::pct(share[0], 0),
               Value::pct(share[1], 0), Value::pct(share[2], 0),
               Value::pct(share[3], 0)});
  }
  t.notes.push_back(
      "paper: 70% of users touch one AP per day in 2013, dropping ~10 "
      "points by 2015; heavy vs light show no significant mobility "
      "difference");
  return t;
}

Table fig13(const FigureContext& ctx) {
  const analysis::AssociationDurations d = analysis::association_durations(
      ctx.source(), ctx.analysis().classification());
  const stats::Ecdf home(d.home_hours);
  const stats::Ecdf office(d.office_hours);
  const stats::Ecdf pub(d.public_hours);

  Table t({"year", "hours", "CCDF home", "CCDF office", "CCDF public"});
  for (const double hours : {0.2, 0.5, 1.0, 2.0, 4.0, 8.0, 12.0, 24.0, 48.0}) {
    t.add_row({Value::integer(year_number(ctx.year())), Value::real(hours, 1),
               Value::real(home.ccdf(hours), 4),
               Value::real(office.ccdf(hours), 4),
               Value::real(pub.ccdf(hours), 4)});
  }
  t.notes.push_back(strf(
      "90th percentiles: home %.1f h, office %.1f h, public %.1f h   "
      "[paper 2015: 12 h / 8 h / 1 h]",
      stats::percentile(d.home_hours, 90), stats::percentile(d.office_hours, 90),
      stats::percentile(d.public_hours, 90)));
  return t;
}

Table fig14(const FigureContext& ctx) {
  const analysis::BandFractions f = analysis::band_fractions(
      ctx.source(), ctx.analysis().classification());

  Table t({"year", "location", "5 GHz share", "paper 2015"});
  const Value year = Value::integer(year_number(ctx.year()));
  t.add_row({year, Value::text("home"), Value::pct(f.home, 0),
             Value::text("<20%")});
  t.add_row({year, Value::text("office"), Value::pct(f.office, 0),
             Value::text("<20%")});
  t.add_row({year, Value::text("public"), Value::pct(f.publik, 0),
             Value::text(">50%")});
  t.notes.push_back(
      "paper: aggressive public 5 GHz rollout; home/office lag due to "
      "long device lifecycles");
  return t;
}

Table table04(const FigureContext& ctx) {
  return render_table04(ctx.year(), ctx.analysis().classification());
}

Table table05(const FigureContext& ctx) {
  const analysis::HpoBreakdown h = analysis::hpo_breakdown(
      ctx.source(), ctx.analysis().classification());

  Table t({"year", "#ESSIDs", "HPO", "share"});
  const Value year = Value::integer(year_number(ctx.year()));
  for (int total = 1; total <= 3; ++total) {
    for (const auto& [key, share] : h.share) {
      if (key[0] + key[1] + key[2] != total) continue;
      t.add_row({year, Value::integer(total),
                 Value::text(strf("%d%d%d", key[0], key[1], key[2])),
                 Value::pct(share, 1)});
    }
  }
  t.add_row({year, Value::text("4+"), Value::text("-"),
             Value::pct(h.four_plus, 1)});
  t.notes.push_back(
      "paper: HPO=100 falls 54.7% -> 46.4%; HPO=101 rises 10.7% -> "
      "16.5%; 4+ rises 2.3% -> 3.2%");
  return t;
}

}  // namespace

void register_wifi_figures(FigureRegistry& r) {
  r.add({"fig10", "associated unique APs per 5 km grid cell",
         "Fig 10 (associated APs per 5 km cell)", {Year::Y2013, Year::Y2015},
         &fig10});
  r.add({"fig11", "WiFi traffic volume at home/public/office APs",
         "Fig 11 (WiFi traffic by AP location)", {Year::Y2013, Year::Y2015},
         &fig11});
  r.add({"fig12", "number of APs a device associates with per day",
         "Fig 12 (associated APs per user per day)",
         {Year::Y2013, Year::Y2014, Year::Y2015}, &fig12});
  r.add({"fig13", "CCDFs of consecutive WiFi association time per AP class",
         "Fig 13 (CCDFs of WiFi association time)",
         {Year::Y2013, Year::Y2015}, &fig13});
  r.add({"fig14", "5 GHz share of associated APs per location",
         "Fig 14 (5 GHz share of associated APs)",
         {Year::Y2013, Year::Y2014, Year::Y2015}, &fig14});
  r.add({"table04", "number of estimated APs by inferred class",
         "Table 4 (number of estimated APs)",
         {Year::Y2013, Year::Y2014, Year::Y2015}, &table04});
  r.add({"table05", "ESSID class combinations per user-day",
         "Table 5 (ESSID combinations per user-day)",
         {Year::Y2013, Year::Y2014, Year::Y2015}, &table05});
}

}  // namespace tokyonet::report
