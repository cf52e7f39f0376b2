// Traffic-volume figures (Figs 2-5): aggregate weekly series, per-user
// daily CDFs, and the cellular-vs-WiFi user-type split.
#include "analysis/aggregate.h"
#include "analysis/usertype.h"
#include "analysis/volumes.h"
#include "report/battery.h"
#include "report/figures.h"
#include "report/registry.h"
#include "report/runner.h"

namespace tokyonet::report {

Table render_fig02(const CampaignCalendar& cal, int num_days,
                   const analysis::HourlySeries& cell_rx,
                   const analysis::HourlySeries& cell_tx,
                   const analysis::HourlySeries& wifi_rx,
                   const analysis::HourlySeries& wifi_tx,
                   const analysis::WeekSplit& cell_split,
                   const analysis::WeekSplit& wifi_split) {
  Table t({"date", "hour", "Cell TX [Mbps]", "Cell RX [Mbps]",
           "WiFi TX [Mbps]", "WiFi RX [Mbps]"});
  for (int day = 0; day < 8 && day < num_days; ++day) {
    for (int hour = 0; hour < 24; hour += 3) {
      const auto i = static_cast<std::size_t>(day * 24 + hour);
      t.add_row({Value::text(cal.day_label(day)),
                 Value::text(std::to_string(hour) + ":00"),
                 Value::real(cell_tx.mbps[i], 2), Value::real(cell_rx.mbps[i], 2),
                 Value::real(wifi_tx.mbps[i], 2),
                 Value::real(wifi_rx.mbps[i], 2)});
    }
  }

  const double wifi = wifi_rx.total_mb() + wifi_tx.total_mb();
  const double cell = cell_rx.total_mb() + cell_tx.total_mb();
  t.notes.push_back(strf(
      "WiFi share of total volume: %.0f%% (paper: 67%% in 2015)",
      100 * wifi / (wifi + cell)));
  t.notes.push_back(strf(
      "weekday vs weekend mean rate [Mbps]: cellular %.1f vs %.1f, "
      "WiFi %.1f vs %.1f   [paper: cellular drops on weekends, WiFi rises]",
      cell_split.weekday_mbps, cell_split.weekend_mbps,
      wifi_split.weekday_mbps, wifi_split.weekend_mbps));
  return t;
}

Table render_fig05(Year year, const analysis::UserTypeStats& s,
                   const stats::LogHist2d& heat) {
  Table t({"year", "cellular-intensive", "wifi-intensive", "mixed",
           "mixed above diagonal"});
  t.add_row({Value::integer(year_number(year)),
             Value::pct(s.cellular_intensive_frac, 0),
             Value::pct(s.wifi_intensive_frac, 0), Value::pct(s.mixed_frac, 0),
             Value::pct(s.mixed_above_diagonal_frac, 0)});

  // The log-log density map itself is a plot; pin its mass distribution.
  int occupied = 0;
  double peak = 0;
  for (int y = 0; y < heat.bins(); ++y) {
    for (int x = 0; x < heat.bins(); ++x) {
      const double c = heat.count(x, y);
      if (c > 0) ++occupied;
      if (c > peak) peak = c;
    }
  }
  t.notes.push_back(strf(
      "heat map: %d of %d bins occupied, peak bin %.0f of %.0f user-days",
      occupied, heat.bins() * heat.bins(), peak, heat.total()));
  t.notes.push_back(
      "paper: cellular-intensive 35% (2013) -> 22% (2015); wifi-intensive "
      "~8%; 55% of mixed users above the diagonal");
  return t;
}

namespace {

Table fig02(const FigureContext& ctx) {
  const auto& src = ctx.source();
  const analysis::AllStreamSums sums = analysis::aggregate_all_streams(src);
  const auto series = [&](analysis::Stream s) {
    return analysis::hourly_series_from_sums(
        sums.hour_sums[static_cast<std::size_t>(s)]);
  };
  const auto cell_rx = series(analysis::Stream::CellRx);
  const auto cell_tx = series(analysis::Stream::CellTx);
  const auto wifi_rx = series(analysis::Stream::WifiRx);
  const auto wifi_tx = series(analysis::Stream::WifiTx);
  const analysis::WeekSplit cell_split =
      analysis::week_split(cell_rx, src.calendar(), src.num_days());
  const analysis::WeekSplit wifi_split =
      analysis::week_split(wifi_rx, src.calendar(), src.num_days());
  return render_fig02(src.calendar(), src.num_days(), cell_rx, cell_tx,
                      wifi_rx, wifi_tx, cell_split, wifi_split);
}

Table fig03(const FigureContext& ctx) {
  const analysis::DailyVolumeCdfs cdfs =
      analysis::daily_volume_cdfs(ctx.analysis().days());
  Table t({"year", "MB", "CDF all RX", "CDF all TX"});
  for (const double mb :
       {1.0, 3.0, 10.0, 30.0, 57.9, 100.0, 300.0, 1000.0, 3000.0}) {
    t.add_row({Value::integer(year_number(ctx.year())), Value::real(mb, 1),
               Value::real(cdfs.all_rx.at(mb), 3),
               Value::real(cdfs.all_tx.at(mb), 3)});
  }
  t.notes.push_back(strf(
      "RX/TX median ratio: %.1fx (paper: RX ~5x TX in 2015)",
      cdfs.all_rx.quantile(0.5) / cdfs.all_tx.quantile(0.5)));
  return t;
}

Table fig04(const FigureContext& ctx) {
  const auto& days = ctx.analysis().days();
  const analysis::DailyVolumeCdfs cdfs = analysis::daily_volume_cdfs(days);

  Table t({"MB", "WiFi RX", "WiFi TX", "Cell RX", "Cell TX"});
  for (const double mb :
       {0.1, 0.3, 1.0, 3.0, 10.0, 30.0, 100.0, 300.0, 1000.0}) {
    t.add_row({Value::real(mb, 1), Value::real(cdfs.wifi_rx.at(mb), 3),
               Value::real(cdfs.wifi_tx.at(mb), 3),
               Value::real(cdfs.cell_rx.at(mb), 3),
               Value::real(cdfs.cell_tx.at(mb), 3)});
  }

  const analysis::DailyVolumeFacts f = analysis::daily_volume_facts(days);
  t.notes.push_back(strf("idle cellular interfaces: %.1f%% (paper 8%%)",
                         100 * f.zero_cell_share));
  t.notes.push_back(strf("idle WiFi interfaces: %.1f%% (paper 20%%)",
                         100 * f.zero_wifi_share));
  t.notes.push_back(strf("user-days over the 1 GB/3-day cap: %.2f%% "
                         "(paper 1.4%%)",
                         100 * f.over_cap_share));
  t.notes.push_back(strf("top heavy hitter: %.1f GB in one day (paper 11 GB)",
                         f.max_daily_rx_mb / 1000.0));
  return t;
}

Table fig05(const FigureContext& ctx) {
  const auto& days = ctx.analysis().days();
  const analysis::UserTypeStats s =
      analysis::user_type_stats(ctx.source().n_devices(), days);
  const auto heat = analysis::user_day_heatmap(days, 3);
  return render_fig05(ctx.year(), s, heat);
}

}  // namespace

void register_volume_figures(FigureRegistry& r) {
  r.add({"fig02", "aggregated traffic volume over the first campaign week",
         "Fig 2 (aggregated traffic volume, 2015)", {Year::Y2015}, &fig02, true});
  r.add({"fig03", "CDFs of daily total traffic per user (RX and TX)",
         "Fig 3 (CDFs of daily total traffic per user)",
         {Year::Y2013, Year::Y2014, Year::Y2015}, &fig03, true});
  r.add({"fig04", "CDFs of daily traffic per interface type + headline facts",
         "Fig 4 (daily volume per type, 2015)", {Year::Y2015}, &fig04, true});
  r.add({"fig05", "user-day heat map mass + cellular/WiFi user-type split",
         "Fig 5 (daily traffic volume per user)", {Year::Y2013, Year::Y2015},
         &fig05, true});
}

}  // namespace tokyonet::report
