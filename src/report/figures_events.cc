// Event-driven figures: iOS update timing (Fig 18), the soft bandwidth
// cap (Fig 19), and the §4.2 battery-level check.
#include "analysis/battery.h"
#include "analysis/cap.h"
#include "analysis/update.h"
#include "report/figures.h"
#include "report/registry.h"
#include "report/runner.h"
#include "stats/distribution.h"

namespace tokyonet::report {

namespace {

Table render_fig18(const analysis::UpdateDetection& det,
                   const analysis::UpdateTiming& u) {
  const stats::Ecdf all(u.delay_days_all);
  const stats::Ecdf no_home(u.delay_days_no_home);
  const auto n_ios = static_cast<double>(det.num_ios);
  const auto n_all = static_cast<double>(u.delay_days_all.size());

  Table t({"days since release", "CDF (all iOS)", "CDF (updated, no home AP)",
           "PDF (per day)"});
  for (double day = 0; day <= 15; ++day) {
    // CDF over the whole iOS population, as in the paper's Fig 18.
    const double cdf_all = n_ios > 0 ? all.at(day) * n_all / n_ios : 0;
    const double pdf =
        n_ios > 0 ? (all.at(day + 0.5) - all.at(day - 0.5)) * n_all / n_ios
                  : 0;
    t.add_row({Value::real(day, 0), Value::real(cdf_all, 3),
               Value::real(no_home.at(day), 3), Value::real(pdf, 3)});
  }

  t.notes.push_back(strf(
      "updated within the window: %.0f%% of iOS devices (paper 58%%)",
      100 * u.updated_share_all));
  t.notes.push_back(strf("updated on the first day: %.0f%% (paper ~10%%)",
                         100 * u.first_day_share));
  t.notes.push_back(strf("no-home-AP users updated: %.0f%% (paper 14%%)",
                         100 * u.updated_share_no_home));
  t.notes.push_back(strf(
      "median delay: home %.1f days vs no-home %.1f days (paper gap 3.5 "
      "days)",
      u.median_delay_home, u.median_delay_no_home));
  return t;
}

Table fig18(const FigureContext& ctx) {
  const auto& det = ctx.analysis().updates();
  const analysis::UpdateTiming u = analysis::analyze_update_timing(
      ctx.analysis().devices(), det, ctx.analysis().classification());
  return render_fig18(det, u);
}

Table fig19(const FigureContext& ctx) {
  const analysis::CapAnalysis c = analysis::analyze_cap(
      ctx.source().n_devices(), ctx.analysis().days());

  Table t({"year", "daily / 3-day mean", "CDF capped", "CDF others"});
  for (const double ratio : {0.01, 0.03, 0.1, 0.3, 0.5, 1.0, 2.0, 5.0, 10.0}) {
    t.add_row({Value::integer(year_number(ctx.year())), Value::real(ratio, 2),
               Value::real(c.ratio_capped.at(ratio), 3),
               Value::real(c.ratio_others.at(ratio), 3)});
  }
  t.notes.push_back(strf(
      "potentially capped users: %.1f%%; gap at ratio 0.5: %.2f (capped "
      "%.0f%% vs others %.0f%% below half)",
      100 * c.capped_user_share, c.gap_at_half, 100 * c.capped_below_half,
      100 * c.others_below_half));
  t.notes.push_back(
      "paper: capped users 0.8% (2014) / 1.4% (2015); gap at the median "
      "0.29 (2014) -> 0.15 (2015) after two carriers relaxed the policy");
  return t;
}

Table sec42(const FigureContext& ctx) {
  const analysis::BatteryAnalysis b =
      analysis::battery_analysis(ctx.source());
  const auto level = b.mean_level.ratio_series();
  static const char* kDays[] = {"Sat", "Sun", "Mon", "Tue", "Wed", "Thu",
                                "Fri"};

  Table t({"year", "day", "hour", "mean battery level"});
  for (int d = 0; d < 7; ++d) {
    for (int h = 0; h < 24; h += 6) {
      const auto i = static_cast<std::size_t>(d * 24 + h);
      t.add_row({Value::integer(year_number(ctx.year())),
                 Value::text(kDays[d]),
                 Value::text(std::to_string(h) + ":00"),
                 Value::real(level[i], 3)});
    }
  }
  t.notes.push_back(strf(
      "mean level %.2f; share of samples below 20%%: %.1f%%", b.mean,
      100 * b.low_share));
  t.notes.push_back(strf(
      "mean level WiFi-off %.2f vs WiFi-on %.2f   [paper §4.2: battery "
      "life was not a significant concern]",
      b.mean_wifi_off, b.mean_wifi_on));
  return t;
}

}  // namespace

void register_event_figures(FigureRegistry& r) {
  r.add({"fig18", "iOS 8.2 software update timing (CDF/PDF)",
         "Fig 18 (software update timing, Sec 3.7)", {Year::Y2015}, &fig18});
  r.add({"fig19", "soft bandwidth cap: daily vs 3-day-mean download CDFs",
         "Fig 19 (soft bandwidth cap effect, Sec 3.8)",
         {Year::Y2014, Year::Y2015}, &fig19});
  r.add({"sec42_battery", "weekly battery-level profile and WiFi-state check",
         "Sec 4.2 (battery levels vs WiFi state)",
         {Year::Y2013, Year::Y2014, Year::Y2015}, &sec42});
}

}  // namespace tokyonet::report
