// Weekly WiFi-ratio figures (Figs 6-9): traffic/user WiFi ratios, their
// split by user class, and WiFi interface states by OS.
#include "analysis/ratios.h"
#include "analysis/wifistate.h"
#include "report/figures.h"
#include "report/registry.h"
#include "report/runner.h"

namespace tokyonet::report {
namespace {

// Campaigns start on a Saturday; WeeklyProfile hour 0 = Sat 0:00.
const char* kWeekDays[] = {"Sat", "Sun", "Mon", "Tue", "Wed", "Thu", "Fri"};

analysis::WifiRatios wifi_ratios(const FigureContext& ctx) {
  return analysis::compute_wifi_ratios(ctx.source(), ctx.analysis().days(),
                                       ctx.analysis().classifier());
}

Table fig06(const FigureContext& ctx) {
  const analysis::WifiRatios r = wifi_ratios(ctx);
  const auto traffic = r.traffic_all.ratio_series();
  const auto users = r.users_all.ratio_series();

  Table t({"year", "day", "hour", "WiFi-traffic ratio", "WiFi-user ratio"});
  for (int d = 0; d < 7; ++d) {
    for (int h = 0; h < 24; h += 4) {
      const auto i = static_cast<std::size_t>(d * 24 + h);
      t.add_row({Value::integer(year_number(ctx.year())),
                 Value::text(kWeekDays[d]),
                 Value::text(std::to_string(h) + ":00"),
                 Value::real(traffic[i], 2), Value::real(users[i], 2)});
    }
  }
  t.notes.push_back(strf(
      "mean WiFi-traffic ratio %.2f, WiFi-user ratio %.2f   [paper: "
      "traffic 0.58 -> 0.71, users 0.32 -> 0.48 from 2013 to 2015]",
      r.traffic_all.mean_ratio(), r.users_all.mean_ratio()));
  return t;
}

Table ratio_by_class(const FigureContext& ctx, bool traffic) {
  const analysis::WifiRatios r = wifi_ratios(ctx);
  const analysis::WeeklyProfile& h = traffic ? r.traffic_heavy : r.users_heavy;
  const analysis::WeeklyProfile& l = traffic ? r.traffic_light : r.users_light;
  const auto heavy = h.ratio_series();
  const auto light = l.ratio_series();

  Table t({"year", "day", "hour", "heavy", "light"});
  for (int d = 0; d < 7; ++d) {
    for (int hr = 0; hr < 24; hr += 6) {
      const auto i = static_cast<std::size_t>(d * 24 + hr);
      t.add_row({Value::integer(year_number(ctx.year())),
                 Value::text(kWeekDays[d]),
                 Value::text(std::to_string(hr) + ":00"),
                 Value::real(heavy[i], 2), Value::real(light[i], 2)});
    }
  }
  t.notes.push_back(
      strf("means: heavy %.2f, light %.2f", h.mean_ratio(), l.mean_ratio()));
  return t;
}

Table fig07(const FigureContext& ctx) {
  Table t = ratio_by_class(ctx, /*traffic=*/true);
  t.notes.push_back("paper means: heavy 73% -> 89%; light 42% -> 52%");
  return t;
}

Table fig08(const FigureContext& ctx) {
  Table t = ratio_by_class(ctx, /*traffic=*/false);
  t.notes.push_back(
      "paper: heavy-hitter mean 51% (2013) -> 68% (2015); >80% of heavy "
      "hitters on WiFi at peak in 2015");
  return t;
}

Table fig09(const FigureContext& ctx) {
  const analysis::WifiStateProfiles p =
      analysis::compute_wifi_states(ctx.source());
  const auto user = p.android_user.ratio_series();
  const auto off = p.android_off.ratio_series();
  const auto avail = p.android_available.ratio_series();
  const auto ios = p.ios_user.ratio_series();

  Table t({"year", "day", "hour", "Android user", "Android off",
           "Android available", "iOS user"});
  for (int d = 0; d < 7; ++d) {
    for (int h = 0; h < 24; h += 6) {
      const auto i = static_cast<std::size_t>(d * 24 + h);
      t.add_row({Value::integer(year_number(ctx.year())),
                 Value::text(kWeekDays[d]),
                 Value::text(std::to_string(h) + ":00"),
                 Value::real(user[i], 2), Value::real(off[i], 2),
                 Value::real(avail[i], 2), Value::real(ios[i], 2)});
    }
  }
  t.notes.push_back(strf(
      "mean Android WiFi-off %.2f, WiFi-available %.2f   [paper: off "
      "daytime 50%% -> 40%%; available ~0.25]",
      p.mean_android_off(), p.mean_android_available()));
  t.notes.push_back(strf(
      "iOS vs Android WiFi-user: %.2f vs %.2f   [paper: iOS ~30%% higher "
      "in 2015]",
      p.ios_user.mean_ratio(), p.android_user.mean_ratio()));
  if (ctx.year() == Year::Y2015) {
    const auto carriers =
        analysis::ios_wifi_user_by_carrier(ctx.source());
    t.notes.push_back(strf(
        "iOS WiFi-user share by carrier: %.2f / %.2f / %.2f   [paper: no "
        "carrier difference]",
        carriers[0], carriers[1], carriers[2]));
  }
  return t;
}

}  // namespace

void register_ratio_figures(FigureRegistry& r) {
  r.add({"fig06", "WiFi-traffic and WiFi-user ratio over the week",
         "Fig 6 (WiFi-traffic & WiFi-user ratio)",
         {Year::Y2013, Year::Y2015}, &fig06});
  r.add({"fig07", "WiFi-traffic ratio for heavy hitters vs light users",
         "Fig 7 (WiFi-traffic ratio by user class)",
         {Year::Y2013, Year::Y2015}, &fig07});
  r.add({"fig08", "WiFi-user ratio for heavy hitters vs light users",
         "Fig 8 (WiFi-user ratio by user class)", {Year::Y2013, Year::Y2015},
         &fig08});
  r.add({"fig09", "Android WiFi interface states and iOS WiFi users",
         "Fig 9 (WiFi interface states by OS)", {Year::Y2013, Year::Y2015},
         &fig09});
}

}  // namespace tokyonet::report
