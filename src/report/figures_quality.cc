// WiFi quality and availability figures (Figs 15-17) and the §3.5
// offload-opportunity estimate, split out as its own registry entry so
// it can run for all three years.
#include "analysis/availability.h"
#include "analysis/quality.h"
#include "report/figures.h"
#include "report/registry.h"
#include "report/runner.h"

namespace tokyonet::report {

namespace {

Table render_sec35(Year year, const analysis::OffloadOpportunity& opp) {
  Table t({"year", "WiFi-available users", "stable opportunity",
           "offloadable cellular share"});
  t.add_row({Value::integer(year_number(year)),
             Value::integer(opp.num_wifi_available_users),
             Value::pct(opp.users_with_stable_opportunity, 0),
             Value::pct(opp.offloadable_cell_share, 0)});
  t.notes.push_back(
      "paper (§3.5, 2015): 60% of WiFi-available users have stable "
      "public options; 15-20% of their cellular volume is offloadable");
  return t;
}

Table fig15(const FigureContext& ctx) {
  const analysis::RssiAnalysis r = analysis::rssi_analysis(
      ctx.source(), ctx.analysis().classification());
  const auto home = r.home_pdf();
  const auto pub = r.public_pdf();

  Table t({"RSSI [dBm]", "home PDF", "public PDF"});
  for (int i = 0; i < home.bins(); ++i) {
    t.add_row({Value::real(home.bin_center(i), 0), Value::real(home.pdf(i), 4),
               Value::real(pub.pdf(i), 4)});
  }
  t.notes.push_back(strf(
      "home mean %.0f dBm (paper -54); public mean %.0f dBm (paper ~-60)",
      r.home_mean, r.public_mean));
  t.notes.push_back(strf(
      "below -70 dBm: home %.0f%% (paper 3%%), public %.0f%% (paper 12%%)",
      100 * r.home_below_70_share, 100 * r.public_below_70_share));
  return t;
}

Table fig16(const FigureContext& ctx) {
  const analysis::ChannelAnalysis c = analysis::channel_analysis(
      ctx.source(), ctx.analysis().classification());

  Table t({"year", "channel", "home PMF", "public PMF"});
  for (int ch = 1; ch <= 13; ++ch) {
    const auto i = static_cast<std::size_t>(ch);
    t.add_row({Value::integer(year_number(ctx.year())), Value::integer(ch),
               Value::real(c.home_pmf[i], 3), Value::real(c.public_pmf[i], 3)});
  }
  t.notes.push_back(strf("home Ch1 share: %.2f   [paper: Ch1 pile-up in "
                         "2013 (factory defaults) disperses by 2015; "
                         "public APs planned on 1/6/11]",
                         c.home_pmf[1]));
  return t;
}

Table fig17(const FigureContext& ctx) {
  const analysis::ScanAvailability s =
      analysis::scan_availability(ctx.source());

  Table t({"#APs", "2.4G all", "2.4G strong", "5G all", "5G strong"});
  for (const double n : {0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0}) {
    t.add_row({Value::real(n, 0), Value::real(s.all_24.ccdf(n), 4),
               Value::real(s.strong_24.ccdf(n), 4),
               Value::real(s.all_5.ccdf(n), 4),
               Value::real(s.strong_5.ccdf(n), 4)});
  }
  t.notes.push_back(
      "paper: 90% of devices see fewer than 10 2.4 GHz APs; ~30% see any "
      "5 GHz, ~10% a strong one");
  return t;
}

Table sec35(const FigureContext& ctx) {
  return render_sec35(ctx.year(),
                      analysis::offload_opportunity(ctx.source()));
}

}  // namespace

void register_quality_figures(FigureRegistry& r) {
  r.add({"fig15", "RSSI PDFs of associated 2.4 GHz home and public APs",
         "Fig 15 (RSSI PDFs of associated APs, 2015)", {Year::Y2015},
         &fig15});
  r.add({"fig16", "PMF of associated 2.4 GHz channels, home vs public",
         "Fig 16 (associated 2.4 GHz channels)", {Year::Y2013, Year::Y2015},
         &fig16});
  r.add({"fig17", "CCDFs of detected public WiFi networks per scan",
         "Fig 17 (public WiFi availability, 2015)", {Year::Y2015}, &fig17});
  r.add({"sec35_opportunity", "stable public-WiFi offload opportunity",
         "Sec 3.5 (offloadable traffic estimate)",
         {Year::Y2013, Year::Y2014, Year::Y2015}, &sec35});
}

}  // namespace tokyonet::report
