// Implication sections: §4.1 home-offload impact and §4.3 shared
// multi-provider public APs.
#include "analysis/offload.h"
#include "analysis/sharedap.h"
#include "report/figures.h"
#include "report/registry.h"
#include "report/runner.h"

namespace tokyonet::report {
namespace {

Table sec41(const FigureContext& ctx) {
  const analysis::OffloadImpact o = analysis::offload_impact(
      ctx.source(), ctx.analysis().days(), ctx.analysis().classification());

  Table t({"year", "metric", "value", "paper 2015"});
  const Value year = Value::integer(year_number(ctx.year()));
  t.add_row({year, Value::text("median cellular RX [MB/day]"),
             Value::real(o.median_cell_rx_mb, 2), Value::text("36")});
  t.add_row({year, Value::text("median WiFi RX [MB/day]"),
             Value::real(o.median_wifi_rx_mb, 2), Value::text("51")});
  t.add_row({year, Value::text("WiFi share of smartphone traffic"),
             Value::pct(o.wifi_share, 0), Value::text("58%")});
  t.add_row({year, Value::text("WiFi : cellular ratio"),
             Value::real(o.wifi_to_cell_ratio, 2), Value::text("1.4")});
  t.add_row({year, Value::text("est. share of RBB volume"),
             Value::pct(o.est_rbb_share, 0), Value::text("28%")});
  t.add_row({year, Value::text("est. share of a home's daily download"),
             Value::pct(o.est_home_share, 0), Value::text("12%")});
  return t;
}

Table sec43(const FigureContext& ctx) {
  const analysis::SharedApAnalysis s = analysis::detect_shared_aps(
      ctx.source(), ctx.analysis().classification());

  Table t({"year", "associated public APs", "shared boxes",
           "networks on shared hardware"});
  t.add_row({Value::integer(year_number(ctx.year())),
             Value::integer(s.public_aps),
             Value::integer(static_cast<long long>(s.groups.size())),
             Value::pct(s.shared_share, 1)});
  t.notes.push_back(
      "paper (Sec 4.3): confirms such APs exist by checking similar "
      "BSSIDs assigned to different providers, and recommends them as "
      "the cost-effective path for free visitor WiFi toward the 2020 "
      "Olympics");
  return t;
}

}  // namespace

void register_section_figures(FigureRegistry& r) {
  r.add({"sec41_offload", "impact of home WiFi offload on RBB traffic",
         "Sec 4.1 (impact of home WiFi offload)",
         {Year::Y2013, Year::Y2014, Year::Y2015}, &sec41});
  r.add({"sec43_shared_aps", "multi-provider shared public APs",
         "Sec 4.3 (multi-provider shared APs)",
         {Year::Y2013, Year::Y2014, Year::Y2015}, &sec43});
}

}  // namespace tokyonet::report
