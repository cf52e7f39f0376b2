#include "analysis/offload.h"

#include "analysis/aggregate.h"
#include "stats/descriptive.h"

namespace tokyonet::analysis {

OffloadImpact offload_impact(const query::DataSource& src,
                             const std::vector<UserDay>& days,
                             const ApClassification& cls,
                             const OffloadAssumptions& assume) {
  OffloadImpact out;
  std::vector<double> cell, wifi;
  cell.reserve(days.size());
  wifi.reserve(days.size());
  for (const UserDay& d : days) {
    cell.push_back(d.cell_rx_mb);
    wifi.push_back(d.wifi_rx_mb);
  }
  out.median_cell_rx_mb = stats::median(cell);
  out.median_wifi_rx_mb = stats::median(wifi);
  const double total = out.median_cell_rx_mb + out.median_wifi_rx_mb;
  out.wifi_share = total > 0 ? out.median_wifi_rx_mb / total : 0;
  out.wifi_to_cell_ratio = out.median_cell_rx_mb > 0
                               ? out.median_wifi_rx_mb / out.median_cell_rx_mb
                               : 0;

  // §4.1: est. smartphone-WiFi share of total RBB volume = 20% x ratio,
  // discounted by the share of WiFi volume that is at home.
  out.est_rbb_share = assume.cellular_share_of_rbb * out.wifi_to_cell_ratio *
                      wifi_location_shares(src, cls).home;
  out.est_home_share = out.median_wifi_rx_mb / assume.rbb_median_daily_mb;
  return out;
}

}  // namespace tokyonet::analysis
