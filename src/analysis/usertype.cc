#include "analysis/usertype.h"

namespace tokyonet::analysis {

void accumulate_user_type_counts(UserTypeCounts& counts,
                                 std::size_t n_devices,
                                 const std::vector<UserDay>& days,
                                 double idle_mb) {
  std::vector<double> cell_total(n_devices, 0.0);
  std::vector<double> wifi_total(n_devices, 0.0);

  for (const UserDay& d : days) {
    cell_total[value(d.device)] += d.cell_rx_mb + d.cell_tx_mb;
    wifi_total[value(d.device)] += d.wifi_rx_mb + d.wifi_tx_mb;
  }

  std::vector<bool> is_mixed(n_devices, false);
  for (std::size_t i = 0; i < n_devices; ++i) {
    const bool cell_active = cell_total[i] > idle_mb;
    const bool wifi_active = wifi_total[i] > idle_mb;
    if (!cell_active && !wifi_active) continue;
    ++counts.active;
    if (cell_active && !wifi_active) {
      ++counts.cell_intensive;
    } else if (wifi_active && !cell_active) {
      ++counts.wifi_intensive;
    } else {
      ++counts.mixed;
      is_mixed[i] = true;
    }
  }

  for (const UserDay& d : days) {
    if (!is_mixed[value(d.device)]) continue;
    if (d.cell_rx_mb + d.wifi_rx_mb <= 0) continue;
    ++counts.mixed_days;
    counts.mixed_above += d.wifi_rx_mb > d.cell_rx_mb;
  }
}

UserTypeStats user_type_stats_from_counts(const UserTypeCounts& counts) {
  UserTypeStats s;
  if (counts.active > 0) {
    const auto active = static_cast<double>(counts.active);
    s.cellular_intensive_frac =
        static_cast<double>(counts.cell_intensive) / active;
    s.wifi_intensive_frac = static_cast<double>(counts.wifi_intensive) / active;
    s.mixed_frac = static_cast<double>(counts.mixed) / active;
  }
  if (counts.mixed_days > 0) {
    s.mixed_above_diagonal_frac = static_cast<double>(counts.mixed_above) /
                                  static_cast<double>(counts.mixed_days);
  }
  return s;
}

UserTypeStats user_type_stats(std::size_t n_devices,
                              const std::vector<UserDay>& days,
                              double idle_mb) {
  UserTypeCounts counts;
  accumulate_user_type_counts(counts, n_devices, days, idle_mb);
  return user_type_stats_from_counts(counts);
}

void accumulate_user_day_heatmap(stats::LogHist2d& h,
                                 const std::vector<UserDay>& days) {
  for (const UserDay& d : days) {
    if (d.cell_rx_mb <= 0 && d.wifi_rx_mb <= 0) continue;
    h.add(d.cell_rx_mb, d.wifi_rx_mb);
  }
}

stats::LogHist2d user_day_heatmap(const std::vector<UserDay>& days,
                                  int bins_per_decade) {
  stats::LogHist2d h(-2.0, 3.0, bins_per_decade);
  accumulate_user_day_heatmap(h, days);
  return h;
}

}  // namespace tokyonet::analysis
