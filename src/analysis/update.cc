#include "analysis/update.h"

#include <algorithm>

#include "analysis/common.h"
#include "core/dataset_index.h"
#include "stats/descriptive.h"

namespace tokyonet::analysis {

UpdateDetection detect_updates(const Dataset& ds,
                               const UpdateDetectOptions& opt) {
  UpdateDetection out;
  out.update_bin.assign(ds.devices.size(), -1);

  std::vector<double> window;
  for (const DeviceInfo& dev : ds.devices) {
    if (dev.os != Os::Ios) continue;
    ++out.num_ios;
    const core::DatasetIndex& idx = ds.index();
    const std::size_t begin = idx.device_begin(value(dev.id));
    const std::size_t n = idx.device_end(value(dev.id)) - begin;
    const TimeBin* bin = ds.samples.bin.data() + begin;
    const std::uint32_t* wifi_rx = ds.samples.wifi_rx.data() + begin;

    // Rolling sum of qualifying WiFi download over `window_bins` samples.
    double sum = 0;
    std::size_t tail = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (ds.calendar.day_of(bin[i]) < opt.min_day) {
        tail = i + 1;
        sum = 0;
        continue;
      }
      const double mb = wifi_rx[i] / kBytesPerMb;
      sum += mb >= opt.min_bin_mb ? mb : 0;
      while (i - tail + 1 > static_cast<std::size_t>(opt.window_bins)) {
        const double t = wifi_rx[tail] / kBytesPerMb;
        sum -= t >= opt.min_bin_mb ? t : 0;
        ++tail;
      }
      if (sum >= opt.burst_mb) {
        out.update_bin[value(dev.id)] = static_cast<std::int32_t>(bin[tail]);
        ++out.num_updated;
        break;
      }
    }
  }
  return out;
}

UpdateTiming analyze_update_timing(std::span<const DeviceInfo> devices,
                                   const UpdateDetection& detection,
                                   const ApClassification& classification) {
  UpdateTiming t;

  // Reference point: the first detected update in the campaign.
  std::int32_t first = -1;
  for (std::int32_t b : detection.update_bin) {
    if (b >= 0 && (first < 0 || b < first)) first = b;
  }
  if (first < 0) return t;

  int ios_home = 0, ios_no_home = 0;
  for (const DeviceInfo& dev : devices) {
    if (dev.os != Os::Ios) continue;
    const bool has_home =
        classification.home_ap_of_device[value(dev.id)] != kNoAp;
    (has_home ? ios_home : ios_no_home) += 1;

    const std::int32_t b = detection.update_bin[value(dev.id)];
    if (b < 0) continue;
    const double days = static_cast<double>(b - first) / kBinsPerDay;
    t.delay_days_all.push_back(days);
    (has_home ? t.delay_days_home : t.delay_days_no_home).push_back(days);
  }
  std::sort(t.delay_days_all.begin(), t.delay_days_all.end());
  std::sort(t.delay_days_home.begin(), t.delay_days_home.end());
  std::sort(t.delay_days_no_home.begin(), t.delay_days_no_home.end());

  const int n_ios = ios_home + ios_no_home;
  t.updated_share_all =
      n_ios > 0 ? static_cast<double>(t.delay_days_all.size()) / n_ios : 0;
  t.updated_share_no_home =
      ios_no_home > 0
          ? static_cast<double>(t.delay_days_no_home.size()) / ios_no_home
          : 0;
  if (!t.delay_days_all.empty()) {
    const auto first_day = static_cast<double>(std::count_if(
        t.delay_days_all.begin(), t.delay_days_all.end(),
        [](double d) { return d < 1.0; }));
    t.first_day_share = first_day / static_cast<double>(n_ios);
  }
  t.median_delay_home = stats::percentile_sorted(t.delay_days_home, 50);
  t.median_delay_no_home = stats::percentile_sorted(t.delay_days_no_home, 50);
  return t;
}

}  // namespace tokyonet::analysis
