#include "analysis/common.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <map>
#include <span>

#include "core/dataset_index.h"
#include "core/parallel.h"
#include "stats/descriptive.h"

namespace tokyonet::analysis {
namespace {

/// Rollup of one device: the serial per-device body of user_days,
/// emitting into a local vector so devices can run concurrently.
[[nodiscard]] std::vector<UserDay> device_user_days(const Dataset& ds,
                                                    const UserDayOptions& opt,
                                                    const DeviceInfo& dev) {
  const int num_days = ds.num_days();
  // Days to skip because of a detected OS update (§2: the update day
  // and the next day are removed from the main analysis).
  int skip_from = -1, skip_to = -1;
  if (opt.update_bin_by_device != nullptr) {
    const std::int32_t ub = (*opt.update_bin_by_device)[value(dev.id)];
    if (ub >= 0) {
      skip_from = ds.calendar.day_of(static_cast<TimeBin>(ub));
      skip_to = skip_from + 1;
    }
  }

  std::vector<UserDay> out;
  out.reserve(static_cast<std::size_t>(num_days));
  for (int d = 0; d < num_days; ++d) {
    UserDay ud;
    ud.device = dev.id;
    ud.day = d;
    out.push_back(ud);
  }
  // Iterate the device's per-day ranges over the traffic columns,
  // skipping update days wholesale.
  const core::DatasetIndex& idx = ds.index();
  const std::size_t dev_i = value(dev.id);
  const std::span<const std::uint32_t> cell_rx = ds.samples.cell_rx;
  const std::span<const std::uint32_t> cell_tx = ds.samples.cell_tx;
  const std::span<const std::uint32_t> wifi_rx = ds.samples.wifi_rx;
  const std::span<const std::uint32_t> wifi_tx = ds.samples.wifi_tx;
  const std::span<const std::uint8_t> flags = ds.samples.flags;
  for (int d = 0; d < num_days; ++d) {
    if (d >= skip_from && d <= skip_to) continue;
    UserDay& ud = out[static_cast<std::size_t>(d)];
    const std::size_t end = idx.day_begin(dev_i, d + 1);
    for (std::size_t i = idx.day_begin(dev_i, d); i < end; ++i) {
      if (opt.exclude_tethering &&
          (flags[i] & SampleColumns::kFlagTethering) != 0) {
        continue;
      }
      ud.cell_rx_mb += cell_rx[i] / kBytesPerMb;
      ud.cell_tx_mb += cell_tx[i] / kBytesPerMb;
      ud.wifi_rx_mb += wifi_rx[i] / kBytesPerMb;
      ud.wifi_tx_mb += wifi_tx[i] / kBytesPerMb;
    }
  }
  if (skip_from >= 0) {
    // Drop the skipped days entirely rather than keeping zero rows.
    auto it = std::remove_if(out.begin(), out.end(), [&](const UserDay& ud) {
      return ud.day >= skip_from && ud.day <= skip_to;
    });
    out.erase(it, out.end());
  }
  return out;
}

}  // namespace

std::vector<UserDay> user_days(const Dataset& ds, const UserDayOptions& opt) {
  // Each device's rollup touches only its own samples; concatenating
  // the per-device results in device order reproduces the serial output
  // exactly (accumulation order within a device is unchanged).
  const std::vector<std::vector<UserDay>> per_device =
      core::parallel_map(ds.devices.size(), [&](std::size_t i) {
        return device_user_days(ds, opt, ds.devices[i]);
      });

  std::vector<UserDay> out;
  out.reserve(ds.devices.size() * static_cast<std::size_t>(ds.num_days()));
  for (const std::vector<UserDay>& rows : per_device) {
    out.insert(out.end(), rows.begin(), rows.end());
  }
  return out;
}

UserClassifier::UserClassifier(const std::vector<UserDay>& days,
                               double light_lo_pct, double light_hi_pct,
                               double heavy_pct) {
  std::vector<double> rx;
  rx.reserve(days.size());
  for (const UserDay& d : days) rx.push_back(d.total_rx_mb());
  std::sort(rx.begin(), rx.end());
  light_lo_ = stats::percentile_sorted(rx, light_lo_pct);
  light_hi_ = stats::percentile_sorted(rx, light_hi_pct);
  heavy_ = stats::percentile_sorted(rx, heavy_pct);
}

UserClass UserClassifier::classify(const UserDay& d) const noexcept {
  const double rx = d.total_rx_mb();
  if (rx >= heavy_) return UserClass::Heavy;
  if (rx >= light_lo_ && rx <= light_hi_) return UserClass::Light;
  return UserClass::Neither;
}

int WeeklyProfile::hour_of_week(const CampaignCalendar& cal,
                                TimeBin bin) noexcept {
  const int day = cal.day_of(bin);
  const auto wd = static_cast<int>(cal.weekday_of_day(day));
  // Monday-based weekday -> Saturday-based day-of-week index.
  const int sat_based = (wd + 2) % 7;
  return sat_based * 24 + cal.hour_of(bin);
}

void WeeklyProfile::merge(const WeeklyProfile& other) noexcept {
  for (int h = 0; h < kHours; ++h) {
    num_[h] += other.num_[h];
    den_[h] += other.den_[h];
  }
}

std::vector<double> WeeklyProfile::ratio_series() const {
  std::vector<double> out(kHours, 0.0);
  for (int h = 0; h < kHours; ++h) {
    out[static_cast<std::size_t>(h)] =
        den_[h] > 0 ? static_cast<double>(num_[h]) / static_cast<double>(den_[h])
                    : 0.0;
  }
  return out;
}

std::vector<std::uint64_t> WeeklyProfile::num_series() const {
  return std::vector<std::uint64_t>(num_, num_ + kHours);
}

std::vector<std::uint64_t> WeeklyProfile::den_series() const {
  return std::vector<std::uint64_t>(den_, den_ + kHours);
}

double WeeklyProfile::mean_ratio() const noexcept {
  double sum = 0;
  int n = 0;
  for (int h = 0; h < kHours; ++h) {
    if (den_[h] > 0) {
      sum += static_cast<double>(num_[h]) / static_cast<double>(den_[h]);
      ++n;
    }
  }
  return n > 0 ? sum / n : 0.0;
}

std::vector<GeoCell> infer_home_cells(const Dataset& ds) {
  std::vector<GeoCell> out(ds.devices.size(), kNoGeoCell);
  const core::DatasetIndex& idx = ds.index();

  // The 22:00-06:00 window depends only on the bin-in-day, so resolve
  // it once per bin-of-day instead of per sample.
  std::array<bool, kBinsPerDay> night{};
  for (int b = 0; b < kBinsPerDay; ++b) {
    const int hour = b / kBinsPerHour;
    night[static_cast<std::size_t>(b)] = hour >= 22 || hour < 6;
  }

  // Per-device inference with a disjoint output slot per device.
  core::parallel_for(ds.devices.size(), [&](std::size_t i) {
    std::map<GeoCell, int> counts;
    if (idx.dense()) {
      // Dense campaign: the night window is two fixed bin ranges per
      // day ([22:00, 24:00) and [00:00, 06:00)), and devices dwell, so
      // run-length-encoding the geo-cell stream pays one map update per
      // dwell (typically one per night) instead of one per sample.
      const std::span<const std::uint16_t> geo = ds.samples.geo_cell;
      const std::size_t base = idx.device_begin(i);
      constexpr std::size_t kMorningBins = 6 * kBinsPerHour;
      constexpr std::size_t kEveningBin = 22 * kBinsPerHour;
      for (int day = 0; day < ds.num_days(); ++day) {
        const std::size_t d0 =
            base + static_cast<std::size_t>(day) * kBinsPerDay;
        for (const auto& [lo, hi] :
             {std::pair{d0, d0 + kMorningBins},
              std::pair{d0 + kEveningBin, d0 + kBinsPerDay}}) {
          std::size_t j = lo;
          while (j < hi) {
            const std::uint16_t g = geo[j];
            std::size_t k = j + 1;
            while (k < hi && geo[k] == g) ++k;
            if (g != kNoGeoCell) counts[g] += static_cast<int>(k - j);
            j = k;
          }
        }
      }
    } else {
      const std::span<const TimeBin> bin = ds.samples.bin;
      const std::span<const std::uint16_t> geo = ds.samples.geo_cell;
      const std::size_t end = idx.device_end(i);
      for (std::size_t j = idx.device_begin(i); j < end; ++j) {
        if (geo[j] == kNoGeoCell) continue;
        if (!night[static_cast<std::size_t>(bin[j] % kBinsPerDay)]) continue;
        ++counts[geo[j]];
      }
    }
    int best = 0;
    for (const auto& [cell, n] : counts) {
      if (n > best) {
        best = n;
        out[i] = cell;
      }
    }
  });
  return out;
}

}  // namespace tokyonet::analysis
