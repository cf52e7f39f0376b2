#include "core/dataset_index.h"

#include <algorithm>

#include "core/parallel.h"

namespace tokyonet::core {

SampleLayout SampleLayout::dense(std::size_t n_devices, std::size_t n_bins) {
  SampleLayout l;
  l.device_offset.resize(n_devices + 1);
  for (std::size_t d = 0; d <= n_devices; ++d) l.device_offset[d] = d * n_bins;
  l.app_range.assign(2 * n_devices, 0);
  return l;
}

void DatasetIndex::build_calendar(const CampaignCalendar& cal) {
  num_days_ = cal.num_days();
  // Hour-of-week LUT, Saturday-based to match WeeklyProfile's axes.
  hour_of_week_.resize(static_cast<std::size_t>(cal.num_bins()));
  for (int day = 0; day < num_days_; ++day) {
    const int sat_based =
        (static_cast<int>(cal.weekday_of_day(day)) + 2) % 7;
    for (int h = 0; h < 24; ++h) {
      const auto how = static_cast<std::uint16_t>(sat_based * 24 + h);
      const std::size_t base = static_cast<std::size_t>(day) * kBinsPerDay +
                               static_cast<std::size_t>(h) * kBinsPerHour;
      for (std::size_t b = 0; b < kBinsPerHour; ++b) {
        hour_of_week_[base + b] = how;
      }
    }
  }
}

DatasetIndex::DenseBuilder::DenseBuilder(Dataset& ds)
    : ds_(&ds),
      layout_(SampleLayout::dense(
          ds.devices.size(), static_cast<std::size_t>(ds.calendar.num_bins()))) {
  ds.index_.reset();
  ds.samples.resize_for_overwrite(layout_.device_offset.back());
}

void DatasetIndex::DenseBuilder::finish() {
  std::shared_ptr<DatasetIndex> idx(new DatasetIndex());
  idx->build_calendar(ds_->calendar);
  const std::size_t n_devices = ds_->devices.size();
  idx->dense_ = n_devices > 0;
  // Day boundaries fall at fixed kBinsPerDay strides in every device.
  const auto day_stride = static_cast<std::size_t>(idx->num_days_) + 1;
  idx->day_offset_.resize(n_devices * day_stride);
  for (std::size_t d = 0; d < n_devices; ++d) {
    for (std::size_t day = 0; day < day_stride; ++day) {
      idx->day_offset_[d * day_stride + day] =
          layout_.device_offset[d] + day * kBinsPerDay;
    }
  }
  idx->layout_ = std::move(layout_);
  ds_->index_ = std::move(idx);
}

std::shared_ptr<const DatasetIndex> DatasetIndex::empty() {
  static const std::shared_ptr<const DatasetIndex> idx = [] {
    std::shared_ptr<DatasetIndex> e(new DatasetIndex());
    e->layout_ = SampleLayout::dense(0, 0);
    return e;
  }();
  return idx;
}

std::shared_ptr<const DatasetIndex> DatasetIndex::build(const Dataset& ds,
                                                        SampleLayout layout,
                                                        std::string* error) {
  const SampleColumns& cols = ds.samples;
  const std::size_t n = cols.size();
  const std::size_t n_devices = ds.devices.size();
  const auto n_bins = static_cast<std::size_t>(ds.calendar.num_bins());
  const std::size_t n_aps = ds.aps.size();
  const std::size_t n_apps = ds.app_traffic.size();
  const auto fail = [&](std::string what) {
    *error = std::move(what);
    return nullptr;
  };

  bool same_length = true;
  SampleColumns::for_each(
      [&](const auto& c) { same_length = same_length && c.size() == n; }, cols);
  if (!same_length) return fail("sample columns differ in length");
  if (layout.device_offset.size() != n_devices + 1 ||
      layout.app_range.size() != 2 * n_devices) {
    return fail("sample layout covers a different number of devices");
  }
  if (layout.device_offset[0] != 0 || layout.device_offset[n_devices] != n) {
    return fail("device ranges do not tile the " + std::to_string(n) +
                " sample rows");
  }
  for (std::size_t d = 0; d < n_devices; ++d) {
    if (layout.device_offset[d] > layout.device_offset[d + 1]) {
      return fail("device " + std::to_string(d) + " has a negative row range");
    }
  }

  std::shared_ptr<DatasetIndex> idx(new DatasetIndex());
  idx->build_calendar(ds.calendar);
  const int num_days = idx->num_days_;
  const std::size_t day_stride = static_cast<std::size_t>(num_days) + 1;
  idx->day_offset_.assign(n_devices * day_stride, 0);

  const TimeBin* const bin = cols.bin.data();
  const std::uint32_t* const ap = cols.ap.data();
  const std::uint8_t* const app_count = cols.app_count.data();
  const WifiState* const state = cols.wifi_state.data();
  const CellTech* const tech = cols.tech.data();
  const AppTraffic* const app_records = ds.app_traffic.data();

  // Device d's rules, one row at a time: returns the first broken one.
  // Only a device whose column reductions below fail is walked, so the
  // message names the same row the walk alone would.
  const auto first_error = [&](std::size_t d) -> std::string {
    const std::size_t begin = layout.device_offset[d];
    const std::size_t end = layout.device_offset[d + 1];
    const auto row = [](std::size_t i) {
      return "sample " + std::to_string(i);
    };
    std::size_t apps = 0;
    for (std::size_t i = begin; i < end; ++i) {
      if (std::size_t{bin[i]} >= n_bins) {
        return row(i) + " has bin " + std::to_string(bin[i]) +
               " outside the " + std::to_string(n_bins) + "-bin campaign";
      }
      if (i > begin && bin[i - 1] > bin[i]) {
        return row(i) + " breaks (device, bin) ordering";
      }
      if (ap[i] != value(kNoAp) && ap[i] >= n_aps) {
        return row(i) + " references AP " + std::to_string(ap[i]) + " of " +
               std::to_string(n_aps);
      }
      if (state[i] > WifiState::Associated || tech[i] > CellTech::Lte) {
        return row(i) + " has an unknown WiFi state or cell technology";
      }
      apps += app_count[i];
    }
    const std::size_t app_begin = layout.app_range[2 * d];
    const std::size_t app_end = layout.app_range[2 * d + 1];
    if (app_begin > app_end || app_end > n_apps ||
        app_end - app_begin != apps) {
      return "device " + std::to_string(d) + " app range [" +
             std::to_string(app_begin) + ", " + std::to_string(app_end) +
             ") does not hold its rows' " + std::to_string(apps) + " of " +
             std::to_string(n_apps) + " app records";
    }
    for (std::size_t a = app_begin; a < app_end; ++a) {
      if (static_cast<int>(app_records[a].category) >= kNumAppCategories) {
        return "app record " + std::to_string(a) + " has an unknown category";
      }
    }
    return {};
  };

  struct Check {
    std::string error;
    bool dense = false;
  };
  const std::vector<Check> checks =
      parallel_map(n_devices, [&](std::size_t d) -> Check {
        const std::size_t begin = layout.device_offset[d];
        const std::size_t end = layout.device_offset[d + 1];

        // Every rule as a branch-free reduction over one column, which
        // the compiler vectorizes. AP value + 1 wraps kNoAp to 0, so one
        // max bounds the AP column by n_aps.
        TimeBin max_bin = 0;
        for (std::size_t j = begin; j < end; ++j) {
          max_bin = std::max(max_bin, bin[j]);
        }
        unsigned descends = 0, repeats = 0;
        for (std::size_t j = begin + 1; j < end; ++j) {
          descends |= unsigned{bin[j - 1] > bin[j]};
          repeats |= unsigned{bin[j - 1] == bin[j]};
        }
        std::uint32_t max_ap = 0;
        for (std::size_t j = begin; j < end; ++j) {
          max_ap = std::max(max_ap, ap[j] + 1u);
        }
        std::uint8_t max_state = 0, max_tech = 0;
        for (std::size_t j = begin; j < end; ++j) {
          max_state = std::max(max_state, static_cast<std::uint8_t>(state[j]));
          max_tech = std::max(max_tech, static_cast<std::uint8_t>(tech[j]));
        }
        std::uint64_t apps = 0;
        for (std::size_t j = begin; j < end; ++j) apps += app_count[j];
        const std::size_t app_begin = layout.app_range[2 * d];
        const std::size_t app_end = layout.app_range[2 * d + 1];
        bool ok = std::size_t{max_bin} < n_bins && descends == 0 &&
                  max_ap <= n_aps &&
                  max_state <= static_cast<std::uint8_t>(WifiState::Associated) &&
                  max_tech <= static_cast<std::uint8_t>(CellTech::Lte) &&
                  app_begin <= app_end && app_end <= n_apps &&
                  app_end - app_begin == apps;
        if (ok) {
          std::uint8_t max_category = 0;
          for (std::size_t a = app_begin; a < app_end; ++a) {
            max_category = std::max(
                max_category, static_cast<std::uint8_t>(app_records[a].category));
          }
          ok = max_category < kNumAppCategories;
        }
        if (!ok) {
          if (std::string message = first_error(d); !message.empty()) {
            return {std::move(message)};
          }
        }

        // Rising bins, all inside the calendar, one per bin: dense, and
        // each day starts kBinsPerDay rows after the previous one.
        const bool dense = end - begin == n_bins && descends == 0 && repeats == 0;
        std::size_t* const days = idx->day_offset_.data() + d * day_stride;
        std::size_t i = begin;
        for (int day = 0; day < num_days; ++day) {
          if (dense) {
            days[day] = begin + static_cast<std::size_t>(day) * kBinsPerDay;
            continue;
          }
          days[day] = i;
          const auto limit = static_cast<TimeBin>((day + 1) * kBinsPerDay);
          while (i < end && bin[i] < limit) ++i;
        }
        days[num_days] = end;
        return {{}, dense};
      });
  bool dense = n_devices > 0;
  for (const Check& c : checks) {
    if (!c.error.empty()) return fail(c.error);
    dense = dense && c.dense;
  }
  idx->dense_ = dense;
  idx->layout_ = std::move(layout);
  return idx;
}

}  // namespace tokyonet::core
