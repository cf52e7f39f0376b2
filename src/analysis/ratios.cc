#include "analysis/ratios.h"

#include <array>

#include "analysis/query/scan.h"
#include "analysis/query/source.h"
#include "core/dataset_index.h"

namespace tokyonet::analysis {
namespace {

void merge(WifiRatios& into, const WifiRatios& from) noexcept {
  into.traffic_all.merge(from.traffic_all);
  into.users_all.merge(from.users_all);
  into.traffic_heavy.merge(from.traffic_heavy);
  into.traffic_light.merge(from.traffic_light);
  into.users_heavy.merge(from.users_heavy);
  into.users_light.merge(from.users_light);
}

void merge(std::vector<WifiRatios>& into, const std::vector<WifiRatios>& from) {
  for (std::size_t k = 0; k < into.size(); ++k) merge(into[k], from[k]);
}

/// One hour of one device-day: the sums its samples add to a (traffic,
/// users) profile pair. Traffic is Σ wifi_rx over Σ (wifi_rx + cell_rx)
/// (a sample that downloaded nothing adds 0 to both); users is the
/// associated samples over all samples.
struct HourSlot {
  std::uint64_t wifi_rx = 0, total_rx = 0, associated = 0, samples = 0;
};

void add_slot(WeeklyProfile& traffic, WeeklyProfile& users, int hour,
              const HourSlot& s) noexcept {
  traffic.add_hour(hour, s.wifi_rx, s.total_rx);
  users.add_hour(hour, s.associated, s.samples);
}

/// One block's profiles for every classifier. `klass` holds, per (global
/// device, day), the class each of the `n_classes` classifiers gives it;
/// the block's device d is global device `base + d`. The all-user
/// profiles are kept in entry 0 only and copied out after the last
/// merge.
[[nodiscard]] std::vector<WifiRatios> ratios_scan(
    const Dataset& ds, std::size_t base, const std::vector<UserClass>& klass,
    std::size_t n_classes) {
  const int num_days = ds.num_days();
  const core::DatasetIndex& idx = ds.index();
  const std::span<const TimeBin> bin = ds.samples.bin;
  const std::span<const std::uint32_t> wifi_rx = ds.samples.wifi_rx;
  const std::span<const std::uint32_t> cell_rx = ds.samples.cell_rx;
  const std::span<const WifiState> state = ds.samples.wifi_state;
  const std::span<const std::uint16_t> how = idx.hour_of_week_table();
  // Every profile sum is an exact integer, so the device-block partials
  // merge to the same bytes at any thread count, and summing a day's
  // hour into a slot first only regroups the additions.
  const std::vector<std::vector<WifiRatios>> partials =
      query::map_device_blocks(
          ds.devices.size(), [&](std::size_t d0, std::size_t d1) {
            std::vector<WifiRatios> r(n_classes);
            for (std::size_t d = d0; d < d1; ++d) {
              for (int day = 0; day < num_days; ++day) {
                const std::size_t begin = idx.day_begin(d, day);
                const std::size_t end = idx.day_begin(d, day + 1);
                if (begin == end) continue;
                const int day_start = day * kBinsPerDay;
                std::array<HourSlot, 24> slot{};
                for (std::size_t i = begin; i < end; ++i) {
                  HourSlot& h = slot[static_cast<std::size_t>(
                      (bin[i] - day_start) / kBinsPerHour)];
                  h.wifi_rx += wifi_rx[i];
                  h.total_rx += std::uint64_t{wifi_rx[i]} + cell_rx[i];
                  h.associated += state[i] == WifiState::Associated;
                  ++h.samples;
                }
                const UserClass* day_class =
                    klass.data() +
                    ((base + d) * static_cast<std::size_t>(num_days) +
                     static_cast<std::size_t>(day)) *
                        n_classes;
                for (int h = 0; h < 24; ++h) {
                  const HourSlot& s = slot[static_cast<std::size_t>(h)];
                  if (s.samples == 0) continue;
                  const int hw = how[static_cast<std::size_t>(
                      day_start + h * kBinsPerHour)];
                  add_slot(r[0].traffic_all, r[0].users_all, hw, s);
                  for (std::size_t k = 0; k < n_classes; ++k) {
                    if (day_class[k] == UserClass::Heavy) {
                      add_slot(r[k].traffic_heavy, r[k].users_heavy, hw, s);
                    } else if (day_class[k] == UserClass::Light) {
                      add_slot(r[k].traffic_light, r[k].users_light, hw, s);
                    }
                  }
                }
              }
            }
            return r;
          });
  std::vector<WifiRatios> r(n_classes);
  for (const std::vector<WifiRatios>& partial : partials) merge(r, partial);
  return r;
}

}  // namespace

WifiRatios compute_wifi_ratios(const query::DataSource& src,
                               const std::vector<UserDay>& days,
                               const UserClassifier& classes) {
  return std::move(compute_wifi_ratios(src, days, {&classes, 1}).front());
}

std::vector<WifiRatios> compute_wifi_ratios(
    const query::DataSource& src, const std::vector<UserDay>& days,
    std::span<const UserClassifier> classes) {
  if (classes.empty()) return {};
  // (global device, day, classifier) -> class lookup.
  const std::size_t n_classes = classes.size();
  const auto num_days = static_cast<std::size_t>(src.num_days());
  std::vector<UserClass> klass(src.n_devices() * num_days * n_classes,
                               UserClass::Neither);
  for (const UserDay& d : days) {
    UserClass* day_class =
        klass.data() +
        (value(d.device) * num_days + static_cast<std::size_t>(d.day)) *
            n_classes;
    for (std::size_t k = 0; k < n_classes; ++k) {
      day_class[k] = classes[k].classify(d);
    }
  }
  std::vector<WifiRatios> out = src.reduce<std::vector<WifiRatios>>(
      [&](const Dataset& block, std::size_t base) {
        return ratios_scan(block, base, klass, n_classes);
      },
      [](std::vector<WifiRatios>& acc, std::vector<WifiRatios>&& p) {
        merge(acc, p);
      });
  out.resize(n_classes);  // a source that delivered no block
  for (std::size_t k = 1; k < out.size(); ++k) {
    out[k].traffic_all = out[0].traffic_all;
    out[k].users_all = out[0].users_all;
  }
  return out;
}

}  // namespace tokyonet::analysis
