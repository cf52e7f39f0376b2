#include "analysis/ratios.h"

#include <span>

#include "analysis/query/scan.h"
#include "analysis/query/source.h"
#include "core/dataset_index.h"

namespace tokyonet::analysis {
namespace {

/// One sample's contribution to a (traffic, users) profile pair: its
/// WiFi and total download bytes (only when it downloaded anything) and
/// whether it was associated, out of one sample.
void add_ratio_sample(WeeklyProfile& traffic, WeeklyProfile& users, int hour,
                      std::uint32_t wifi_rx, std::uint32_t cell_rx,
                      bool associated) noexcept {
  const std::uint64_t total = std::uint64_t{wifi_rx} + cell_rx;
  if (total > 0) traffic.add_hour(hour, wifi_rx, total);
  users.add_hour(hour, associated ? 1 : 0);
}

void merge(WifiRatios& into, const WifiRatios& from) noexcept {
  into.traffic_all.merge(from.traffic_all);
  into.users_all.merge(from.users_all);
  into.traffic_heavy.merge(from.traffic_heavy);
  into.traffic_light.merge(from.traffic_light);
  into.users_heavy.merge(from.users_heavy);
  into.users_light.merge(from.users_light);
}

/// One block's profiles. `klass` holds each (global device, day)'s user
/// class; the block's device d is global device `base + d`.
[[nodiscard]] WifiRatios ratios_scan(const Dataset& ds, std::size_t base,
                                     const std::vector<UserClass>& klass) {
  const auto num_days = static_cast<std::size_t>(ds.num_days());
  const core::DatasetIndex& idx = ds.index();
  const std::span<const TimeBin> bin = ds.samples.bin;
  const std::span<const std::uint32_t> wifi_rx = ds.samples.wifi_rx;
  const std::span<const std::uint32_t> cell_rx = ds.samples.cell_rx;
  const std::span<const WifiState> state = ds.samples.wifi_state;
  const std::span<const std::uint16_t> how = idx.hour_of_week_table();
  // Every profile sum is an exact integer, so the device-block partials
  // merge to the same bytes at any thread count.
  const std::vector<WifiRatios> partials = query::map_device_blocks(
      ds.devices.size(), [&](std::size_t d0, std::size_t d1) {
        WifiRatios r;
        for (std::size_t d = d0; d < d1; ++d) {
          const UserClass* day_class = klass.data() + (base + d) * num_days;
          for (std::size_t i = idx.device_begin(d); i < idx.device_end(d);
               ++i) {
            const TimeBin b = bin[i];
            const int h = how[b];
            const bool assoc = state[i] == WifiState::Associated;
            add_ratio_sample(r.traffic_all, r.users_all, h, wifi_rx[i],
                             cell_rx[i], assoc);
            const UserClass k =
                day_class[static_cast<std::size_t>(ds.calendar.day_of(b))];
            if (k == UserClass::Heavy) {
              add_ratio_sample(r.traffic_heavy, r.users_heavy, h, wifi_rx[i],
                               cell_rx[i], assoc);
            } else if (k == UserClass::Light) {
              add_ratio_sample(r.traffic_light, r.users_light, h, wifi_rx[i],
                               cell_rx[i], assoc);
            }
          }
        }
        return r;
      });
  WifiRatios r;
  for (const WifiRatios& partial : partials) merge(r, partial);
  return r;
}

}  // namespace

WifiRatios compute_wifi_ratios(const query::DataSource& src,
                               const std::vector<UserDay>& days,
                               const UserClassifier& classes) {
  // (global device, day) -> class lookup.
  const auto num_days = static_cast<std::size_t>(src.num_days());
  std::vector<UserClass> klass(src.n_devices() * num_days,
                               UserClass::Neither);
  for (const UserDay& d : days) {
    klass[value(d.device) * num_days + static_cast<std::size_t>(d.day)] =
        classes.classify(d);
  }
  return src.reduce<WifiRatios>(
      [&](const Dataset& block, std::size_t base) {
        return ratios_scan(block, base, klass);
      },
      [](WifiRatios& acc, WifiRatios&& p) { merge(acc, p); });
}

}  // namespace tokyonet::analysis
