#include "analysis/ratios.h"

#include <span>

#include "core/dataset_index.h"
#include "core/parallel.h"

namespace tokyonet::analysis {
namespace {

void merge(WifiRatios& into, const WifiRatios& from) {
  into.traffic_all.merge(from.traffic_all);
  into.users_all.merge(from.users_all);
  into.traffic_heavy.merge(from.traffic_heavy);
  into.traffic_light.merge(from.traffic_light);
  into.users_heavy.merge(from.users_heavy);
  into.users_light.merge(from.users_light);
}

}  // namespace

WifiRatios compute_wifi_ratios(const Dataset& ds,
                               const std::vector<UserDay>& days,
                               const UserClassifier& classes) {
  // (device, day) -> class lookup.
  const auto num_days = static_cast<std::size_t>(ds.num_days());
  std::vector<UserClass> klass(ds.devices.size() * num_days,
                               UserClass::Neither);
  for (const UserDay& d : days) {
    klass[value(d.device) * num_days + static_cast<std::size_t>(d.day)] =
        classes.classify(d);
  }

  const CampaignCalendar& cal = ds.calendar;
  // One partial result per device, reduced in device order: the sums
  // are grouped per device rather than interleaved, but the grouping is
  // fixed, so the result is identical at any thread count.
  const core::DatasetIndex& idx = ds.index();
  const std::span<const TimeBin> bin = ds.samples.bin;
  const std::span<const std::uint32_t> wifi_rx = ds.samples.wifi_rx;
  const std::span<const std::uint32_t> cell_rx = ds.samples.cell_rx;
  const std::span<const WifiState> state = ds.samples.wifi_state;
  const std::vector<WifiRatios> partials =
      core::parallel_map(ds.devices.size(), [&](std::size_t d) {
        WifiRatios r;
        for (std::size_t i = idx.device_begin(d); i < idx.device_end(d); ++i) {
          const TimeBin b = bin[i];
          const double wifi = wifi_rx[i] / kBytesPerMb;
          const double total = wifi + cell_rx[i] / kBytesPerMb;
          const double assoc =
              state[i] == WifiState::Associated ? 1.0 : 0.0;
          const UserClass k =
              klass[d * num_days + static_cast<std::size_t>(cal.day_of(b))];
          if (total > 0) r.traffic_all.add(cal, b, wifi, total);
          r.users_all.add(cal, b, assoc, 1.0);
          if (k == UserClass::Heavy) {
            if (total > 0) r.traffic_heavy.add(cal, b, wifi, total);
            r.users_heavy.add(cal, b, assoc, 1.0);
          } else if (k == UserClass::Light) {
            if (total > 0) r.traffic_light.add(cal, b, wifi, total);
            r.users_light.add(cal, b, assoc, 1.0);
          }
        }
        return r;
      });

  WifiRatios r;
  for (const WifiRatios& partial : partials) merge(r, partial);
  return r;
}

}  // namespace tokyonet::analysis
