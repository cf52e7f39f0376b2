#include "analysis/availability.h"

#include <algorithm>
#include <cstdint>
#include <span>

#include "analysis/common.h"
#include "analysis/query/source.h"
#include "core/dataset_index.h"
#include "core/parallel.h"
#include "stats/simd.h"

namespace tokyonet::analysis {
namespace {

[[nodiscard]] ScanAvailability availability_scan(const Dataset& ds) {
  ScanAvailability out;

  const core::DatasetIndex& idx = ds.index();
  // Two passes. Pass 1 counts each device's WiFi-available samples with
  // a SIMD byte-compare, giving exact output offsets via a prefix sum;
  // pass 2 fills the final vectors in place at those offsets. No
  // partial vectors, no reallocation, no concatenation — and the
  // emission order is the (device, bin) sample order by construction,
  // identical at any thread count or device partitioning.
  const std::span<const WifiState> state = ds.samples.wifi_state;
  const auto* state_u8 = reinterpret_cast<const std::uint8_t*>(state.data());
  constexpr auto kAvail = static_cast<std::uint8_t>(WifiState::OnUnassociated);
  const std::span<const std::uint8_t> a24 = ds.samples.scan_pub24_all;
  const std::span<const std::uint8_t> s24 = ds.samples.scan_pub24_strong;
  const std::span<const std::uint8_t> a5 = ds.samples.scan_pub5_all;
  const std::span<const std::uint8_t> s5 = ds.samples.scan_pub5_strong;
  const std::size_t n_devices = ds.devices.size();

  std::vector<std::size_t> offset(n_devices + 1, 0);
  core::parallel_for(n_devices, [&](std::size_t d) {
    if (ds.devices[d].os != Os::Android) return;
    const std::size_t begin = idx.device_begin(d);
    offset[d + 1] = stats::simd::count_eq_u8(
        state_u8 + begin, idx.device_end(d) - begin, kAvail);
  });
  for (std::size_t d = 0; d < n_devices; ++d) offset[d + 1] += offset[d];

  const std::size_t total = offset[n_devices];
  out.all_24.resize(total);
  out.strong_24.resize(total);
  out.all_5.resize(total);
  out.strong_5.resize(total);
  core::parallel_for(n_devices, [&](std::size_t d) {
    if (ds.devices[d].os != Os::Android) return;
    std::size_t pos = offset[d];
    const std::size_t end = idx.device_end(d);
    for (std::size_t i = idx.device_begin(d); i < end; ++i) {
      if (state[i] != WifiState::OnUnassociated) continue;
      out.all_24[pos] = a24[i];
      out.strong_24[pos] = s24[i];
      out.all_5[pos] = a5[i];
      out.strong_5[pos] = s5[i];
      ++pos;
    }
  });
  return out;
}

/// One device's §3.5 tallies — a pure function of that device's stream,
/// so per-block vectors concatenate in device order into the campaign's
/// metrics at any shard count.
struct OffloadDeviceMetrics {
  bool counted = false;  // Android with >= 1 sample
  std::size_t n = 0;
  std::size_t unassoc = 0, unassoc_strong = 0;
  double cell_rx_total = 0, cell_rx_covered = 0;
};

[[nodiscard]] std::vector<OffloadDeviceMetrics> device_metrics_scan(
    const Dataset& ds) {
  // Per-device metrics, computed in parallel over the index when it is
  // available. The indexed path accumulates byte totals as exact u64
  // sums and converts to MB once per device, so every partial is
  // grouping-independent and the cross-device fold in
  // opportunity_from_metrics() (serial, in device order) gives the same
  // result at any thread count.
  const core::DatasetIndex& idx = ds.index();
  return core::parallel_map(
      ds.devices.size(), [&](std::size_t d) {
        OffloadDeviceMetrics m;
        if (ds.devices[d].os != Os::Android) return m;
        const std::size_t begin = idx.device_begin(d);
        const std::size_t end = idx.device_end(d);
        if (begin == end) return m;
        m.counted = true;
        m.n = end - begin;
        const std::span<const std::uint32_t> cell_rx = ds.samples.cell_rx;
        const std::span<const WifiState> state = ds.samples.wifi_state;
        const std::span<const std::uint8_t> s24 = ds.samples.scan_pub24_strong;
        const std::span<const std::uint8_t> s5 = ds.samples.scan_pub5_strong;
        std::uint64_t covered_bytes = 0;
        for (std::size_t i = begin; i < end; ++i) {
          const bool unassoc = state[i] == WifiState::OnUnassociated;
          const bool strong = unassoc && s24[i] + s5[i] > 0;
          m.unassoc += unassoc;
          m.unassoc_strong += strong;
          covered_bytes += strong ? std::uint64_t{cell_rx[i]} : 0;
        }
        m.cell_rx_total =
            static_cast<double>(stats::simd::sum_u32(
                cell_rx.data() + begin, end - begin)) /
            kBytesPerMb;
        m.cell_rx_covered = static_cast<double>(covered_bytes) / kBytesPerMb;
        return m;
      });
}

[[nodiscard]] OffloadOpportunity opportunity_from_metrics(
    const std::vector<OffloadDeviceMetrics>& metrics,
    const OpportunityOptions& opt) {
  OffloadOpportunity out;
  double offloadable_sum = 0;  // of per-user shares
  int offloadable_n = 0;
  for (const OffloadDeviceMetrics& m : metrics) {
    if (!m.counted) continue;
    const double avail_share =
        static_cast<double>(m.unassoc) / static_cast<double>(m.n);
    if (avail_share < opt.available_state_share) continue;

    ++out.num_wifi_available_users;
    const double stable_share =
        m.unassoc > 0 ? static_cast<double>(m.unassoc_strong) /
                            static_cast<double>(m.unassoc)
                      : 0;
    if (stable_share >= opt.stable_bin_share) {
      out.users_with_stable_opportunity += 1;
      if (m.cell_rx_total > 0) {
        offloadable_sum += m.cell_rx_covered / m.cell_rx_total;
        ++offloadable_n;
      }
    }
  }
  if (out.num_wifi_available_users > 0) {
    out.users_with_stable_opportunity /= out.num_wifi_available_users;
  }
  if (offloadable_n > 0) {
    out.offloadable_cell_share = offloadable_sum / offloadable_n;
  }
  return out;
}

}  // namespace

ScanAvailability scan_availability(const query::DataSource& src) {
  // Per-block series are emitted in (device, bin) order, so appending
  // them in block order reproduces the campaign's emission order.
  return src.reduce<ScanAvailability>(
      [](const Dataset& block, std::size_t) {
        return availability_scan(block);
      },
      [](ScanAvailability& acc, ScanAvailability&& p) {
        const auto append = [](std::vector<double>& into,
                               const std::vector<double>& from) {
          into.insert(into.end(), from.begin(), from.end());
        };
        append(acc.all_24, p.all_24);
        append(acc.strong_24, p.strong_24);
        append(acc.all_5, p.all_5);
        append(acc.strong_5, p.strong_5);
      });
}

OffloadOpportunity offload_opportunity(const query::DataSource& src,
                                       const OpportunityOptions& opt) {
  return opportunity_from_metrics(
      src.concat<OffloadDeviceMetrics>([](const Dataset& block, std::size_t) {
        return device_metrics_scan(block);
      }),
      opt);
}

}  // namespace tokyonet::analysis
