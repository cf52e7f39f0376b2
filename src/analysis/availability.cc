#include "analysis/availability.h"

#include <algorithm>
#include <cstdint>
#include <span>

#include "analysis/common.h"
#include "analysis/query/scan.h"
#include "analysis/query/source.h"
#include "core/dataset_index.h"
#include "core/parallel.h"
#include "stats/simd.h"

namespace tokyonet::analysis {
namespace {

void merge(ScanCountHistogram& into, const ScanCountHistogram& from) noexcept {
  for (std::size_t v = 0; v < into.count.size(); ++v) {
    into.count[v] += from.count[v];
  }
}

void merge(ScanAvailability& into, const ScanAvailability& from) noexcept {
  merge(into.all_24, from.all_24);
  merge(into.strong_24, from.strong_24);
  merge(into.all_5, from.all_5);
  merge(into.strong_5, from.strong_5);
}

// Sample counts per scan value: exact u64 sums, so the 16-device-block
// partials (and shard partials) add to the same histograms in any
// grouping.
[[nodiscard]] ScanAvailability availability_scan(const Dataset& ds) {
  const core::DatasetIndex& idx = ds.index();
  const std::span<const WifiState> state = ds.samples.wifi_state;
  const std::span<const std::uint8_t> a24 = ds.samples.scan_pub24_all;
  const std::span<const std::uint8_t> s24 = ds.samples.scan_pub24_strong;
  const std::span<const std::uint8_t> a5 = ds.samples.scan_pub5_all;
  const std::span<const std::uint8_t> s5 = ds.samples.scan_pub5_strong;
  const std::vector<ScanAvailability> partials = query::map_device_blocks(
      ds.devices.size(), [&](std::size_t d0, std::size_t d1) {
        ScanAvailability p;
        for (std::size_t d = d0; d < d1; ++d) {
          if (ds.devices[d].os != Os::Android) continue;
          for (std::size_t i = idx.device_begin(d); i < idx.device_end(d);
               ++i) {
            if (state[i] != WifiState::OnUnassociated) continue;
            ++p.all_24.count[a24[i]];
            ++p.strong_24.count[s24[i]];
            ++p.all_5.count[a5[i]];
            ++p.strong_5.count[s5[i]];
          }
        }
        return p;
      });
  ScanAvailability out;
  for (const ScanAvailability& p : partials) merge(out, p);
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

std::uint64_t ScanCountHistogram::samples() const noexcept {
  std::uint64_t n = 0;
  for (const std::uint64_t c : count) n += c;
  return n;
}

double ScanCountHistogram::ccdf(double x) const noexcept {
  const std::uint64_t n = samples();
  if (n == 0) return 1.0;
  std::uint64_t at_most = 0;
  for (std::size_t v = 0; v < count.size() && static_cast<double>(v) <= x;
       ++v) {
    at_most += count[v];
  }
  return 1.0 - static_cast<double>(at_most) / static_cast<double>(n);
}

ScanAvailability scan_availability(const query::DataSource& src) {
  return src.reduce<ScanAvailability>(
      [](const Dataset& block, std::size_t) {
        return availability_scan(block);
      },
      [](ScanAvailability& acc, ScanAvailability&& p) { merge(acc, p); });
}

OffloadOpportunity offload_opportunity(const query::DataSource& src,
                                       const OpportunityOptions& opt) {
  return offload_opportunity(src, {&opt, 1}).front();
}

std::vector<OffloadOpportunity> offload_opportunity(
    const query::DataSource& src, std::span<const OpportunityOptions> opts) {
  const std::vector<OffloadDeviceMetrics> metrics =
      src.concat<OffloadDeviceMetrics>([](const Dataset& block, std::size_t) {
        return device_metrics_scan(block);
      });
  std::vector<OffloadOpportunity> out;
  out.reserve(opts.size());
  for (const OpportunityOptions& opt : opts) {
    out.push_back(opportunity_from_metrics(metrics, opt));
  }
  return out;
}

}  // namespace tokyonet::analysis
