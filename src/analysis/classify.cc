#include "analysis/classify.h"

#include <algorithm>
#include <map>
#include <set>
#include <span>
#include <unordered_map>

#include "core/dataset_index.h"
#include "core/parallel.h"
#include "net/essid.h"

namespace tokyonet::analysis {
namespace {

/// Number of 10-minute bins in the nightly window.
[[nodiscard]] int night_window_bins(const ClassifyOptions& opt) noexcept {
  int hours = opt.night_to_hour - opt.night_from_hour;
  if (hours <= 0) hours += 24;
  return hours * kBinsPerHour;
}

/// Association statistics one device contributes to the per-AP
/// aggregates, plus its nightly home-AP verdict. A device touches only
/// a handful of APs, so this stays compact and the per-AP arrays are
/// only materialized once, during the ordered merge.
struct DeviceApStats {
  struct PerAp {
    std::uint32_t ap = 0;
    int assoc_bins = 0;
    int office_window_bins = 0;
    std::set<GeoCell> cells_seen;
  };
  std::vector<PerAp> aps;  // in order of first association
  std::uint32_t home_ap = value(kNoAp);
};

/// Scans one device's samples. Pure function of that device's stream,
/// so devices can run concurrently; all counts merge by addition and
/// set union, which are grouping-independent.
[[nodiscard]] DeviceApStats scan_device(const Dataset& ds,
                                        const ClassifyOptions& opt,
                                        const DeviceInfo& dev,
                                        int min_bins) {
  DeviceApStats stats;
  std::unordered_map<std::uint32_t, std::size_t> ap_index;
  std::unordered_map<std::uint32_t, int> night_counts;  // per device-day
  std::unordered_map<std::uint32_t, int> home_votes;

  // Nightly windows: a window belongs to the day it starts in (22:00 of
  // day d through 06:00 of day d+1).
  int window_day = -1;
  auto flush_window = [&]() {
    if (window_day < 0) return;
    // Most-present AP in this night's window.
    std::uint32_t best_ap = value(kNoAp);
    int best = 0;
    for (const auto& [ap, n] : night_counts) {
      if (n > best) {
        best = n;
        best_ap = ap;
      }
    }
    if (best >= min_bins && best_ap != value(kNoAp)) {
      ++home_votes[best_ap];
    }
    night_counts.clear();
    window_day = -1;
  };

  const core::DatasetIndex& idx = ds.index();
  const std::span<const TimeBin> bins = ds.samples.bin;
  const std::span<const WifiState> state = ds.samples.wifi_state;
  const std::span<const std::uint32_t> aps = ds.samples.ap;
  const std::span<const GeoCell> geo = ds.samples.geo_cell;
  const std::size_t d = value(dev.id);
  for (std::size_t i = idx.device_begin(d); i < idx.device_end(d); ++i) {
    const TimeBin bin = bins[i];
    const bool associated = state[i] == WifiState::Associated &&
                            aps[i] != value(kNoAp);
    if (associated) {
      const std::uint32_t ap = aps[i];
      auto [it, inserted] = ap_index.try_emplace(ap, stats.aps.size());
      if (inserted) {
        stats.aps.emplace_back();
        stats.aps.back().ap = ap;
      }
      DeviceApStats::PerAp& per_ap = stats.aps[it->second];
      ++per_ap.assoc_bins;
      if (geo[i] != kNoGeoCell) {
        per_ap.cells_seen.insert(geo[i]);
      }
      const bool weekday = !ds.calendar.is_weekend(bin);
      if (weekday && ds.calendar.in_hour_window(bin, opt.office_from_hour,
                                                opt.office_to_hour)) {
        ++per_ap.office_window_bins;
      }
    }

    // Maintain the rolling nightly window.
    const int hour = ds.calendar.hour_of(bin);
    const bool in_night = ds.calendar.in_hour_window(
        bin, opt.night_from_hour, opt.night_to_hour);
    if (in_night) {
      const int day = ds.calendar.day_of(bin);
      const int wd = hour >= opt.night_from_hour ? day : day - 1;
      if (wd != window_day) {
        flush_window();
        window_day = wd;
      }
      if (associated) ++night_counts[aps[i]];
    } else if (window_day >= 0) {
      flush_window();
    }
  }
  flush_window();

  // The device's home AP is its most frequent nightly candidate.
  int best = 0;
  for (const auto& [ap, votes] : home_votes) {
    if (votes > best) {
      best = votes;
      stats.home_ap = ap;
    }
  }
  return stats;
}

}  // namespace

ApClassification::Counts ApClassification::counts() const {
  Counts c;
  for (std::size_t i = 0; i < ap_class.size(); ++i) {
    if (!associated[i]) continue;
    ++c.total;
    switch (ap_class[i]) {
      case ApClass::Home: ++c.home; break;
      case ApClass::Public: ++c.publik; break;
      case ApClass::Other:
        ++c.other;
        if (is_office[i]) ++c.office;
        break;
    }
  }
  return c;
}

double ApClassification::home_ap_device_share() const {
  if (home_ap_of_device.empty()) return 0;
  std::size_t with = 0;
  for (ApId id : home_ap_of_device) with += id != kNoAp;
  return static_cast<double>(with) /
         static_cast<double>(home_ap_of_device.size());
}

struct ApClassificationBuilder::Impl {
  ClassifyOptions opt;
  int min_bins = 0;
  ApClassification out;
  std::vector<int> assoc_bins;
  std::vector<int> office_window_bins_count;
  std::vector<std::set<GeoCell>> cells_seen;
};

ApClassificationBuilder::ApClassificationBuilder(std::size_t n_devices,
                                                 std::size_t n_aps,
                                                 const ClassifyOptions& opt)
    : impl_(std::make_unique<Impl>()) {
  impl_->opt = opt;
  impl_->min_bins =
      static_cast<int>(opt.home_presence_threshold * night_window_bins(opt));
  impl_->out.ap_class.assign(n_aps, ApClass::Other);
  impl_->out.associated.assign(n_aps, false);
  impl_->out.is_office.assign(n_aps, false);
  impl_->out.is_mobile.assign(n_aps, false);
  impl_->out.home_ap_of_device.assign(n_devices, kNoAp);
  impl_->assoc_bins.assign(n_aps, 0);
  impl_->office_window_bins_count.assign(n_aps, 0);
  impl_->cells_seen.resize(n_aps);
}

ApClassificationBuilder::~ApClassificationBuilder() = default;

struct ApClassificationBuilder::BlockStats::Impl {
  std::vector<DeviceApStats> per_device;
  std::vector<DeviceInfo> devices;  // the block's (local-id) device table
};

ApClassificationBuilder::BlockStats::BlockStats() = default;
ApClassificationBuilder::BlockStats::BlockStats(BlockStats&&) noexcept =
    default;
ApClassificationBuilder::BlockStats&
ApClassificationBuilder::BlockStats::operator=(BlockStats&&) noexcept =
    default;
ApClassificationBuilder::BlockStats::~BlockStats() = default;

ApClassificationBuilder::BlockStats ApClassificationBuilder::scan_block(
    const Dataset& block) const {
  // Per-device scans run in parallel; each returns the compact per-AP
  // statistics its stream contributes plus its home-AP verdict. Only
  // impl_->opt / impl_->min_bins are read, so concurrent scan_block()
  // calls on different blocks never race.
  BlockStats stats;
  stats.impl_ = std::make_unique<BlockStats::Impl>();
  stats.impl_->per_device =
      core::parallel_map(block.devices.size(), [&](std::size_t i) {
        return scan_device(block, impl_->opt, block.devices[i],
                           impl_->min_bins);
      });
  stats.impl_->devices = block.devices;
  return stats;
}

void ApClassificationBuilder::merge_block(BlockStats block_stats,
                                          std::size_t device_base) {
  // Ordered merge into the per-AP aggregates. Counts merge by addition
  // and cell sets by union, so the merged totals equal the serial
  // one-pass totals exactly.
  const std::vector<DeviceApStats>& per_device =
      block_stats.impl_->per_device;
  const std::vector<DeviceInfo>& block_devices = block_stats.impl_->devices;
  ApClassification& out = impl_->out;
  for (std::size_t i = 0; i < per_device.size(); ++i) {
    const DeviceApStats& stats = per_device[i];
    for (const DeviceApStats::PerAp& per_ap : stats.aps) {
      out.associated[per_ap.ap] = true;
      impl_->assoc_bins[per_ap.ap] += per_ap.assoc_bins;
      impl_->office_window_bins_count[per_ap.ap] += per_ap.office_window_bins;
      impl_->cells_seen[per_ap.ap].insert(per_ap.cells_seen.begin(),
                                          per_ap.cells_seen.end());
    }
    if (stats.home_ap != value(kNoAp)) {
      out.home_ap_of_device[device_base + value(block_devices[i].id)] =
          ApId{stats.home_ap};
      out.ap_class[stats.home_ap] = ApClass::Home;
    }
  }
}

void ApClassificationBuilder::add_device_block(const Dataset& block,
                                               std::size_t device_base) {
  merge_block(scan_block(block), device_base);
}

ApClassification ApClassificationBuilder::finish(
    const std::vector<ApInfo>& aps) {
  // Non-home APs: public by ESSID, rest Other (with office/mobile
  // estimation).
  ApClassification& out = impl_->out;
  const ClassifyOptions& opt = impl_->opt;
  const std::size_t n_aps = out.ap_class.size();
  for (std::size_t i = 0; i < n_aps; ++i) {
    if (!out.associated[i] || out.ap_class[i] == ApClass::Home) continue;
    if (net::is_public_essid(aps[i].essid)) {
      out.ap_class[i] = ApClass::Public;
      continue;
    }
    out.ap_class[i] = ApClass::Other;
    if (static_cast<int>(impl_->cells_seen[i].size()) >=
        opt.mobile_min_cells) {
      out.is_mobile[i] = true;
      continue;
    }
    if (impl_->assoc_bins[i] >= opt.office_min_bins &&
        impl_->office_window_bins_count[i] >=
            opt.office_window_share * impl_->assoc_bins[i]) {
      out.is_office[i] = true;
    }
  }
  return std::move(out);
}

ApClassification classify_aps(const Dataset& ds, const ClassifyOptions& opt) {
  ApClassificationBuilder builder(ds.devices.size(), ds.aps.size(), opt);
  builder.add_device_block(ds, 0);
  return builder.finish(ds.aps);
}

}  // namespace tokyonet::analysis
