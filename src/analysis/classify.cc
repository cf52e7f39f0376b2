#include "analysis/classify.h"

#include <algorithm>
#include <map>
#include <set>
#include <span>
#include <unordered_map>

#include "analysis/query/source.h"
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
                                        std::size_t d, int min_bins) {
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

ApClassification classify_aps(const query::DataSource& src,
                              const ClassifyOptions& opt) {
  const int min_bins =
      static_cast<int>(opt.home_presence_threshold * night_window_bins(opt));
  const std::vector<ApInfo>& aps = src.aps();
  const std::size_t n_aps = aps.size();
  ApClassification out;
  out.ap_class.assign(n_aps, ApClass::Other);
  out.associated.assign(n_aps, false);
  out.is_office.assign(n_aps, false);
  out.is_mobile.assign(n_aps, false);
  out.home_ap_of_device.reserve(src.n_devices());
  std::vector<int> assoc_bins(n_aps, 0);
  std::vector<int> office_window_bins(n_aps, 0);
  std::vector<std::set<GeoCell>> cells_seen(n_aps);

  // Per-device scans run in parallel; each returns the compact per-AP
  // statistics its stream contributes plus its home-AP verdict. The
  // ordered merge adds counts and unions cell sets, so the per-AP totals
  // equal a serial one-pass scan exactly.
  src.fold<std::vector<DeviceApStats>>(
      [&](const Dataset& block, std::size_t) {
        return core::parallel_map(block.devices.size(), [&](std::size_t d) {
          return scan_device(block, opt, d, min_bins);
        });
      },
      [&](std::vector<DeviceApStats>&& per_device, std::size_t) {
        for (const DeviceApStats& stats : per_device) {
          for (const DeviceApStats::PerAp& per_ap : stats.aps) {
            out.associated[per_ap.ap] = true;
            assoc_bins[per_ap.ap] += per_ap.assoc_bins;
            office_window_bins[per_ap.ap] += per_ap.office_window_bins;
            cells_seen[per_ap.ap].insert(per_ap.cells_seen.begin(),
                                         per_ap.cells_seen.end());
          }
          out.home_ap_of_device.push_back(ApId{stats.home_ap});
          if (stats.home_ap != value(kNoAp)) {
            out.ap_class[stats.home_ap] = ApClass::Home;
          }
        }
      });

  // Non-home APs: public by ESSID, rest Other (with office/mobile
  // estimation).
  for (std::size_t i = 0; i < n_aps; ++i) {
    if (!out.associated[i] || out.ap_class[i] == ApClass::Home) continue;
    if (net::is_public_essid(aps[i].essid)) {
      out.ap_class[i] = ApClass::Public;
      continue;
    }
    if (static_cast<int>(cells_seen[i].size()) >= opt.mobile_min_cells) {
      out.is_mobile[i] = true;
      continue;
    }
    if (assoc_bins[i] >= opt.office_min_bins &&
        office_window_bins[i] >= opt.office_window_share * assoc_bins[i]) {
      out.is_office[i] = true;
    }
  }
  return out;
}

}  // namespace tokyonet::analysis
