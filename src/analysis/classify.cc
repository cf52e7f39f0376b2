#include "analysis/classify.h"

#include <algorithm>
#include <array>
#include <limits>
#include <memory>
#include <set>
#include <span>
#include <utility>

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

/// The classifier's clock windows, resolved once per bin of day (and
/// the weekday test once per campaign day) instead of per sample.
struct BinWindows {
  std::array<bool, kBinsPerDay> night{};   // in the nightly window
  std::array<bool, kBinsPerDay> late{};    // night bin before midnight
  std::array<bool, kBinsPerDay> office{};  // in the office hours
  std::vector<bool> weekday;               // per campaign day

  BinWindows(const CampaignCalendar& cal, const ClassifyOptions& opt)
      : weekday(static_cast<std::size_t>(cal.num_days())) {
    for (int b = 0; b < kBinsPerDay; ++b) {
      const auto bin = static_cast<TimeBin>(b);
      const auto i = static_cast<std::size_t>(b);
      night[i] =
          cal.in_hour_window(bin, opt.night_from_hour, opt.night_to_hour);
      late[i] = cal.hour_of(bin) >= opt.night_from_hour;
      office[i] =
          cal.in_hour_window(bin, opt.office_from_hour, opt.office_to_hour);
    }
    for (int day = 0; day < cal.num_days(); ++day) {
      weekday[static_cast<std::size_t>(day)] = !cal.is_weekend_day(day);
    }
  }
};

/// Per-AP counts of one device: a handful of APs, so a flat list.
using ApCounts = std::vector<std::pair<std::uint32_t, int>>;

void add_count(ApCounts& counts, std::uint32_t ap, int n) {
  const auto it = std::find_if(counts.begin(), counts.end(),
                               [ap](const auto& c) { return c.first == ap; });
  if (it == counts.end()) {
    counts.emplace_back(ap, n);
  } else {
    it->second += n;
  }
}

/// The AP with the largest count, the lowest AP id among equal counts
/// (kNoAp and 0 when `counts` is empty).
[[nodiscard]] std::pair<std::uint32_t, int> max_count(const ApCounts& counts) {
  std::pair<std::uint32_t, int> best{value(kNoAp), 0};
  for (const auto& [ap, n] : counts) {
    if (n > best.second || (n == best.second && ap < best.first)) {
      best = {ap, n};
    }
  }
  return best;
}

/// Association statistics one device contributes to the per-AP
/// aggregates, plus its home-AP verdict under each threshold of the
/// sweep. A device touches only a handful of APs, so this stays compact
/// and the per-AP arrays are only materialized once, during the ordered
/// merge.
struct DeviceApStats {
  struct PerAp {
    std::uint32_t ap = 0;
    int assoc_bins = 0;
    int office_window_bins = 0;
    std::set<GeoCell> cells_seen;
  };
  std::vector<PerAp> aps;             // in order of first association
  std::vector<std::uint32_t> home_ap;  // per threshold; kNoAp when none
};

/// Scans one device's samples. Pure function of that device's stream,
/// so devices can run concurrently; all counts merge by addition and
/// set union, which are grouping-independent.
[[nodiscard]] DeviceApStats scan_device(const Dataset& ds,
                                        const BinWindows& win, std::size_t d,
                                        std::span<const int> min_bins) {
  DeviceApStats stats;
  ApCounts night_counts;  // per window
  // Each nightly window's most-present AP and its bins, in window order.
  std::vector<std::pair<std::uint32_t, int>> nights;

  // Nightly windows: a window belongs to the day it starts in (22:00 of
  // day d through 06:00 of day d+1). Within a window, a run of one AP
  // is added to night_counts once, when another AP starts or the window
  // closes. The first morning's window starts on day -1, so "no open
  // window" needs a day no window has.
  constexpr int kNoWindow = std::numeric_limits<int>::min();
  int window_day = kNoWindow;
  std::uint32_t run_ap = value(kNoAp);
  int run_bins = 0;
  auto flush_window = [&]() {
    if (window_day == kNoWindow) return;
    if (run_bins > 0) add_count(night_counts, run_ap, run_bins);
    run_ap = value(kNoAp);
    run_bins = 0;
    // Most-present AP in this night's window.
    const auto best = max_count(night_counts);
    if (best.second > 0) nights.push_back(best);
    night_counts.clear();
    window_day = kNoWindow;
  };

  const core::DatasetIndex& idx = ds.index();
  const std::span<const TimeBin> bins = ds.samples.bin;
  const std::span<const WifiState> state = ds.samples.wifi_state;
  const std::span<const std::uint32_t> aps = ds.samples.ap;
  const std::span<const GeoCell> geo = ds.samples.geo_cell;
  // The AP of the previous associated sample, its slot in stats.aps and
  // the last cell recorded for it: a device dwells, so the AP lookup
  // and the cell insert run once per change, not once per sample.
  std::uint32_t last_ap = value(kNoAp);
  std::size_t last_slot = 0;
  GeoCell last_cell = kNoGeoCell;
  for (std::size_t i = idx.device_begin(d); i < idx.device_end(d); ++i) {
    const int day = bins[i] / kBinsPerDay;
    const auto b = static_cast<std::size_t>(bins[i] % kBinsPerDay);
    const std::uint32_t ap = aps[i];
    const bool associated =
        state[i] == WifiState::Associated && ap != value(kNoAp);
    if (associated) {
      if (ap != last_ap) {
        last_slot = 0;
        while (last_slot < stats.aps.size() && stats.aps[last_slot].ap != ap) {
          ++last_slot;
        }
        if (last_slot == stats.aps.size()) stats.aps.emplace_back().ap = ap;
        last_ap = ap;
        last_cell = kNoGeoCell;
      }
      DeviceApStats::PerAp& per_ap = stats.aps[last_slot];
      ++per_ap.assoc_bins;
      if (geo[i] != kNoGeoCell && geo[i] != last_cell) {
        per_ap.cells_seen.insert(geo[i]);
        last_cell = geo[i];
      }
      if (win.weekday[static_cast<std::size_t>(day)] && win.office[b]) {
        ++per_ap.office_window_bins;
      }
    }

    // Maintain the rolling nightly window.
    if (win.night[b]) {
      const int wd = win.late[b] ? day : day - 1;
      if (wd != window_day) {
        flush_window();
        window_day = wd;
      }
      if (associated) {
        if (ap != run_ap) {
          if (run_bins > 0) add_count(night_counts, run_ap, run_bins);
          run_ap = ap;
          run_bins = 0;
        }
        ++run_bins;
      }
    } else if (window_day != kNoWindow) {
      flush_window();
    }
  }
  flush_window();

  // Each threshold replays the nightly candidates into fresh votes; the
  // device's home AP is its most frequent candidate, the lowest AP id
  // among equal votes.
  stats.home_ap.reserve(min_bins.size());
  ApCounts home_votes;
  for (const int need : min_bins) {
    home_votes.clear();
    for (const auto& [ap, n] : nights) {
      if (n >= need) add_count(home_votes, ap, 1);
    }
    stats.home_ap.push_back(max_count(home_votes).first);
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

query::Pending<std::vector<ApClassification>> classify_aps(
    query::Sweep& sweep, const ClassifyOptions& opt,
    std::span<const double> thresholds) {
  const query::DataSource& src = sweep.source();
  std::vector<int> min_bins;
  for (const double t : thresholds) {
    min_bins.push_back(static_cast<int>(t * night_window_bins(opt)));
  }

  // The per-AP tallies and per-threshold home verdicts the ordered fold
  // accumulates; finish() turns them into the classifications.
  struct Tallies {
    std::vector<bool> associated;
    std::vector<int> assoc_bins;
    std::vector<int> office_window_bins;
    std::vector<std::set<GeoCell>> cells_seen;
    std::vector<std::vector<ApId>> home_ap_of_device;
  };
  const std::size_t n_aps = src.aps().size();
  auto tally = std::make_shared<Tallies>();
  tally->associated.assign(n_aps, false);
  tally->assoc_bins.assign(n_aps, 0);
  tally->office_window_bins.assign(n_aps, 0);
  tally->cells_seen.resize(n_aps);
  tally->home_ap_of_device.resize(thresholds.size());
  for (std::vector<ApId>& homes : tally->home_ap_of_device) {
    homes.reserve(src.n_devices());
  }

  // Per-device scans run in parallel; each returns the compact per-AP
  // statistics its stream contributes plus its home-AP verdicts. The
  // ordered merge adds counts and unions cell sets, so the per-AP totals
  // equal a serial one-pass scan exactly.
  return sweep.fold<std::vector<DeviceApStats>>(
      [win = BinWindows(src.calendar(), opt), min_bins](const Dataset& block,
                                                        std::size_t) {
        return core::parallel_map(block.devices.size(), [&](std::size_t d) {
          return scan_device(block, win, d, min_bins);
        });
      },
      [tally](std::vector<DeviceApStats>&& per_device, std::size_t) {
        for (const DeviceApStats& stats : per_device) {
          for (const DeviceApStats::PerAp& per_ap : stats.aps) {
            tally->associated[per_ap.ap] = true;
            tally->assoc_bins[per_ap.ap] += per_ap.assoc_bins;
            tally->office_window_bins[per_ap.ap] += per_ap.office_window_bins;
            tally->cells_seen[per_ap.ap].insert(per_ap.cells_seen.begin(),
                                                per_ap.cells_seen.end());
          }
          for (std::size_t k = 0; k < stats.home_ap.size(); ++k) {
            tally->home_ap_of_device[k].push_back(ApId{stats.home_ap[k]});
          }
        }
      },
      [tally, &aps = src.aps(), opt] {
        // Non-home APs: public by ESSID, rest Other (with office/mobile
        // estimation). None of this depends on the threshold, so it is
        // resolved once and each threshold only overlays its home APs.
        Tallies& t = *tally;
        const std::size_t n = aps.size();
        ApClassification shared;
        shared.ap_class.assign(n, ApClass::Other);
        shared.associated = std::move(t.associated);
        shared.is_office.assign(n, false);
        shared.is_mobile.assign(n, false);
        for (std::size_t i = 0; i < n; ++i) {
          if (!shared.associated[i]) continue;
          if (net::is_public_essid(aps[i].essid)) {
            shared.ap_class[i] = ApClass::Public;
            continue;
          }
          if (static_cast<int>(t.cells_seen[i].size()) >=
              opt.mobile_min_cells) {
            shared.is_mobile[i] = true;
            continue;
          }
          if (t.assoc_bins[i] >= opt.office_min_bins &&
              t.office_window_bins[i] >=
                  opt.office_window_share * t.assoc_bins[i]) {
            shared.is_office[i] = true;
          }
        }

        std::vector<ApClassification> out(t.home_ap_of_device.size(), shared);
        for (std::size_t k = 0; k < out.size(); ++k) {
          ApClassification& cls = out[k];
          cls.home_ap_of_device = std::move(t.home_ap_of_device[k]);
          for (const ApId home : cls.home_ap_of_device) {
            if (home == kNoAp) continue;
            cls.ap_class[value(home)] = ApClass::Home;
            cls.is_office[value(home)] = false;
            cls.is_mobile[value(home)] = false;
          }
        }
        return out;
      });
}

std::vector<ApClassification> classify_aps(
    const query::DataSource& src, const ClassifyOptions& opt,
    std::span<const double> thresholds) {
  return query::run_alone(src, [&](query::Sweep& sweep) {
    return classify_aps(sweep, opt, thresholds);
  });
}

ApClassification classify_aps(const query::DataSource& src,
                              const ClassifyOptions& opt) {
  return std::move(
      classify_aps(src, opt, {&opt.home_presence_threshold, 1}).front());
}

}  // namespace tokyonet::analysis
