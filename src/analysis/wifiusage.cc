#include "analysis/wifiusage.h"

#include <algorithm>
#include <cstdint>
#include <set>
#include <string_view>

#include "analysis/query/source.h"

namespace tokyonet::analysis {
namespace {

// Exact integer tallies behind aps_per_day(): user-day counts per
// (class, distinct-AP bucket). A device-day's bucket depends only on
// that device's stream and the global per-day class table, so shard
// partials are additive.
struct ApsPerDayCounts {
  std::array<std::array<std::uint64_t, 4>, 3> counts{};
  std::array<std::uint64_t, 3> totals{};

  void merge(const ApsPerDayCounts& p) noexcept {
    for (std::size_t c = 0; c < 3; ++c) {
      for (std::size_t k = 0; k < 4; ++k) counts[c][k] += p.counts[c][k];
      totals[c] += p.totals[c];
    }
  }
};

// Scans one device block whose global device indices start at `base`;
// `klass` is the campaign-wide (device, day) -> UserClass table.
[[nodiscard]] ApsPerDayCounts aps_per_day_counts(
    const Dataset& ds, const std::vector<UserClass>& klass, std::size_t base) {
  const auto num_days = static_cast<std::size_t>(ds.num_days());
  ApsPerDayCounts out;

  std::set<std::uint32_t> seen;
  for (const DeviceInfo& dev : ds.devices) {
    const auto samples = ds.device_samples(dev.id);
    int cur_day = -1;
    seen.clear();
    auto flush = [&](int day) {
      if (cur_day < 0 || seen.empty()) {
        seen.clear();
        cur_day = day;
        return;
      }
      const auto k = std::min<std::size_t>(seen.size(), 4) - 1;
      const UserClass uc = klass[(base + value(dev.id)) * num_days +
                                 static_cast<std::size_t>(cur_day)];
      out.counts[0][k] += 1;
      out.totals[0] += 1;
      if (uc == UserClass::Heavy) {
        out.counts[1][k] += 1;
        out.totals[1] += 1;
      } else if (uc == UserClass::Light) {
        out.counts[2][k] += 1;
        out.totals[2] += 1;
      }
      seen.clear();
      cur_day = day;
    };
    for (const Sample& s : samples) {
      const int day = ds.calendar.day_of(s.bin);
      if (day != cur_day) flush(day);
      if (s.wifi_state == WifiState::Associated && s.ap != kNoAp) {
        seen.insert(value(s.ap));
      }
    }
    flush(-1);
  }
  return out;
}

[[nodiscard]] std::vector<UserClass> class_table(
    std::size_t n_devices, std::size_t num_days,
    const std::vector<UserDay>& days, const UserClassifier& classes) {
  std::vector<UserClass> klass(n_devices * num_days, UserClass::Neither);
  for (const UserDay& d : days) {
    klass[value(d.device) * num_days + static_cast<std::size_t>(d.day)] =
        classes.classify(d);
  }
  return klass;
}

[[nodiscard]] ApsPerDay aps_per_day_finalize(const ApsPerDayCounts& c) {
  ApsPerDay out;
  for (std::size_t cc = 0; cc < 3; ++cc) {
    for (std::size_t k = 0; k < 4; ++k) {
      out.share[cc][k] = c.totals[cc] > 0
                             ? static_cast<double>(c.counts[cc][k]) /
                                   static_cast<double>(c.totals[cc])
                             : 0;
    }
  }
  return out;
}

// Exact integer tallies behind hpo_breakdown(). Each user-day
// contributes one increment keyed by its (home, public, other)
// distinct-ESSID counts, so shard partials are additive.
struct HpoCounts {
  std::map<std::array<int, 3>, std::uint64_t> share;
  std::uint64_t four_plus = 0;
  std::uint64_t total = 0;

  void merge(const HpoCounts& p) {
    for (const auto& [key, v] : p.share) share[key] += v;
    four_plus += p.four_plus;
    total += p.total;
  }
};

[[nodiscard]] HpoCounts hpo_counts(const Dataset& ds,
                                   const ApClassification& cls) {
  HpoCounts out;

  std::set<std::pair<int, std::string_view>> essids;  // (class, essid)
  for (const DeviceInfo& dev : ds.devices) {
    const auto samples = ds.device_samples(dev.id);
    int cur_day = -1;
    essids.clear();
    auto flush = [&](int day) {
      if (cur_day >= 0 && !essids.empty()) {
        std::array<int, 3> hpo{0, 0, 0};
        for (const auto& [c, name] : essids) ++hpo[static_cast<std::size_t>(c)];
        out.total += 1;
        if (hpo[0] + hpo[1] + hpo[2] >= 4) {
          out.four_plus += 1;
        } else {
          out.share[hpo] += 1;
        }
      }
      essids.clear();
      cur_day = day;
    };
    for (const Sample& s : samples) {
      const int day = ds.calendar.day_of(s.bin);
      if (day != cur_day) flush(day);
      if (s.wifi_state == WifiState::Associated && s.ap != kNoAp) {
        essids.emplace(static_cast<int>(cls.class_of(s.ap)),
                       ds.aps[value(s.ap)].essid);
      }
    }
    flush(-1);
  }
  return out;
}

[[nodiscard]] HpoBreakdown hpo_finalize(const HpoCounts& c) {
  HpoBreakdown out;
  for (const auto& [key, v] : c.share) {
    out.share[key] = static_cast<double>(v);
  }
  out.four_plus = static_cast<double>(c.four_plus);
  if (c.total > 0) {
    const auto total = static_cast<double>(c.total);
    for (auto& [key, v] : out.share) v /= total;
    out.four_plus /= total;
  }
  return out;
}

// Consecutive association runs of one block, in device order.
[[nodiscard]] AssociationDurations durations_scan(
    const Dataset& ds, const ApClassification& cls) {
  AssociationDurations out;
  const double bin_hours = kMinutesPerBin / 60.0;

  for (const DeviceInfo& dev : ds.devices) {
    const auto samples = ds.device_samples(dev.id);
    ApId run_ap = kNoAp;
    int run_len = 0;
    TimeBin prev_bin = 0;
    auto flush = [&]() {
      if (run_ap == kNoAp || run_len == 0) return;
      const double hours = run_len * bin_hours;
      switch (cls.class_of(run_ap)) {
        case ApClass::Home: out.home_hours.push_back(hours); break;
        case ApClass::Public: out.public_hours.push_back(hours); break;
        case ApClass::Other:
          if (cls.is_office[value(run_ap)]) {
            out.office_hours.push_back(hours);
          }
          break;
      }
      run_ap = kNoAp;
      run_len = 0;
    };
    for (const Sample& s : samples) {
      const bool assoc = s.wifi_state == WifiState::Associated && s.ap != kNoAp;
      const bool contiguous = run_len == 0 || s.bin == prev_bin + 1;
      if (!assoc || !contiguous || (run_ap != kNoAp && s.ap != run_ap)) {
        flush();
      }
      if (assoc) {
        run_ap = s.ap;
        ++run_len;
      }
      prev_bin = s.bin;
    }
    flush();
  }
  return out;
}

}  // namespace

ApsPerDay aps_per_day(const query::DataSource& src,
                      const std::vector<UserDay>& days,
                      const UserClassifier& classes) {
  // The class table spans the whole campaign (user-days carry global
  // device ids); each shard scan rebases its local ids into it.
  const std::vector<UserClass> klass =
      class_table(src.n_devices(), static_cast<std::size_t>(src.num_days()),
                  days, classes);
  return aps_per_day_finalize(src.reduce<ApsPerDayCounts>(
      [&](const Dataset& block, std::size_t base) {
        return aps_per_day_counts(block, klass, base);
      },
      [](ApsPerDayCounts& acc, ApsPerDayCounts&& p) { acc.merge(p); }));
}

HpoBreakdown hpo_breakdown(const query::DataSource& src,
                           const ApClassification& cls) {
  return hpo_finalize(src.reduce<HpoCounts>(
      [&](const Dataset& block, std::size_t) {
        return hpo_counts(block, cls);
      },
      [](HpoCounts& acc, HpoCounts&& p) { acc.merge(p); }));
}

AssociationDurations association_durations(const query::DataSource& src,
                                           const ApClassification& cls) {
  // Durations are emitted per device in device order, so appending
  // block partials in block order reproduces the campaign's order.
  return src.reduce<AssociationDurations>(
      [&](const Dataset& block, std::size_t) {
        return durations_scan(block, cls);
      },
      [](AssociationDurations& acc, AssociationDurations&& p) {
        const auto append = [](std::vector<double>& into,
                               const std::vector<double>& from) {
          into.insert(into.end(), from.begin(), from.end());
        };
        append(acc.home_hours, p.home_hours);
        append(acc.public_hours, p.public_hours);
        append(acc.office_hours, p.office_hours);
      });
}

BandFractions band_fractions(const query::DataSource& src,
                             const ApClassification& cls) {
  const std::vector<ApInfo>& aps = src.aps();
  int home5 = 0, home_n = 0, office5 = 0, office_n = 0, pub5 = 0, pub_n = 0;
  for (std::size_t i = 0; i < aps.size(); ++i) {
    if (!cls.associated[i]) continue;
    const bool is5 = aps[i].band == Band::B5GHz;
    switch (cls.ap_class[i]) {
      case ApClass::Home:
        ++home_n;
        home5 += is5;
        break;
      case ApClass::Public:
        ++pub_n;
        pub5 += is5;
        break;
      case ApClass::Other:
        if (cls.is_office[i]) {
          ++office_n;
          office5 += is5;
        }
        break;
    }
  }
  BandFractions f;
  if (home_n > 0) f.home = static_cast<double>(home5) / home_n;
  if (office_n > 0) f.office = static_cast<double>(office5) / office_n;
  if (pub_n > 0) f.publik = static_cast<double>(pub5) / pub_n;
  return f;
}

}  // namespace tokyonet::analysis
