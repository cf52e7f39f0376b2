#include "analysis/aggregate.h"

#include <algorithm>
#include <array>
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

constexpr double kBytesPerHourToMbps = 8.0 / 3600.0 / 1e6;

void add_hour_sums(std::vector<std::uint64_t>& acc,
                   const std::vector<std::uint64_t>& p) {
  for (std::size_t h = 0; h < acc.size(); ++h) acc[h] += p[h];
}

// The exact per-hour byte sums of every stream, plus the LTE tallies.
// u64 addition is associative, so summing per-block partials and
// converting once gives the same series at any shard count.
[[nodiscard]] AllStreamSums all_streams_scan(const Dataset& ds) {
  const auto n_hours = static_cast<std::size_t>(ds.num_days()) * 24;
  AllStreamSums out;
  for (auto& sums : out.hour_sums) sums.assign(n_hours, 0);

  const core::DatasetIndex& idx = ds.index();
  const std::span<const std::uint32_t> cols[4] = {
      ds.samples.cell_rx, ds.samples.cell_tx, ds.samples.wifi_rx, ds.samples.wifi_tx};
  const std::span<const CellTech> tech = ds.samples.tech;
  struct Partial {
    std::vector<std::uint64_t> hour_sums[4];
    std::uint64_t lte = 0, total = 0;
  };
  std::vector<Partial> partials;
  if (idx.dense()) {
    // Dense campaign: each device contributes exactly kBinsPerHour
    // consecutive samples per hour, so the hour sums are fixed-stride
    // runs — no per-sample bin division, no scatter — for all four
    // streams and the LTE tallies in one walk.
    partials = query::map_device_blocks(
        idx.num_devices(), [&](std::size_t d0, std::size_t d1) {
      Partial part;
      for (auto& sums : part.hour_sums) sums.assign(n_hours, 0);
      static_assert(kBinsPerHour == 6);
      for (std::size_t d = d0; d < d1; ++d) {
        const std::size_t begin = idx.device_begin(d);
        const std::uint32_t* p[4];
        for (int s = 0; s < 4; ++s) p[s] = cols[s].data() + begin;
        const CellTech* t = tech.data() + begin;
        for (std::size_t h = 0; h < n_hours; ++h) {
          for (int j = 0; j < kBinsPerHour; ++j) {
            const std::uint32_t rx = p[0][j];
            if (rx != 0) {
              part.total += rx;
              if (t[j] == CellTech::Lte) part.lte += rx;
            }
          }
          for (int s = 0; s < 4; ++s) {
            part.hour_sums[s][h] += std::uint64_t{p[s][0]} + p[s][1] +
                                    p[s][2] + p[s][3] + p[s][4] + p[s][5];
            p[s] += kBinsPerHour;
          }
          t += kBinsPerHour;
        }
      }
      return part;
    });
  } else {
    const std::span<const TimeBin> bin = ds.samples.bin;
    const std::size_t n = bin.size();
    partials = query::map_chunks(n, [&](std::size_t begin, std::size_t end) {
      Partial part;
      for (auto& sums : part.hour_sums) sums.assign(n_hours, 0);
      for (std::size_t i = begin; i < end; ++i) {
        const auto hour = static_cast<std::size_t>(bin[i] / kBinsPerHour);
        for (int s = 0; s < 4; ++s) part.hour_sums[s][hour] += cols[s][i];
        const std::uint32_t rx = cols[0][i];
        if (rx != 0) {
          part.total += rx;
          if (tech[i] == CellTech::Lte) part.lte += rx;
        }
      }
      return part;
    });
  }
  for (const Partial& p : partials) {
    for (int s = 0; s < 4; ++s) {
      for (std::size_t h = 0; h < n_hours; ++h) {
        out.hour_sums[s][h] += p.hour_sums[s][h];
      }
    }
    out.lte.lte += p.lte;
    out.lte.total += p.total;
  }
  return out;
}

}  // namespace

HourlySeries hourly_series_from_sums(std::span<const std::uint64_t> sums) {
  HourlySeries out;
  out.mbps.resize(sums.size());
  for (std::size_t h = 0; h < sums.size(); ++h) {
    out.mbps[h] = static_cast<double>(sums[h]) * kBytesPerHourToMbps;
  }
  return out;
}

HourlySeries aggregate_series(const query::DataSource& src, Stream stream) {
  return hourly_series_from_sums(
      aggregate_all_streams(src).hour_sums[static_cast<int>(stream)]);
}

AllStreamSums aggregate_all_streams(const query::DataSource& src) {
  return src.reduce<AllStreamSums>(
      [](const Dataset& block, std::size_t) { return all_streams_scan(block); },
      [](AllStreamSums& acc, AllStreamSums&& p) {
        for (int s = 0; s < 4; ++s) {
          add_hour_sums(acc.hour_sums[s], p.hour_sums[s]);
        }
        acc.lte.lte += p.lte.lte;
        acc.lte.total += p.lte.total;
      });
}

namespace {

// The exact per-hour byte sums behind location_series(). All
// accumulation is u64 (the serial reference sums u32 byte counts into
// doubles, which is exact below 2^53, so integer sums convert to the
// same doubles), which makes per-shard partials merge byte-identically.
[[nodiscard]] std::vector<std::uint64_t> location_hour_sums(
    const Dataset& ds, const ApClassification& cls, LocationFilter filter,
    bool rx) {
  const auto n_hours = static_cast<std::size_t>(ds.num_days()) * 24;

  const core::DatasetIndex& idx = ds.index();
  // Fold the per-sample class/office test into one per-AP table with a
  // trailing always-zero sentinel row: clamping the AP id into the table
  // maps unassociated samples (ap == kNoAp) to the sentinel, so the scan
  // is a branch-free select — one byte gather, one multiply — instead of
  // three data-dependent branches per sample.
  const std::size_t naps = ds.aps.size();
  std::vector<std::uint8_t> keep(naps + 1, 0);
  for (std::size_t a = 0; a < naps; ++a) {
    keep[a] = cls.ap_class[a] == filter.ap_class &&
              (!filter.office_only || cls.is_office[a]);
  }

  const std::span<const TimeBin> bin = ds.samples.bin;
  const std::span<const std::uint32_t> ap = ds.samples.ap;
  const std::span<const WifiState> state = ds.samples.wifi_state;
  const std::span<const std::uint32_t> bytes =
      rx ? ds.samples.wifi_rx : ds.samples.wifi_tx;
  const std::size_t n = bin.size();
  std::vector<std::vector<std::uint64_t>> partials;
  if (idx.dense()) {
    // Fixed-stride hour runs as in all_streams_scan, with the keep
    // select folded into the accumulate.
    partials = query::map_device_blocks(
        idx.num_devices(), [&](std::size_t d0, std::size_t d1) {
          std::vector<std::uint64_t> sums(n_hours, 0);
          for (std::size_t d = d0; d < d1; ++d) {
            const std::size_t begin = idx.device_begin(d);
            const std::uint32_t* ap_p = ap.data() + begin;
            const WifiState* st_p = state.data() + begin;
            const std::uint32_t* by_p = bytes.data() + begin;
            for (std::size_t h = 0; h < n_hours; ++h) {
              std::uint64_t acc = 0;
              for (std::size_t j = 0; j < kBinsPerHour; ++j) {
                const std::uint32_t a = ap_p[j];
                const std::size_t ki = a < naps ? a : naps;
                const std::uint64_t sel =
                    keep[ki] & (st_p[j] == WifiState::Associated);
                acc += sel * by_p[j];
              }
              sums[h] += acc;
              ap_p += kBinsPerHour;
              st_p += kBinsPerHour;
              by_p += kBinsPerHour;
            }
          }
          return sums;
        });
  } else {
    partials = query::map_chunks(n, [&](std::size_t begin, std::size_t end) {
      std::vector<std::uint64_t> sums(n_hours, 0);
      for (std::size_t i = begin; i < end; ++i) {
        const std::uint32_t a = ap[i];
        const std::size_t ki = a < naps ? a : naps;
        const std::uint64_t sel =
            keep[ki] & (state[i] == WifiState::Associated);
        sums[static_cast<std::size_t>(bin[i] / kBinsPerHour)] +=
            sel * bytes[i];
      }
      return sums;
    });
  }
  std::vector<std::uint64_t> total(n_hours, 0);
  for (const std::vector<std::uint64_t>& p : partials) add_hour_sums(total, p);
  return total;
}

}  // namespace

query::Pending<HourlySeries> location_series(query::Sweep& sweep,
                                             const ApClassification& cls,
                                             LocationFilter filter, bool rx) {
  // Shard samples reference the global AP universe, so the per-AP keep
  // table is the same in every block; hour sums are u64 and add.
  return sweep.reduce<std::vector<std::uint64_t>>(
      [&cls, filter, rx](const Dataset& block, std::size_t) {
        return location_hour_sums(block, cls, filter, rx);
      },
      [](std::vector<std::uint64_t>& acc, std::vector<std::uint64_t>&& p) {
        add_hour_sums(acc, p);
      },
      [](std::vector<std::uint64_t>&& sums) {
        return hourly_series_from_sums(sums);
      });
}

HourlySeries location_series(const query::DataSource& src,
                             const ApClassification& cls, LocationFilter filter,
                             bool rx) {
  return query::run_alone(src, [&](query::Sweep& sweep) {
    return location_series(sweep, cls, filter, rx);
  });
}

WeekSplit weekday_weekend_split(const query::DataSource& src, Stream stream) {
  return week_split(aggregate_series(src, stream), src.calendar(),
                    src.num_days());
}

WeekSplit week_split(const HourlySeries& series, const CampaignCalendar& cal,
                     int num_days) {
  double wd = 0, we = 0;
  int wd_n = 0, we_n = 0;
  for (int day = 0; day < num_days; ++day) {
    for (int hour = 0; hour < 24; ++hour) {
      const double v = series.mbps[static_cast<std::size_t>(day * 24 + hour)];
      if (cal.is_weekend_day(day)) {
        we += v;
        ++we_n;
      } else {
        wd += v;
        ++wd_n;
      }
    }
  }
  WeekSplit out;
  if (wd_n > 0) out.weekday_mbps = wd / wd_n;
  if (we_n > 0) out.weekend_mbps = we / we_n;
  return out;
}

namespace {

// Exact byte sums per location bucket (home, public, office, other).
// The serial reference accumulated doubles; u32 byte counts sum exactly
// in doubles below 2^53, so u64 sums convert to the same values and
// merge byte-identically across chunks and shards.
[[nodiscard]] std::array<std::uint64_t, 4> wifi_location_sums(
    const Dataset& ds, const ApClassification& cls) {
  std::array<std::uint64_t, 4> out{};

  // Per-AP bucket (home/public/office/other) resolved once; a fifth
  // trash bucket absorbs out-of-range AP ids so the gather needs no
  // bounds branch.
  const std::size_t naps = ds.aps.size();
  std::vector<std::uint8_t> bucket(naps + 1, 4);
  for (std::size_t a = 0; a < naps; ++a) {
    switch (cls.ap_class[a]) {
      case ApClass::Home: bucket[a] = 0; break;
      case ApClass::Public: bucket[a] = 1; break;
      case ApClass::Other: bucket[a] = cls.is_office[a] ? 2 : 3; break;
    }
  }
  const std::span<const std::uint32_t> ap = ds.samples.ap;
  const std::span<const WifiState> state = ds.samples.wifi_state;
  const std::span<const std::uint32_t> wifi_rx = ds.samples.wifi_rx;
  const std::span<const std::uint32_t> wifi_tx = ds.samples.wifi_tx;
  const std::size_t n = ap.size();
  using Sums = std::array<std::uint64_t, 5>;
  const std::vector<Sums> partials =
      query::map_chunks(n, [&](std::size_t begin, std::size_t end) {
        Sums sums{};
        // Devices dwell on one AP for many consecutive bins, so
        // run-length-encode the AP stream: one bucket lookup per
        // association run, and the byte sum inside a run is a
        // contiguous select-accumulate the compiler vectorizes.
        // u64 adds are associative, so per-run partial sums merge
        // byte-identically with the per-sample reference.
        std::size_t i = begin;
        while (i < end) {
          const std::uint32_t a = ap[i];
          std::size_t j = i + 1;
          while (j < end && ap[j] == a) ++j;
          if (a != value(kNoAp)) {
            std::uint64_t acc = 0;
            for (std::size_t k = i; k < j; ++k) {
              const std::uint64_t sel = state[k] == WifiState::Associated;
              acc += sel * (std::uint64_t{wifi_rx[k]} + wifi_tx[k]);
            }
            const std::size_t ki = a < naps ? a : naps;
            sums[bucket[ki]] += acc;
          }
          i = j;
        }
        return sums;
      });
  for (const Sums& p : partials) {
    for (std::size_t b = 0; b < 4; ++b) out[b] += p[b];
  }
  
  return out;
}

[[nodiscard]] WifiLocationShares wifi_location_shares_from_sums(
    const std::array<std::uint64_t, 4>& sums) {
  const double home = static_cast<double>(sums[0]);
  const double publik = static_cast<double>(sums[1]);
  const double office = static_cast<double>(sums[2]);
  const double other = static_cast<double>(sums[3]);
  const double total = home + publik + office + other;
  WifiLocationShares shares;
  if (total > 0) {
    shares.home = home / total;
    shares.publik = publik / total;
    shares.office = office / total;
    shares.other = other / total;
  }
  return shares;
}

}  // namespace

query::Pending<WifiLocationShares> wifi_location_shares(
    query::Sweep& sweep, const ApClassification& cls) {
  return sweep.reduce<std::array<std::uint64_t, 4>>(
      [&cls](const Dataset& block, std::size_t) {
        return wifi_location_sums(block, cls);
      },
      [](std::array<std::uint64_t, 4>& acc, std::array<std::uint64_t, 4>&& p) {
        for (std::size_t b = 0; b < 4; ++b) acc[b] += p[b];
      },
      [](std::array<std::uint64_t, 4>&& sums) {
        return wifi_location_shares_from_sums(sums);
      });
}

WifiLocationShares wifi_location_shares(const query::DataSource& src,
                                        const ApClassification& cls) {
  return query::run_alone(src, [&](query::Sweep& sweep) {
    return wifi_location_shares(sweep, cls);
  });
}

}  // namespace tokyonet::analysis
