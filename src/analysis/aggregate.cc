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

// The exact per-hour byte sums of every stream. u64 addition is
// associative, so summing per-block partials and converting once gives
// the same series at any shard count.
[[nodiscard]] AllStreamSums all_streams_scan(const Dataset& ds) {
  const auto n_hours = static_cast<std::size_t>(ds.num_days()) * 24;
  const auto empty = [n_hours] {
    AllStreamSums part;
    for (auto& sums : part.hour_sums) sums.assign(n_hours, 0);
    return part;
  };

  const core::DatasetIndex& idx = ds.index();
  const std::span<const std::uint32_t> cols[4] = {
      ds.samples.cell_rx, ds.samples.cell_tx, ds.samples.wifi_rx, ds.samples.wifi_tx};
  std::vector<AllStreamSums> partials;
  if (idx.dense()) {
    // Dense campaign: each device contributes exactly kBinsPerHour
    // consecutive samples per hour, so the hour sums are fixed-stride
    // runs — no per-sample bin division, no scatter — for all four
    // streams in one walk.
    partials = query::map_device_blocks(
        idx.num_devices(), [&](std::size_t d0, std::size_t d1) {
      AllStreamSums part = empty();
      static_assert(kBinsPerHour == 6);
      for (std::size_t d = d0; d < d1; ++d) {
        const std::size_t begin = idx.device_begin(d);
        const std::uint32_t* p[4];
        for (int s = 0; s < 4; ++s) p[s] = cols[s].data() + begin;
        for (std::size_t h = 0; h < n_hours; ++h) {
          for (int s = 0; s < 4; ++s) {
            part.hour_sums[s][h] += std::uint64_t{p[s][0]} + p[s][1] +
                                    p[s][2] + p[s][3] + p[s][4] + p[s][5];
            p[s] += kBinsPerHour;
          }
        }
      }
      return part;
    });
  } else {
    const std::span<const TimeBin> bin = ds.samples.bin;
    const std::size_t n = bin.size();
    partials = query::map_chunks(n, [&](std::size_t begin, std::size_t end) {
      AllStreamSums part = empty();
      for (std::size_t i = begin; i < end; ++i) {
        const auto hour = static_cast<std::size_t>(bin[i] / kBinsPerHour);
        for (int s = 0; s < 4; ++s) part.hour_sums[s][hour] += cols[s][i];
      }
      return part;
    });
  }
  AllStreamSums out = empty();
  for (const AllStreamSums& p : partials) {
    for (int s = 0; s < 4; ++s) add_hour_sums(out.hour_sums[s], p.hour_sums[s]);
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
      });
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

// The trash bucket a scan routes unassociated samples, and AP ids
// outside the universe, to: the select is one byte gather, no branch.
constexpr std::size_t kTrash = WifiLocationHours::kNumBuckets;

// One (rx, tx) pair of u64 sums per (bucket, hour), the trash bucket
// included: slot (bucket * n_hours + hour) * 2 holds rx, the next tx.
using LocationSlots = std::vector<std::uint64_t>;

// Per-AP bucket, with a trailing trash row that clamped AP ids (kNoAp
// included) land on.
[[nodiscard]] std::vector<std::uint8_t> location_buckets(
    const ApClassification& cls) {
  const std::size_t naps = cls.ap_class.size();
  std::vector<std::uint8_t> bucket(naps + 1, kTrash);
  for (std::size_t a = 0; a < naps; ++a) {
    switch (cls.ap_class[a]) {
      case ApClass::Home: bucket[a] = WifiLocationHours::kHome; break;
      case ApClass::Public: bucket[a] = WifiLocationHours::kPublic; break;
      case ApClass::Other:
        bucket[a] = cls.is_office[a] ? WifiLocationHours::kOffice
                                     : WifiLocationHours::kOther;
        break;
    }
  }
  return bucket;
}

// The associated WiFi bytes of one block by (bucket, hour). All sums
// are exact u64, so chunk, block and shard partials add to the same
// bytes in any grouping.
[[nodiscard]] LocationSlots location_hours_scan(
    const Dataset& ds, const std::vector<std::uint8_t>& bucket) {
  const auto n_hours = static_cast<std::size_t>(ds.num_days()) * 24;
  const std::size_t n_slots = (kTrash + 1) * n_hours * 2;
  const std::size_t naps = bucket.size() - 1;

  const core::DatasetIndex& idx = ds.index();
  const std::span<const TimeBin> bin = ds.samples.bin;
  const std::span<const std::uint32_t> ap = ds.samples.ap;
  const std::span<const WifiState> state = ds.samples.wifi_state;
  const std::span<const std::uint32_t> wifi_rx = ds.samples.wifi_rx;
  const std::span<const std::uint32_t> wifi_tx = ds.samples.wifi_tx;
  const auto add = [&](LocationSlots& sums, std::size_t i, std::size_t hour) {
    const std::uint32_t a = ap[i];
    const std::size_t b = state[i] == WifiState::Associated
                              ? bucket[a < naps ? a : naps]
                              : kTrash;
    std::uint64_t* slot = sums.data() + (b * n_hours + hour) * 2;
    slot[0] += wifi_rx[i];
    slot[1] += wifi_tx[i];
  };
  std::vector<LocationSlots> partials;
  if (idx.dense()) {
    // Fixed-stride hour runs as in all_streams_scan: no bin reads.
    partials = query::map_device_blocks(
        idx.num_devices(), [&](std::size_t d0, std::size_t d1) {
          LocationSlots sums(n_slots, 0);
          for (std::size_t d = d0; d < d1; ++d) {
            std::size_t i = idx.device_begin(d);
            for (std::size_t h = 0; h < n_hours; ++h) {
              for (int j = 0; j < kBinsPerHour; ++j, ++i) add(sums, i, h);
            }
          }
          return sums;
        });
  } else {
    partials = query::map_chunks(
        bin.size(), [&](std::size_t begin, std::size_t end) {
          LocationSlots sums(n_slots, 0);
          for (std::size_t i = begin; i < end; ++i) {
            add(sums, i, static_cast<std::size_t>(bin[i] / kBinsPerHour));
          }
          return sums;
        });
  }
  LocationSlots total(n_slots, 0);
  for (const LocationSlots& p : partials) add_hour_sums(total, p);
  return total;
}

[[nodiscard]] WifiLocationHours location_hours_from_slots(
    const LocationSlots& slots, std::size_t n_hours) {
  WifiLocationHours out;
  for (std::size_t b = 0; b < WifiLocationHours::kNumBuckets; ++b) {
    out.rx_sums[b].resize(n_hours);
    out.tx_sums[b].resize(n_hours);
    for (std::size_t h = 0; h < n_hours; ++h) {
      out.rx_sums[b][h] = slots[(b * n_hours + h) * 2];
      out.tx_sums[b][h] = slots[(b * n_hours + h) * 2 + 1];
    }
  }
  return out;
}

}  // namespace

HourlySeries WifiLocationHours::series(LocationFilter filter, bool rx) const {
  const auto& sums = rx ? rx_sums : tx_sums;
  std::vector<std::uint64_t> out(sums[kHome].size(), 0);
  const auto add = [&](Bucket b) { add_hour_sums(out, sums[b]); };
  switch (filter.ap_class) {
    // classify_aps flags offices among Other APs only, so an office-only
    // home or public filter keeps no AP.
    case ApClass::Home:
      if (!filter.office_only) add(kHome);
      break;
    case ApClass::Public:
      if (!filter.office_only) add(kPublic);
      break;
    case ApClass::Other:
      add(kOffice);
      if (!filter.office_only) add(kOther);
      break;
  }
  return hourly_series_from_sums(out);
}

WifiLocationShares WifiLocationHours::shares() const {
  std::array<double, kNumBuckets> volume{};
  for (std::size_t b = 0; b < kNumBuckets; ++b) {
    std::uint64_t sum = 0;
    for (std::size_t h = 0; h < rx_sums[b].size(); ++h) {
      sum += rx_sums[b][h] + tx_sums[b][h];
    }
    volume[b] = static_cast<double>(sum);
  }
  const double total = volume[kHome] + volume[kPublic] + volume[kOffice] +
                       volume[kOther];
  WifiLocationShares shares;
  if (total > 0) {
    shares.home = volume[kHome] / total;
    shares.publik = volume[kPublic] / total;
    shares.office = volume[kOffice] / total;
    shares.other = volume[kOther] / total;
  }
  return shares;
}

query::Pending<WifiLocationHours> wifi_location_hours(
    query::Sweep& sweep, const ApClassification& cls) {
  // Shard samples reference the global AP universe, so the per-AP bucket
  // table is the same in every block.
  const auto n_hours = static_cast<std::size_t>(sweep.source().num_days()) * 24;
  return sweep.reduce<LocationSlots>(
      [bucket = location_buckets(cls)](const Dataset& block, std::size_t) {
        return location_hours_scan(block, bucket);
      },
      [](LocationSlots& acc, LocationSlots&& p) { add_hour_sums(acc, p); },
      [n_hours](LocationSlots&& slots) {
        if (slots.empty()) slots.assign((kTrash + 1) * n_hours * 2, 0);
        return location_hours_from_slots(slots, n_hours);
      });
}

WifiLocationHours wifi_location_hours(const query::DataSource& src,
                                      const ApClassification& cls) {
  return query::run_alone(src, [&](query::Sweep& sweep) {
    return wifi_location_hours(sweep, cls);
  });
}

WifiLocationShares wifi_location_shares(const query::DataSource& src,
                                        const ApClassification& cls) {
  return wifi_location_hours(src, cls).shares();
}

}  // namespace tokyonet::analysis
