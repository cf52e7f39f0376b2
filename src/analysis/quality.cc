#include "analysis/quality.h"

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <span>
#include <unordered_map>

#include "analysis/query/scan.h"
#include "analysis/query/source.h"
#include "core/dataset_index.h"
#include "net/radio.h"
#include "stats/descriptive.h"

namespace tokyonet::analysis {
namespace {

// All chunk/block partials below are max-merges or exact integer sums,
// both grouping-independent, so the merged result is byte-identical to
// the serial reference at any thread count — and per-shard partials of
// the same shapes merge identically out of core.

using PairCounts = std::unordered_map<std::uint64_t, int>;

/// (ap, cell) -> associated-sample count, restricted to APs with
/// keep[ap] != 0 (keep has one entry per AP in the global universe).
///
/// Devices dwell: consecutive samples usually repeat the same (ap,
/// geo-cell) pair, so each chunk run-length-encodes the pair stream and
/// pays one hash-map update per run instead of one per sample. Counts
/// are exact integers, so any run/chunk grouping merges identically.
[[nodiscard]] PairCounts ap_cell_pair_counts(
    const Dataset& ds, const std::vector<std::uint8_t>& keep) {
  const std::span<const std::uint32_t> ap = ds.samples.ap;
  const std::span<const WifiState> state = ds.samples.wifi_state;
  const std::span<const std::uint16_t> geo = ds.samples.geo_cell;
  const std::size_t n = ap.size();

  const std::vector<PairCounts> partials =
      query::map_chunks(n, [&](std::size_t begin, std::size_t end) {
        PairCounts counts;
        std::size_t i = begin;
        while (i < end) {
          const std::uint32_t a = ap[i];
          const std::uint16_t g = geo[i];
          std::size_t j = i + 1;
          while (j < end && ap[j] == a && geo[j] == g) ++j;
          if (a != value(kNoAp) && g != kNoGeoCell && keep[a]) {
            int hits = 0;
            for (std::size_t k = i; k < j; ++k) {
              hits += state[k] == WifiState::Associated;
            }
            if (hits > 0) counts[(std::uint64_t{a} << 16) | g] += hits;
          }
          i = j;
        }
        return counts;
      });

  PairCounts total;
  std::size_t est = 0;
  for (const PairCounts& p : partials) est += p.size();
  total.reserve(est);
  for (const PairCounts& p : partials) {
    for (const auto& [key, k] : p) total[key] += k;
  }
  return total;
}

/// Per-AP arg-max over merged (ap, cell) counts. Picking the strictly
/// larger count — or, on ties, the lower cell id — is
/// order-independent, so the result matches the ordered-map reference
/// (first-in-iteration-order win over an ordered map == lowest cell id
/// among tied counts).
[[nodiscard]] std::vector<GeoCell> top_cells_from_counts(
    std::size_t n_aps, const PairCounts& total) {
  std::vector<int> best(n_aps, 0);
  std::vector<GeoCell> out(n_aps, kNoGeoCell);
  for (const auto& [key, k] : total) {
    const std::size_t a = key >> 16;
    const auto cell = static_cast<GeoCell>(key & 0xFFFF);
    if (k > best[a] || (k == best[a] && k > 0 && cell < out[a])) {
      best[a] = k;
      out[a] = cell;
    }
  }
  return out;
}

/// Most common device geolocation per AP while associated, over the APs
/// with keep[ap] != 0 (kNoGeoCell for the rest).
[[nodiscard]] std::vector<GeoCell> top_cells(
    const query::DataSource& src, const std::vector<std::uint8_t>& keep) {
  return top_cells_from_counts(
      src.aps().size(),
      src.reduce<PairCounts>(
          [&](const Dataset& block, std::size_t) {
            return ap_cell_pair_counts(block, keep);
          },
          [](PairCounts& acc, PairCounts&& p) {
            for (const auto& [key, k] : p) acc[key] += k;
          }));
}

}  // namespace

stats::Histogram RssiAnalysis::home_pdf() const {
  stats::Histogram h(-95, -20, 25);
  for (double r : home_max_rssi) h.add(r);
  return h;
}

stats::Histogram RssiAnalysis::public_pdf() const {
  stats::Histogram h(-95, -20, 25);
  for (double r : public_max_rssi) h.add(r);
  return h;
}

namespace {

// Max RSSI per associated 2.4 GHz AP (indexed by global AP id; -1e9
// for APs never associated). Max-merge is order-independent, so chunk
// and shard partials combine byte-identically.
[[nodiscard]] std::vector<double> ap_max_rssi(const Dataset& ds) {
  std::vector<double> max_rssi(ds.aps.size(), -1e9);

  std::vector<std::uint8_t> band24(ds.aps.size(), 0);
  for (std::size_t a = 0; a < ds.aps.size(); ++a) {
    band24[a] = ds.aps[a].band == Band::B24GHz;
  }
  const std::span<const std::uint32_t> ap = ds.samples.ap;
  const std::span<const WifiState> state = ds.samples.wifi_state;
  const std::span<const std::int8_t> rssi = ds.samples.rssi_dbm;
  const std::size_t n = ap.size();
  // Devices dwell on one AP for many consecutive bins, so each chunk
  // run-length-encodes the AP stream and emits one (ap, run max) pair
  // per association run — the per-AP filter runs once per run, and
  // the inner max over the run is a branch-free select the compiler
  // vectorizes. Max-merge of the pairs is order-independent, so the
  // result is byte-identical at any thread count / chunk grouping.
  // RSSI is an int8; track maxima in int16 with a below-range
  // sentinel.
  constexpr std::int16_t kUnseen = -32768;
  using RunMax = std::pair<std::uint32_t, std::int16_t>;
  const std::vector<std::vector<RunMax>> partials =
      query::map_chunks(n, [&](std::size_t begin, std::size_t end) {
        std::vector<RunMax> maxima;
        std::size_t i = begin;
        while (i < end) {
          const std::uint32_t a = ap[i];
          std::size_t j = i + 1;
          while (j < end && ap[j] == a) ++j;
          if (a != value(kNoAp) && band24[a]) {
            std::int16_t m = kUnseen;
            for (std::size_t k = i; k < j; ++k) {
              const std::int16_t r = state[k] == WifiState::Associated
                                         ? std::int16_t{rssi[k]}
                                         : kUnseen;
              m = std::max(m, r);
            }
            if (m != kUnseen) maxima.emplace_back(a, m);
          }
          i = j;
        }
        return maxima;
      });
  for (const std::vector<RunMax>& p : partials) {
    for (const auto& [a, m] : p) {
      max_rssi[a] = std::max(max_rssi[a], static_cast<double>(m));
    }
  }
  
  return max_rssi;
}

[[nodiscard]] RssiAnalysis rssi_finalize(const std::vector<double>& max_rssi,
                                         const ApClassification& cls) {
  RssiAnalysis out;
  for (std::size_t i = 0; i < max_rssi.size(); ++i) {
    if (max_rssi[i] < -200) continue;
    switch (cls.ap_class[i]) {
      case ApClass::Home: out.home_max_rssi.push_back(max_rssi[i]); break;
      case ApClass::Public: out.public_max_rssi.push_back(max_rssi[i]); break;
      case ApClass::Other: break;
    }
  }
  out.home_mean = stats::mean(out.home_max_rssi);
  out.public_mean = stats::mean(out.public_max_rssi);
  auto below = [](const std::vector<double>& v) {
    if (v.empty()) return 0.0;
    std::size_t n = 0;
    for (double r : v) n += r < net::kStrongRssiDbm;
    return static_cast<double>(n) / static_cast<double>(v.size());
  };
  out.home_below_70_share = below(out.home_max_rssi);
  out.public_below_70_share = below(out.public_max_rssi);
  return out;
}

}  // namespace

RssiAnalysis rssi_analysis(const query::DataSource& src,
                           const ApClassification& cls) {
  return rssi_finalize(
      src.reduce<std::vector<double>>(
          [](const Dataset& block, std::size_t) { return ap_max_rssi(block); },
          [](std::vector<double>& acc, std::vector<double>&& p) {
            for (std::size_t a = 0; a < acc.size(); ++a) {
              acc[a] = std::max(acc[a], p[a]);
            }
          }),
      cls);
}

namespace {

// Flat 29-slot association counts behind channel_analysis(): slot 0 =
// trash, 1 + channel = home, 15 + channel = public. u64, so chunk and
// shard partials merge byte-identically.
using ChannelCounts = std::array<std::uint64_t, 29>;

[[nodiscard]] ChannelCounts channel_counts(const Dataset& ds,
                                           const ApClassification& cls) {
  ChannelCounts total{};

  const core::DatasetIndex& idx = ds.index();
  // Per-AP code into the flat count table; a trailing sentinel row
  // absorbs out-of-range AP ids, so associated samples need no bounds
  // or class branches — one gather + increment each.
  const std::size_t naps = ds.aps.size();
  std::vector<std::uint8_t> code(naps + 1, 0);
  for (std::size_t a = 0; a < naps; ++a) {
    const ApInfo& ap = ds.aps[a];
    if (ap.band != Band::B24GHz || ap.channel > 13) continue;
    if (cls.ap_class[a] == ApClass::Home) {
      code[a] = static_cast<std::uint8_t>(1 + ap.channel);
    } else if (cls.ap_class[a] == ApClass::Public) {
      code[a] = static_cast<std::uint8_t>(15 + ap.channel);
    }
  }
  const std::span<const std::uint32_t> ap = ds.samples.ap;
  const std::span<const WifiState> state = ds.samples.wifi_state;
  const std::size_t n_devices = ds.devices.size();
  const std::vector<ChannelCounts> partials = query::map_device_blocks(
      n_devices, [&](std::size_t d0, std::size_t d1) {
        ChannelCounts counts{};
        for (std::size_t d = d0; d < d1; ++d) {
          if (ds.devices[d].os != Os::Android) continue;
          const std::size_t end = idx.device_end(d);
          for (std::size_t i = idx.device_begin(d); i < end; ++i) {
            // Branch on association state: unassociated bins cluster
            // into long, well-predicted runs, and skipping them keeps
            // the counts[] increment chain off the common path.
            if (state[i] != WifiState::Associated) continue;
            const std::uint32_t a = ap[i];
            const std::size_t ki = a < naps ? a : naps;
            ++counts[code[ki]];
          }
        }
        return counts;
      });
  for (const ChannelCounts& p : partials) {
    for (std::size_t s = 0; s < total.size(); ++s) total[s] += p[s];
  }
  return total;
}

[[nodiscard]] ChannelAnalysis channel_finalize(const ChannelCounts& counts) {
  std::array<double, 14> home{}, publik{};
  double home_total = 0, public_total = 0;
  for (std::size_t c = 0; c < 14; ++c) {
    home[c] = static_cast<double>(counts[1 + c]);
    publik[c] = static_cast<double>(counts[15 + c]);
    home_total += home[c];
    public_total += publik[c];
  }
  ChannelAnalysis out;
  for (std::size_t c = 0; c < 14; ++c) {
    out.home_pmf[c] = home_total > 0 ? home[c] / home_total : 0;
    out.public_pmf[c] = public_total > 0 ? publik[c] / public_total : 0;
  }
  return out;
}

}  // namespace

ChannelAnalysis channel_analysis(const query::DataSource& src,
                                 const ApClassification& cls) {
  return channel_finalize(src.reduce<ChannelCounts>(
      [&](const Dataset& block, std::size_t) {
        return channel_counts(block, cls);
      },
      [](ChannelCounts& acc, ChannelCounts&& p) {
        for (std::size_t s = 0; s < acc.size(); ++s) acc[s] += p[s];
      }));
}

InterferenceAnalysis channel_interference(const query::DataSource& src,
                                          const ApClassification& cls,
                                          int num_cells, int min_channel_gap) {
  // Most common device geolocation per AP while associated (2.4 GHz).
  const std::vector<ApInfo>& aps = src.aps();
  std::vector<std::uint8_t> band24(aps.size(), 0);
  for (std::size_t a = 0; a < aps.size(); ++a) {
    band24[a] = aps[a].band == Band::B24GHz;
  }
  const std::vector<GeoCell> cells = top_cells(src, band24);
  // Bucket associated 2.4 GHz APs per cell, tagged with class+channel.
  struct Entry {
    ApClass klass;
    int channel;
  };
  std::vector<std::vector<Entry>> by_cell(static_cast<std::size_t>(num_cells));
  for (std::size_t i = 0; i < aps.size(); ++i) {
    if (!cls.associated[i] || cells[i] == kNoGeoCell) continue;
    if (cells[i] >= num_cells) continue;
    if (cls.ap_class[i] == ApClass::Other) continue;
    by_cell[cells[i]].push_back(Entry{cls.ap_class[i], aps[i].channel});
  }

  InterferenceAnalysis out;
  int home_conflicts = 0, public_conflicts = 0;
  for (const auto& bucket : by_cell) {
    for (std::size_t a = 0; a < bucket.size(); ++a) {
      for (std::size_t b = a + 1; b < bucket.size(); ++b) {
        if (bucket[a].klass != bucket[b].klass) continue;
        const bool overlap =
            std::abs(bucket[a].channel - bucket[b].channel) < min_channel_gap;
        if (bucket[a].klass == ApClass::Home) {
          ++out.home_pairs;
          home_conflicts += overlap;
        } else {
          ++out.public_pairs;
          public_conflicts += overlap;
        }
      }
    }
  }
  if (out.home_pairs > 0) {
    out.home_conflict_share =
        static_cast<double>(home_conflicts) / out.home_pairs;
  }
  if (out.public_pairs > 0) {
    out.public_conflict_share =
        static_cast<double>(public_conflicts) / out.public_pairs;
  }
  return out;
}

namespace {

[[nodiscard]] std::vector<std::uint8_t> class_keep_table(
    std::size_t n_aps, const ApClassification& cls, ApClass which) {
  std::vector<std::uint8_t> keep(n_aps, 0);
  for (std::size_t a = 0; a < n_aps; ++a) keep[a] = cls.ap_class[a] == which;
  return keep;
}

[[nodiscard]] ApDensityMap density_from_top_cells(
    const std::vector<GeoCell>& top_cell, int num_cells) {
  ApDensityMap out;
  out.count_by_cell.assign(static_cast<std::size_t>(num_cells), 0);
  for (const GeoCell best_cell : top_cell) {
    if (best_cell != kNoGeoCell && best_cell < num_cells) {
      ++out.count_by_cell[best_cell];
    }
  }
  for (int n : out.count_by_cell) {
    out.cells_with_ap += n >= 1;
    out.cells_with_100 += n >= 100;
    out.max_count = std::max(out.max_count, n);
  }
  return out;
}

}  // namespace

ApDensityMap ap_density_map(const query::DataSource& src,
                            const ApClassification& cls, ApClass which,
                            int num_cells) {
  return density_from_top_cells(
      top_cells(src, class_keep_table(src.aps().size(), cls, which)),
      num_cells);
}

}  // namespace tokyonet::analysis
