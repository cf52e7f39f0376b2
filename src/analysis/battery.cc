#include "analysis/battery.h"

#include <cstdint>
#include <span>

#include "analysis/query/scan.h"
#include "analysis/query/source.h"
#include "core/dataset_index.h"

namespace tokyonet::analysis {
namespace {

// Exact integer partial behind battery_analysis(): every field is a u64
// sum or a count (and WeeklyProfile adds integer weights), so partials
// merge byte-identically across chunks and shards.
struct BatteryPartial {
  WeeklyProfile mean_level;
  std::uint64_t sum = 0, off_sum = 0, on_sum = 0;
  std::size_t n = 0, low = 0, off_n = 0, on_n = 0;

  void merge(const BatteryPartial& p) {
    mean_level.merge(p.mean_level);
    sum += p.sum;
    off_sum += p.off_sum;
    on_sum += p.on_sum;
    n += p.n;
    low += p.low;
    off_n += p.off_n;
    on_n += p.on_n;
  }
};

[[nodiscard]] BatteryPartial battery_scan(const Dataset& ds) {
  BatteryPartial out;

  const core::DatasetIndex& idx = ds.index();
  // Chunked partials over the SoA columns. Every accumulation is an
  // exact u64 sum, so the chunk merge is byte-identical to the serial
  // scan at any thread count.
  const std::span<const TimeBin> bin = ds.samples.bin;
  const std::span<const std::uint8_t> battery = ds.samples.battery_pct;
  const std::span<const WifiState> state = ds.samples.wifi_state;
  const std::span<const std::uint16_t> how = idx.hour_of_week_table();
  const std::size_t total = bin.size();
  const std::vector<BatteryPartial> partials =
      query::map_chunks(total, [&](std::size_t begin, std::size_t end) {
        BatteryPartial p;
        p.n = end - begin;
        for (std::size_t i = begin; i < end; ++i) {
          const std::uint8_t level = battery[i];
          p.mean_level.add_hour(how[bin[i]], level);
          p.sum += level;
          p.low += level < 20;
          if (state[i] == WifiState::Off) {
            p.off_sum += level;
            ++p.off_n;
          } else {
            p.on_sum += level;
            ++p.on_n;
          }
        }
        return p;
      });
  for (const BatteryPartial& p : partials) out.merge(p);
  return out;
}

[[nodiscard]] BatteryAnalysis battery_finalize(const BatteryPartial& p) {
  BatteryAnalysis out;
  out.mean_level = p.mean_level;
  if (p.n > 0) {
    out.mean = static_cast<double>(p.sum) / static_cast<double>(p.n);
    out.low_share = static_cast<double>(p.low) / static_cast<double>(p.n);
  }
  if (p.off_n > 0) {
    out.mean_wifi_off =
        static_cast<double>(p.off_sum) / static_cast<double>(p.off_n);
  }
  if (p.on_n > 0) {
    out.mean_wifi_on =
        static_cast<double>(p.on_sum) / static_cast<double>(p.on_n);
  }
  return out;
}

}  // namespace

BatteryAnalysis battery_analysis(const query::DataSource& src) {
  return battery_finalize(src.reduce<BatteryPartial>(
      [](const Dataset& block, std::size_t) { return battery_scan(block); },
      [](BatteryPartial& acc, BatteryPartial&& p) { acc.merge(p); }));
}

}  // namespace tokyonet::analysis
