#include "analysis/apps.h"

#include <algorithm>
#include <cstdint>

#include "analysis/query/scan.h"
#include "analysis/query/source.h"
#include "core/dataset_index.h"

namespace tokyonet::analysis {

std::string_view to_string(AppContext c) noexcept {
  switch (c) {
    case AppContext::CellHome: return "Cell home";
    case AppContext::CellOther: return "Cell other";
    case AppContext::WifiHome: return "WiFi home";
    case AppContext::WifiPublic: return "WiFi public";
  }
  return "?";
}

std::vector<AppBreakdown::Entry> AppBreakdown::top(AppContext context,
                                                   bool rx, int n) const {
  const auto& shares =
      (rx ? rx_share : tx_share)[static_cast<std::size_t>(context)];
  std::vector<Entry> entries;
  for (int c = 0; c < kNumAppCategories; ++c) {
    if (shares[static_cast<std::size_t>(c)] > 0) {
      entries.push_back(
          {static_cast<AppCategory>(c), shares[static_cast<std::size_t>(c)]});
    }
  }
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) { return a.share > b.share; });
  if (static_cast<int>(entries.size()) > n) entries.resize(static_cast<std::size_t>(n));
  return entries;
}

namespace {

// Exact u64 byte sums per (context, category) behind app_breakdown().
// `home_cells` and `include_day` are campaign-wide tables (global
// device indices); `base` rebases this block's local device ids into
// them, so shard partials merge byte-identically.
using AppSums =
    std::array<std::array<std::uint64_t, kNumAppCategories>, kNumAppContexts>;

struct AppPartial {
  AppSums rx{}, tx{};

  void merge(const AppPartial& p) noexcept {
    for (std::size_t ctx = 0; ctx < kNumAppContexts; ++ctx) {
      for (std::size_t c = 0;
           c < static_cast<std::size_t>(kNumAppCategories); ++c) {
        rx[ctx][c] += p.rx[ctx][c];
        tx[ctx][c] += p.tx[ctx][c];
      }
    }
  }
};

[[nodiscard]] AppPartial app_breakdown_sums(
    const Dataset& ds, const ApClassification& cls,
    const std::vector<GeoCell>& home_cells,
    const std::vector<bool>& include_day, bool light_users_only,
    std::size_t base) {
  AppPartial out;
  const auto num_days = static_cast<std::size_t>(ds.num_days());

  const core::DatasetIndex& idx = ds.index();
  // Per-device-block partials over the index: the OS check hoists to
  // one test per device, the light-user day filter to whole per-day
  // ranges, and the hot loop strides four columns only — app_count
  // (u8), wifi_state (u8), ap (u32) and geo_cell (u16). A sample's app
  // records sit at a running cursor: a device's records follow its
  // rows in order, so starting at device_app_begin(d) and consuming
  // app_count per sample recovers every sample's app range. All sums
  // are u64 over u32 values, so the block reduction is byte-identical
  // to the serial scan at any thread count.
  const std::span<const std::uint8_t> acnt = ds.samples.app_count;
  const std::span<const WifiState> state = ds.samples.wifi_state;
  const std::span<const std::uint32_t> apcol = ds.samples.ap;
  const std::span<const std::uint16_t> geo = ds.samples.geo_cell;
  const std::span<const AppCategory> app_category = ds.app_traffic.category;
  const std::span<const std::uint32_t> app_rx = ds.app_traffic.rx_bytes;
  const std::span<const std::uint32_t> app_tx = ds.app_traffic.tx_bytes;
  const std::size_t n_devices = ds.devices.size();
  const int days_total = ds.num_days();
  const std::vector<AppPartial> partials = query::map_device_blocks(
      n_devices, [&](std::size_t d0, std::size_t d1) {
        AppPartial p;
        for (std::size_t d = d0; d < d1; ++d) {
          if (ds.devices[d].os != Os::Android) continue;
          const GeoCell home = home_cells[base + d];
          std::size_t cursor = idx.device_app_begin(d);
          // The app context is a pure function of (wifi_state, ap,
          // geo_cell), and devices dwell — those columns are constant
          // over long sample runs. Run-length-encode them and resolve
          // the context (AP-class gather and all) once per run; the
          // per-sample work inside a run is just the app_count byte
          // and the record loop.
          const auto scan_range = [&](std::size_t begin, std::size_t end) {
            std::size_t i = begin;
            while (i < end) {
              const std::uint32_t a = apcol[i];
              const std::uint16_t g = geo[i];
              const WifiState st = state[i];
              std::size_t j = i + 1;
              while (j < end && apcol[j] == a && geo[j] == g &&
                     state[j] == st) {
                ++j;
              }

              AppContext ctx = AppContext::CellOther;
              bool tabulated = true;
              if (st == WifiState::Associated && a != value(kNoAp)) {
                switch (cls.ap_class[a]) {
                  case ApClass::Home: ctx = AppContext::WifiHome; break;
                  case ApClass::Public: ctx = AppContext::WifiPublic; break;
                  case ApClass::Other: tabulated = false; break;
                }
              } else {
                ctx = (home != kNoGeoCell && g == home)
                          ? AppContext::CellHome
                          : AppContext::CellOther;
              }

              if (!tabulated) {  // office/venue: skip, keep cursor in sync
                for (std::size_t k = i; k < j; ++k) cursor += acnt[k];
                i = j;
                continue;
              }
              // One context for the whole run means its records are
              // one contiguous range: sum the count bytes (vectorized)
              // and sweep the range in a single tight loop.
              std::size_t run_count = 0;
              for (std::size_t k = i; k < j; ++k) run_count += acnt[k];
              const std::size_t a0 = cursor;
              cursor += run_count;
              auto& rx_row = p.rx[static_cast<std::size_t>(ctx)];
              auto& tx_row = p.tx[static_cast<std::size_t>(ctx)];
              for (std::size_t a2 = a0; a2 < a0 + run_count; ++a2) {
                const auto c = static_cast<std::size_t>(app_category[a2]);
                rx_row[c] += app_rx[a2];
                tx_row[c] += app_tx[a2];
              }
              i = j;
            }
          };
          if (light_users_only) {
            for (int day = 0; day < days_total; ++day) {
              const std::size_t begin = idx.day_begin(d, day);
              const std::size_t end = idx.day_begin(d, day + 1);
              if (!include_day[(base + d) * num_days +
                               static_cast<std::size_t>(day)]) {
                // Keep the cursor in sync across excluded days.
                for (std::size_t i = begin; i < end; ++i) cursor += acnt[i];
                continue;
              }
              scan_range(begin, end);
            }
          } else {
            scan_range(idx.device_begin(d), idx.device_end(d));
          }
        }
        return p;
      });
  for (const AppPartial& p : partials) out.merge(p);
  
  return out;
}

// The light-user (device, day) filter table over the *campaign-wide*
// device universe; empty unless filtering (UserDay carries global ids).
[[nodiscard]] std::vector<bool> light_day_table(
    std::size_t n_devices, std::size_t num_days,
    const AppBreakdownOptions& opt) {
  std::vector<bool> include_day;
  if (opt.light_users_only) {
    include_day.assign(n_devices * num_days, false);
    for (const UserDay& d : *opt.days) {
      include_day[value(d.device) * num_days +
                  static_cast<std::size_t>(d.day)] =
          opt.classes->classify(d) == UserClass::Light;
    }
  }
  return include_day;
}

// Normalizes the exact sums to per-context shares. Totals are summed in
// category order from the same integer operands the all-at-once scan
// produced, so shares match it bit-for-bit.
[[nodiscard]] AppBreakdown app_breakdown_finalize(const AppPartial& sums) {
  AppBreakdown out;
  for (std::size_t ctx = 0; ctx < kNumAppContexts; ++ctx) {
    double rx_total = 0, tx_total = 0;
    for (std::size_t c = 0;
         c < static_cast<std::size_t>(kNumAppCategories); ++c) {
      rx_total += static_cast<double>(sums.rx[ctx][c]);
      tx_total += static_cast<double>(sums.tx[ctx][c]);
    }
    for (std::size_t c = 0;
         c < static_cast<std::size_t>(kNumAppCategories); ++c) {
      if (rx_total > 0) {
        out.rx_share[ctx][c] =
            static_cast<double>(sums.rx[ctx][c]) / rx_total;
      }
      if (tx_total > 0) {
        out.tx_share[ctx][c] =
            static_cast<double>(sums.tx[ctx][c]) / tx_total;
      }
    }
  }
  return out;
}

}  // namespace

AppBreakdown app_breakdown(const query::DataSource& src,
                           const ApClassification& cls,
                           const std::vector<GeoCell>& home_cells,
                           const AppBreakdownOptions& opt) {
  const std::vector<bool> include_day = light_day_table(
      src.n_devices(), static_cast<std::size_t>(src.num_days()), opt);
  return app_breakdown_finalize(src.reduce<AppPartial>(
      [&](const Dataset& block, std::size_t base) {
        return app_breakdown_sums(block, cls, home_cells, include_day,
                                  opt.light_users_only, base);
      },
      [](AppPartial& acc, AppPartial&& p) { acc.merge(p); }));
}

}  // namespace tokyonet::analysis
