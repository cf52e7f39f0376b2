#include "analysis/incremental.h"

#include <cstring>
#include <span>

#include "analysis/query/source.h"
#include "analysis/ratios.h"
#include "core/dataset_index.h"

namespace tokyonet::analysis {

// UserDay packs without padding (4+4 bytes then four 8-byte doubles),
// so streaming/batch rows can be compared with one memcmp.
static_assert(sizeof(UserDay) == 40);

namespace {

/// One block's products: its daily rollup (global device ids) and its
/// integer totals and AP counts.
struct BlockScan {
  std::vector<UserDay> days;
  StreamTotals totals;
  std::vector<std::uint64_t> ap_observations;
};

[[nodiscard]] BlockScan scan_block(const Dataset& ds, std::size_t base) {
  BlockScan p;
  p.days = user_days(ds);
  for (UserDay& d : p.days) {
    d.device = DeviceId{static_cast<std::uint32_t>(base + value(d.device))};
  }

  const SampleColumns& cols = ds.samples;
  const std::span<const std::uint32_t> cell_rx = cols.cell_rx, cell_tx =
      cols.cell_tx, wifi_rx = cols.wifi_rx, wifi_tx = cols.wifi_tx,
      ap = cols.ap;
  const std::span<const CellTech> tech = cols.tech;
  const std::span<const WifiState> state = cols.wifi_state;
  const std::span<const std::uint8_t> flags = cols.flags;
  StreamTotals& t = p.totals;
  p.ap_observations.assign(ds.aps.size(), 0);
  t.n_samples = cols.size();
  for (std::size_t i = 0; i < cols.size(); ++i) {
    t.cell_rx += cell_rx[i];
    t.cell_tx += cell_tx[i];
    t.wifi_rx += wifi_rx[i];
    t.wifi_tx += wifi_tx[i];
    if (tech[i] == CellTech::Lte) t.lte_rx += cell_rx[i];
    if (state[i] == WifiState::Associated) ++t.assoc_samples;
    if ((flags[i] & SampleColumns::kFlagTethering) != 0) ++t.tether_samples;
    if (ap[i] != value(kNoAp)) ++p.ap_observations[ap[i]];
  }
  const core::DatasetIndex& idx = ds.index();
  for (std::size_t d = 0; d < ds.devices.size(); ++d) {
    for (std::size_t a = idx.device_app_begin(d); a < idx.device_app_end(d);
         ++a) {
      const AppTraffic at = ds.app_traffic[a];
      ++t.n_app_records;
      t.app_rx[static_cast<int>(at.category)] += at.rx_bytes;
      t.app_tx[static_cast<int>(at.category)] += at.tx_bytes;
    }
  }
  return p;
}

void add(StreamTotals& into, const StreamTotals& from) noexcept {
  into.n_samples += from.n_samples;
  into.n_app_records += from.n_app_records;
  into.cell_rx += from.cell_rx;
  into.cell_tx += from.cell_tx;
  into.wifi_rx += from.wifi_rx;
  into.wifi_tx += from.wifi_tx;
  into.lte_rx += from.lte_rx;
  into.assoc_samples += from.assoc_samples;
  into.tether_samples += from.tether_samples;
  for (int c = 0; c < kNumAppCategories; ++c) {
    into.app_rx[c] += from.app_rx[c];
    into.app_tx[c] += from.app_tx[c];
  }
}

}  // namespace

StreamResult batch_stream_result(const query::DataSource& src) {
  StreamResult out;
  out.ap_observations.assign(src.aps().size(), 0);
  // Per-device products concatenate in block (= device) order; the
  // totals and AP counts are exact sums (DESIGN.md §5c).
  src.fold<BlockScan>(
      [](const Dataset& block, std::size_t base) {
        return scan_block(block, base);
      },
      [&](BlockScan&& p, std::size_t) {
        out.user_days.insert(out.user_days.end(), p.days.begin(),
                             p.days.end());
        add(out.totals, p.totals);
        for (std::size_t a = 0; a < out.ap_observations.size(); ++a) {
          out.ap_observations[a] += p.ap_observations[a];
        }
      });

  const UserClassifier classes(out.user_days);
  const WifiRatios ratios = compute_wifi_ratios(src, out.user_days, classes);
  out.wifi_traffic = ratios.traffic_all;
  out.wifi_users = ratios.users_all;
  return out;
}

StreamResult batch_stream_result(const Dataset& ds) {
  return batch_stream_result(query::InMemorySource(ds));
}

// --- Bit-exact comparison ----------------------------------------------

namespace {

[[nodiscard]] bool bytes_equal(const void* a, const void* b, std::size_t n) {
  return n == 0 || std::memcmp(a, b, n) == 0;
}

}  // namespace

std::string compare_stream_results(const StreamResult& a,
                                   const StreamResult& b) {
  if (!bytes_equal(&a.totals, &b.totals, sizeof(StreamTotals))) {
    if (a.totals.n_samples != b.totals.n_samples) {
      return "totals.n_samples: " + std::to_string(a.totals.n_samples) +
             " vs " + std::to_string(b.totals.n_samples);
    }
    return "stream totals differ";
  }
  if (a.user_days.size() != b.user_days.size()) {
    return "user_days row count: " + std::to_string(a.user_days.size()) +
           " vs " + std::to_string(b.user_days.size());
  }
  if (!bytes_equal(a.user_days.data(), b.user_days.data(),
                   a.user_days.size() * sizeof(UserDay))) {
    for (std::size_t i = 0; i < a.user_days.size(); ++i) {
      if (!bytes_equal(&a.user_days[i], &b.user_days[i], sizeof(UserDay))) {
        return "user_days row " + std::to_string(i) + " (device " +
               std::to_string(value(a.user_days[i].device)) + ", day " +
               std::to_string(a.user_days[i].day) + ") differs";
      }
    }
  }
  if (a.wifi_traffic != b.wifi_traffic) return "wifi_traffic profile differs";
  if (a.wifi_users != b.wifi_users) return "wifi_users profile differs";
  if (a.ap_observations.size() != b.ap_observations.size()) {
    return "ap_observations size: " + std::to_string(a.ap_observations.size()) +
           " vs " + std::to_string(b.ap_observations.size());
  }
  if (!bytes_equal(a.ap_observations.data(), b.ap_observations.data(),
                   a.ap_observations.size() * sizeof(std::uint64_t))) {
    for (std::size_t i = 0; i < a.ap_observations.size(); ++i) {
      if (a.ap_observations[i] != b.ap_observations[i]) {
        return "ap_observations[" + std::to_string(i) + "]: " +
               std::to_string(a.ap_observations[i]) + " vs " +
               std::to_string(b.ap_observations[i]);
      }
    }
  }
  return "";
}

}  // namespace tokyonet::analysis
