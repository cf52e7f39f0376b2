#include "analysis/incremental.h"

#include <cstring>

#include "analysis/query/source.h"
#include "analysis/ratios.h"
#include "core/dataset_index.h"

namespace tokyonet::analysis {

// UserDay packs without padding (4+4 bytes then four 8-byte doubles),
// so streaming/batch rows can be compared with one memcmp.
static_assert(sizeof(UserDay) == 40);

// --- Per-device / per-shard state --------------------------------------

struct IncrementalAnalysis::DeviceState {
  DeviceState(DeviceId id, int num_days) {
    days.reserve(static_cast<std::size_t>(num_days));
    for (int d = 0; d < num_days; ++d) {
      UserDay ud;
      ud.device = id;
      ud.day = d;
      days.push_back(ud);
    }
  }

  std::vector<UserDay> days;
};

struct IncrementalAnalysis::ShardState {
  explicit ShardState(std::uint32_t n_aps) : ap_observations(n_aps, 0) {}

  mutable std::mutex mu;
  StreamTotals totals;
  WeeklyProfile traffic;  // WiFi share of download
  WeeklyProfile users;    // associated share of samples
  std::vector<std::uint64_t> ap_observations;
};

IncrementalAnalysis::IncrementalAnalysis(Date start, int num_days,
                                         std::uint32_t n_devices,
                                         std::uint32_t n_aps, int num_shards)
    : calendar_(start, num_days),
      n_devices_(n_devices),
      n_aps_(n_aps),
      devices_(n_devices) {
  if (num_shards < 1) num_shards = 1;
  shards_.reserve(static_cast<std::size_t>(num_shards));
  for (int s = 0; s < num_shards; ++s) {
    shards_.push_back(std::make_unique<ShardState>(n_aps));
  }
}

IncrementalAnalysis::~IncrementalAnalysis() = default;

void IncrementalAnalysis::add_batch(int shard, DeviceId device,
                                    std::span<const Sample> samples,
                                    std::span<const AppTraffic> app) {
  ShardState& ss = *shards_[static_cast<std::size_t>(shard)];
  std::lock_guard<std::mutex> lk(ss.mu);

  std::unique_ptr<DeviceState>& slot = devices_[value(device)];
  if (!slot) {
    slot = std::make_unique<DeviceState>(device, calendar_.num_days());
  }
  DeviceState& dev = *slot;

  for (const Sample& s : samples) {
    // Integer totals: order-independent.
    ++ss.totals.n_samples;
    ss.totals.cell_rx += s.cell_rx;
    ss.totals.cell_tx += s.cell_tx;
    ss.totals.wifi_rx += s.wifi_rx;
    ss.totals.wifi_tx += s.wifi_tx;
    if (s.tech == CellTech::Lte) ss.totals.lte_rx += s.cell_rx;
    if (s.wifi_state == WifiState::Associated) ++ss.totals.assoc_samples;
    if (s.tethering) ++ss.totals.tether_samples;
    if (s.app_count > 0) {
      // app_begin is only meaningful (frame-local) when app_count > 0;
      // empty samples keep their original offset verbatim (frame.h).
      for (const AppTraffic& at : app.subspan(s.app_begin, s.app_count)) {
        ++ss.totals.n_app_records;
        ss.totals.app_rx[static_cast<int>(at.category)] += at.rx_bytes;
        ss.totals.app_tx[static_cast<int>(at.category)] += at.tx_bytes;
      }
    }

    // Daily rollup: the exact expressions of user_days() (which strips
    // tethering samples), accumulated in the same per-device order.
    if (!s.tethering) {
      UserDay& ud = dev.days[static_cast<std::size_t>(calendar_.day_of(s.bin))];
      ud.cell_rx_mb += s.cell_rx / kBytesPerMb;
      ud.cell_tx_mb += s.cell_tx / kBytesPerMb;
      ud.wifi_rx_mb += s.wifi_rx / kBytesPerMb;
      ud.wifi_tx_mb += s.wifi_tx / kBytesPerMb;
    }

    // Weekly ratio profiles: compute_wifi_ratios' per-sample add into
    // the class-independent pair (exact sums, so per shard suffices).
    add_ratio_sample(ss.traffic, ss.users,
                     WeeklyProfile::hour_of_week(calendar_, s.bin), s.wifi_rx,
                     s.cell_rx, s.wifi_state == WifiState::Associated);

    if (s.ap != kNoAp) ++ss.ap_observations[value(s.ap)];
  }
}

StreamResult IncrementalAnalysis::result() const {
  // Hold every shard lock for the whole merge so the snapshot is
  // consistent (a worker can otherwise commit between shards).
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(shards_.size());
  for (const std::unique_ptr<ShardState>& ss : shards_) {
    locks.emplace_back(ss->mu);
  }

  StreamResult out;
  out.ap_observations.assign(n_aps_, 0);
  for (const std::unique_ptr<ShardState>& ss : shards_) {
    const StreamTotals& t = ss->totals;
    out.totals.n_samples += t.n_samples;
    out.totals.n_app_records += t.n_app_records;
    out.totals.cell_rx += t.cell_rx;
    out.totals.cell_tx += t.cell_tx;
    out.totals.wifi_rx += t.wifi_rx;
    out.totals.wifi_tx += t.wifi_tx;
    out.totals.lte_rx += t.lte_rx;
    out.totals.assoc_samples += t.assoc_samples;
    out.totals.tether_samples += t.tether_samples;
    for (int c = 0; c < kNumAppCategories; ++c) {
      out.totals.app_rx[c] += t.app_rx[c];
      out.totals.app_tx[c] += t.app_tx[c];
    }
    out.wifi_traffic.merge(ss->traffic);
    out.wifi_users.merge(ss->users);
    for (std::size_t a = 0; a < out.ap_observations.size(); ++a) {
      out.ap_observations[a] += ss->ap_observations[a];
    }
  }

  // Per-device daily rows concatenate in device-id order, matching the
  // batch rollup regardless of the shard count.
  const auto num_days = static_cast<std::size_t>(calendar_.num_days());
  out.user_days.reserve(devices_.size() * num_days);
  for (std::uint32_t d = 0; d < n_devices_; ++d) {
    const DeviceState* dev = devices_[d].get();
    if (dev != nullptr) {
      out.user_days.insert(out.user_days.end(), dev->days.begin(),
                           dev->days.end());
    } else {
      // Device never reported: zero rows, like the batch rollup.
      for (std::size_t day = 0; day < num_days; ++day) {
        UserDay ud;
        ud.device = DeviceId{d};
        ud.day = static_cast<int>(day);
        out.user_days.push_back(ud);
      }
    }
  }
  return out;
}

std::unique_lock<std::mutex> IncrementalAnalysis::freeze_shard(
    int shard) const {
  return std::unique_lock<std::mutex>(
      shards_[static_cast<std::size_t>(shard)]->mu);
}

// --- Batch counterpart --------------------------------------------------

StreamResult batch_stream_result(const Dataset& ds) {
  StreamResult out;

  // The daily rollup and the weekly profiles come straight from the
  // batch kernels the streaming layer mirrors.
  out.user_days = user_days(ds);
  const UserClassifier classes(out.user_days);
  const WifiRatios ratios =
      compute_wifi_ratios(query::InMemorySource(ds), out.user_days, classes);
  out.wifi_traffic = ratios.traffic_all;
  out.wifi_users = ratios.users_all;

  // Integer aggregates: one serial pass over the columns and the
  // devices' app records (order-independent sums).
  const SampleColumns& cols = ds.samples;
  const std::span<const std::uint32_t> cell_rx = cols.cell_rx, cell_tx =
      cols.cell_tx, wifi_rx = cols.wifi_rx, wifi_tx = cols.wifi_tx,
      ap = cols.ap;
  const std::span<const CellTech> tech = cols.tech;
  const std::span<const WifiState> state = cols.wifi_state;
  const std::span<const std::uint8_t> flags = cols.flags;
  StreamTotals& t = out.totals;
  out.ap_observations.assign(ds.aps.size(), 0);
  t.n_samples = cols.size();
  for (std::size_t i = 0; i < cols.size(); ++i) {
    t.cell_rx += cell_rx[i];
    t.cell_tx += cell_tx[i];
    t.wifi_rx += wifi_rx[i];
    t.wifi_tx += wifi_tx[i];
    if (tech[i] == CellTech::Lte) t.lte_rx += cell_rx[i];
    if (state[i] == WifiState::Associated) ++t.assoc_samples;
    if ((flags[i] & SampleColumns::kFlagTethering) != 0) ++t.tether_samples;
    if (ap[i] != value(kNoAp)) ++out.ap_observations[ap[i]];
  }
  const core::DatasetIndex& idx = ds.index();
  for (std::size_t d = 0; d < ds.devices.size(); ++d) {
    for (std::size_t a = idx.device_app_begin(d); a < idx.device_app_end(d);
         ++a) {
      const AppTraffic& at = ds.app_traffic[a];
      ++t.n_app_records;
      t.app_rx[static_cast<int>(at.category)] += at.rx_bytes;
      t.app_tx[static_cast<int>(at.category)] += at.tx_bytes;
    }
  }
  return out;
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
