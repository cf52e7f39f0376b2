// Whole-record rows of the sample stream, for the boundaries where
// records travel one at a time: ingest frames, CSV files and hand-built
// test datasets. assign_rows() turns rows into a Dataset's columns and
// layout (the one row-append path); for_each_row() gathers them back.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/dataset_index.h"
#include "core/records.h"

namespace tokyonet {

/// One 10-minute measurement record from one device: the fields of one
/// SampleColumns row (documented there), plus the device and the
/// record's slice [app_begin, app_begin + app_count) of the per-app
/// records it travels with.
struct Sample {
  DeviceId device{};
  TimeBin bin = 0;
  GeoCell geo_cell = kNoGeoCell;
  std::uint32_t cell_rx = 0;
  std::uint32_t cell_tx = 0;
  std::uint32_t wifi_rx = 0;
  std::uint32_t wifi_tx = 0;
  ApId ap = kNoAp;
  std::uint32_t app_begin = 0;
  std::uint8_t app_count = 0;
  CellTech tech = CellTech::None;
  WifiState wifi_state = WifiState::Off;
  std::int8_t rssi_dbm = -127;
  std::uint8_t battery_pct = 100;
  bool tethering = false;
  std::uint8_t scan_pub24_all = 0;
  std::uint8_t scan_pub24_strong = 0;
  std::uint8_t scan_pub5_all = 0;
  std::uint8_t scan_pub5_strong = 0;
  /// Explicit (zeroed) tail padding: without it assignment need not copy
  /// the two unnamed padding bytes, and rows that travel through the
  /// byte-exact ingest encoding would compare unequal to their
  /// originals.
  std::uint8_t reserved_[2] = {0, 0};
};
static_assert(sizeof(Sample) == 44, "the ingest wire format carries raw rows");

/// Replaces `ds.samples` with `rows` and indexes them, or returns the
/// first problem (the dataset is then unindexed). Rows come in device
/// order; within a device, a row with app records must start where the
/// device's previous records ended (rows without records may carry any
/// app_begin), and the device's app range starts at its first row with
/// records (else at its first row's app_begin).
[[nodiscard]] std::string assign_rows(Dataset& ds,
                                      std::span<const Sample> rows);

/// Row `i` of device `d`, with the given app-traffic offset.
[[nodiscard]] inline Sample gather_row(const SampleColumns& cols,
                                       std::size_t i, std::size_t d,
                                       std::size_t app_begin) {
  Sample s;
  s.device = DeviceId{static_cast<std::uint32_t>(d)};
  s.bin = cols.bin[i];
  s.geo_cell = cols.geo_cell[i];
  s.cell_rx = cols.cell_rx[i];
  s.cell_tx = cols.cell_tx[i];
  s.wifi_rx = cols.wifi_rx[i];
  s.wifi_tx = cols.wifi_tx[i];
  s.ap = ApId{cols.ap[i]};
  s.app_begin = static_cast<std::uint32_t>(app_begin);
  s.app_count = cols.app_count[i];
  s.tech = cols.tech[i];
  s.wifi_state = cols.wifi_state[i];
  s.rssi_dbm = cols.rssi_dbm[i];
  s.battery_pct = cols.battery_pct[i];
  s.tethering = (cols.flags[i] & SampleColumns::kFlagTethering) != 0;
  s.scan_pub24_all = cols.scan_pub24_all[i];
  s.scan_pub24_strong = cols.scan_pub24_strong[i];
  s.scan_pub5_all = cols.scan_pub5_all[i];
  s.scan_pub5_strong = cols.scan_pub5_strong[i];
  return s;
}

/// Calls `f(row)` for every sample of `ds` (which must be indexed), in
/// (device, bin) order. Each row's app_begin is the running offset in
/// its device's app range, so rows without records carry the offset the
/// next record would take — exactly what the simulator's rows held.
template <typename F>
void for_each_row(const Dataset& ds, F&& f) {
  const core::DatasetIndex& idx = ds.index();
  for (std::size_t d = 0; d < idx.num_devices(); ++d) {
    std::size_t app = idx.device_app_begin(d);
    for (std::size_t i = idx.device_begin(d); i < idx.device_end(d); ++i) {
      f(gather_row(ds.samples, i, d, app));
      app += ds.samples.app_count[i];
    }
  }
}

/// Every sample of `ds` as rows (tests and small exports).
[[nodiscard]] std::vector<Sample> gather_rows(const Dataset& ds);

}  // namespace tokyonet
