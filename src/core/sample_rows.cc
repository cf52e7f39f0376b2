#include "core/sample_rows.h"

namespace tokyonet {

std::string assign_rows(Dataset& ds, std::span<const Sample> rows) {
  const std::size_t n = rows.size();
  const std::size_t n_devices = ds.devices.size();
  core::SampleLayout layout;
  layout.device_offset.assign(n_devices + 1, n);
  layout.app_range.assign(2 * n_devices, 0);

  ds.samples.resize_for_overwrite(n);
  SampleColumns& c = ds.samples;
  std::string error;
  std::size_t next = 0;  // first device whose row range is not open yet
  std::size_t app_end = 0;
  bool have_records = false;
  for (std::size_t i = 0; i < n; ++i) {
    const Sample& s = rows[i];
    const std::size_t d = value(s.device);
    if (d >= n_devices || d + 1 < next) {
      error = "sample " + std::to_string(i) + " references device " +
              std::to_string(d) + " out of order or of " +
              std::to_string(n_devices);
      break;
    }
    if (d >= next) {  // the device's first row
      for (; next <= d; ++next) layout.device_offset[next] = i;
      have_records = false;
    }
    if (!have_records && (s.app_count > 0 || layout.device_offset[d] == i)) {
      layout.app_range[2 * d] = app_end = s.app_begin;
    } else if (s.app_count > 0 && s.app_begin != app_end) {
      error = "sample " + std::to_string(i) +
              " app records do not follow the device's previous ones";
      break;
    }
    have_records = have_records || s.app_count > 0;
    app_end += s.app_count;
    layout.app_range[2 * d + 1] = app_end;

    c.bin[i] = s.bin;
    c.cell_rx[i] = s.cell_rx;
    c.cell_tx[i] = s.cell_tx;
    c.wifi_rx[i] = s.wifi_rx;
    c.wifi_tx[i] = s.wifi_tx;
    c.ap[i] = value(s.ap);
    c.wifi_state[i] = s.wifi_state;
    c.tech[i] = s.tech;
    c.battery_pct[i] = s.battery_pct;
    c.rssi_dbm[i] = s.rssi_dbm;
    c.geo_cell[i] = s.geo_cell;
    c.app_count[i] = s.app_count;
    c.flags[i] =
        static_cast<std::uint8_t>(s.tethering ? SampleColumns::kFlagTethering : 0);
    c.scan_pub24_all[i] = s.scan_pub24_all;
    c.scan_pub24_strong[i] = s.scan_pub24_strong;
    c.scan_pub5_all[i] = s.scan_pub5_all;
    c.scan_pub5_strong[i] = s.scan_pub5_strong;
  }
  // A rejected row stream leaves the dataset unindexed.
  std::string built =
      ds.index_samples(error.empty() ? std::move(layout) : core::SampleLayout{});
  return error.empty() ? built : error;
}

std::vector<Sample> gather_rows(const Dataset& ds) {
  std::vector<Sample> out;
  out.reserve(ds.samples.size());
  for_each_row(ds, [&](const Sample& s) { out.push_back(s); });
  return out;
}

}  // namespace tokyonet
