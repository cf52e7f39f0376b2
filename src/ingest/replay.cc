#include "ingest/replay.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "core/dataset_index.h"

namespace tokyonet::ingest {
namespace {

/// Pace the stream so that after `records_sent` records, roughly
/// records_sent / rate seconds have elapsed since `start`.
void pace(std::chrono::steady_clock::time_point start, double rate,
          std::uint64_t records_sent) {
  if (rate <= 0.0) return;
  const auto due =
      start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                  std::chrono::duration<double>(
                      static_cast<double>(records_sent) / rate));
  std::this_thread::sleep_until(due);
}

}  // namespace

BeginPayload begin_payload_for(const Dataset& ds,
                               std::uint32_t device_multiplier) {
  if (device_multiplier < 1) device_multiplier = 1;
  BeginPayload p;
  p.year = static_cast<std::uint32_t>(year_number(ds.year));
  const Date start = ds.calendar.start_date();
  p.start_year = start.year;
  p.start_month = static_cast<std::uint32_t>(start.month);
  p.start_day = static_cast<std::uint32_t>(start.day);
  p.num_days = static_cast<std::uint32_t>(ds.calendar.num_days());
  p.n_devices =
      static_cast<std::uint32_t>(ds.devices.size()) * device_multiplier;
  p.n_aps = static_cast<std::uint32_t>(ds.aps.size());
  return p;
}

bool replay_dataset(const Dataset& ds, const ReplayOptions& opts,
                    FrameSink& sink, ReplayStats* stats) {
  const std::size_t batch_records =
      opts.batch_records < 1 ? 1 : opts.batch_records;
  const std::uint32_t multiplier =
      opts.device_multiplier < 1 ? 1 : opts.device_multiplier;
  const auto n_devices = static_cast<std::uint32_t>(ds.devices.size());

  ReplayStats local;
  ReplayStats& st = stats != nullptr ? *stats : local;
  st = ReplayStats{};
  const auto t0 = std::chrono::steady_clock::now();
  const auto finish = [&](bool ok) {
    st.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    return ok;
  };

  std::vector<std::uint8_t> buf;
  const auto flush = [&]() {
    st.bytes += buf.size();
    const bool ok = sink.write(buf);
    buf.clear();
    return ok;
  };

  encode_begin(begin_payload_for(ds, multiplier), buf);
  if (!flush()) return finish(false);

  // Each frame is a slice of one device's rows, copied column by
  // column, with the app records of exactly those rows.
  const core::DatasetIndex& idx = ds.index();
  const std::span<const std::uint8_t> app_count = ds.samples.app_count;
  for (std::uint32_t d = 0; d < n_devices; ++d) {
    const std::size_t run_begin = idx.device_begin(d);
    const std::size_t run_end = idx.device_end(d);
    for (std::uint32_t clone = 0; clone < multiplier; ++clone) {
      const DeviceId out_device{d + clone * n_devices};
      std::size_t app = idx.device_app_begin(d);
      for (std::size_t at = run_begin; at < run_end; at += batch_records) {
        const std::size_t stop = std::min(at + batch_records, run_end);
        std::size_t apps = 0;
        for (std::size_t i = at; i < stop; ++i) apps += app_count[i];
        encode_records(out_device, ds.samples, at, stop, ds.app_traffic, app,
                       app + apps, buf);
        app += apps;
        st.frames += 1;
        st.records += stop - at;
        st.app_records += apps;
        if (!flush()) return finish(false);
        pace(t0, opts.rate_records_per_sec, st.records);
      }
    }
  }

  encode_end(buf);
  if (!flush()) return finish(false);
  return finish(true);
}

}  // namespace tokyonet::ingest
