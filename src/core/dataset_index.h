// Shared dataset index: what the sample columns leave out.
//
// Dataset::samples (core/records.h) stores one column per field and no
// per-row device or app-traffic offset. A DatasetIndex holds
//
//  1. the ranges — per-device sample ranges, per-(device, day) sample
//     ranges and per-device app-traffic ranges — so kernels can
//     parallel_map over devices and reduce the per-device partials in a
//     fixed (device) order, which keeps results byte-identical at any
//     thread count (DESIGN.md §5c/§5f); in a dense campaign (one row per
//     device and bin) every sample range is arithmetic;
//  2. a per-bin hour-of-week lookup table (Saturday-based, matching
//     analysis::WeeklyProfile).
//
// An index exists only for columns that passed validation against it,
// or that the simulator's DenseBuilder wrote itself.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/clock.h"
#include "core/records.h"

namespace tokyonet::core {

/// Which rows and which app-traffic records belong to which device: the
/// part of the index that is data rather than derived. Snapshots store
/// it; CSV import and the ingest server derive it from their rows.
struct SampleLayout {
  /// Device d owns rows [device_offset[d], device_offset[d + 1]).
  std::vector<std::size_t> device_offset;
  /// Device d's per-application records are rows
  /// [app_range[2d], app_range[2d + 1]) of Dataset::app_traffic, in
  /// row order.
  std::vector<std::size_t> app_range;

  /// One row per (device, bin), no app records.
  [[nodiscard]] static SampleLayout dense(std::size_t n_devices,
                                          std::size_t n_bins);
};

/// The universe one device's rows are checked against.
struct RowLimits {
  std::size_t num_bins = 0;  // every bin lies in [0, num_bins)
  std::size_t num_aps = 0;   // every AP is kNoAp or lies in [0, num_aps)
};

/// One device's rows [row_begin, row_end) and app records
/// [app_begin, app_end), as indices into the arrays they are checked in.
struct DeviceRun {
  std::size_t device = 0;
  std::size_t row_begin = 0, row_end = 0;
  std::size_t app_begin = 0, app_end = 0;
};

struct RunCheck {
  /// The first broken rule, empty when the run is valid.
  std::string error;
  /// Two consecutive rows share a bin (valid, but not dense).
  bool repeated_bins = false;
};

/// The one definition of a valid run of one device's rows, shared by
/// DatasetIndex::build (per device), and by the ingest server (per
/// Records frame, against the limits its Begin frame announced): every
/// bin inside the calendar, bins never descending, every AP known, no
/// unknown WiFi state, cell technology or flag bit, an app range inside
/// `app_category` (the app records' category column) that holds exactly
/// the rows' app counts, and no unknown app category. Every rule is a
/// contiguous column reduction, read once and vectorized; only a
/// failing run is walked row by row, so the error names its first bad
/// row (or app record) by its index in `cols` (or `app_category`).
[[nodiscard]] RunCheck check_device_run(
    const SampleColumns& cols, std::span<const AppCategory> app_category,
    const DeviceRun& run, const RowLimits& limits);

class DatasetIndex {
 public:
  /// Validates `ds.samples` against `layout` and builds the index.
  /// Returns nullptr, with the first problem in `*error`, when the
  /// columns break the Dataset contract: a layout that does not tile the
  /// rows, column lengths that differ, or a device whose run fails
  /// check_device_run against the calendar and `ds.aps`. Devices are
  /// checked in parallel; the lowest failing device is reported, so the
  /// error is deterministic.
  [[nodiscard]] static std::shared_ptr<const DatasetIndex> build(
      const Dataset& ds, SampleLayout layout, std::string* error);

  /// The index of a campaign without devices or samples (shared).
  [[nodiscard]] static std::shared_ptr<const DatasetIndex> empty();

  /// Storage and index for a producer whose campaign is dense by
  /// construction — exactly one row per (device, bin) — and which
  /// writes every row itself (the simulator). The constructor sizes the
  /// dataset's sample columns for devices x bins rows without
  /// zero-filling; the producer fills row device * num_bins + bin of
  /// every column (disjoint rows may be written concurrently), records
  /// each device's app-traffic range, and finish() installs the index
  /// without a validation pass.
  class DenseBuilder {
   public:
    explicit DenseBuilder(Dataset& ds);

    /// Records device `d`'s slice of Dataset::app_traffic.
    void set_app_range(std::size_t d, std::size_t begin,
                       std::size_t end) noexcept {
      layout_.app_range[2 * d] = begin;
      layout_.app_range[2 * d + 1] = end;
    }

    /// Installs the index into the dataset.
    void finish();

   private:
    Dataset* ds_;
    SampleLayout layout_;
  };

  [[nodiscard]] std::size_t num_samples() const noexcept {
    return layout_.device_offset.back();
  }
  [[nodiscard]] std::size_t num_devices() const noexcept {
    return layout_.device_offset.size() - 1;
  }

  /// True when every device has exactly one sample per campaign bin
  /// (bin j at device_begin(d) + j). The simulator always emits dense
  /// campaigns; kernels use this to replace per-sample bin arithmetic
  /// with fixed-stride runs (kBinsPerHour consecutive samples per hour).
  [[nodiscard]] bool dense() const noexcept { return dense_; }

  [[nodiscard]] const SampleLayout& layout() const noexcept { return layout_; }

  // --- Contiguous ranges -------------------------------------------------

  /// Samples of device `d` occupy [device_begin(d), device_end(d)).
  [[nodiscard]] std::size_t device_begin(std::size_t d) const noexcept {
    return layout_.device_offset[d];
  }
  [[nodiscard]] std::size_t device_end(std::size_t d) const noexcept {
    return layout_.device_offset[d + 1];
  }

  /// Samples of device `d` on campaign day `day` occupy
  /// [day_begin(d, day), day_begin(d, day + 1)); day_begin(d, num_days)
  /// equals device_end(d).
  [[nodiscard]] std::size_t day_begin(std::size_t d, int day) const noexcept {
    return day_offset_[d * (static_cast<std::size_t>(num_days_) + 1) +
                       static_cast<std::size_t>(day)];
  }

  /// Device `d`'s per-application records occupy
  /// [device_app_begin(d), device_app_end(d)) of Dataset::app_traffic,
  /// consumed in row order: row i's app_count records follow those of
  /// the device's earlier rows.
  [[nodiscard]] std::size_t device_app_begin(std::size_t d) const noexcept {
    return layout_.app_range[2 * d];
  }
  [[nodiscard]] std::size_t device_app_end(std::size_t d) const noexcept {
    return layout_.app_range[2 * d + 1];
  }

  // --- Calendar lookup tables --------------------------------------------

  /// WeeklyProfile::hour_of_week(cal, bin), precomputed per campaign bin.
  [[nodiscard]] std::span<const std::uint16_t> hour_of_week_table()
      const noexcept {
    return {hour_of_week_.data(), hour_of_week_.size()};
  }

 private:
  DatasetIndex() = default;
  void build_calendar(const CampaignCalendar& cal);

  int num_days_ = 0;
  bool dense_ = false;
  SampleLayout layout_;
  std::vector<std::size_t> day_offset_;      // devices * (num_days + 1)
  std::vector<std::uint16_t> hour_of_week_;  // size num_bins
};

}  // namespace tokyonet::core
