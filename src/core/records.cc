#include "core/records.h"

#include <cassert>
#include <string>

#include "core/dataset_index.h"

namespace tokyonet {

namespace {

/// The AP universe's part of validation: every band known, and the
/// ground truth covering every AP. O(aps).
[[nodiscard]] std::string universe_error(const Dataset& ds) {
  const std::size_t n_aps = ds.aps.size();
  for (std::size_t i = 0; i < n_aps; ++i) {
    if (ds.aps[i].band > Band::B5GHz) {
      return "AP " + std::to_string(i) + " has an unknown band";
    }
  }
  if (!ds.truth.aps.empty() && ds.truth.aps.size() != n_aps) {
    return "ground truth covers " + std::to_string(ds.truth.aps.size()) +
           " of " + std::to_string(n_aps) + " APs";
  }
  return {};
}

/// The rest of the non-sample half of validation: device ids and the
/// survey and per-device ground-truth shapes, O(devices).
[[nodiscard]] std::string frame_error(const Dataset& ds) {
  const std::size_t n_devices = ds.devices.size();
  const auto n_days = static_cast<std::size_t>(ds.calendar.num_days());

  // Enum-valued fields index per-category arrays in the kernels, so a
  // value outside its enum is as fatal as a dangling reference.
  for (std::size_t i = 0; i < n_devices; ++i) {
    const DeviceInfo& d = ds.devices[i];
    if (value(d.id) != i) {
      return "device " + std::to_string(i) + " has id " +
             std::to_string(value(d.id)) + " (ids must equal their index)";
    }
    if (d.os > Os::Ios || static_cast<int>(d.carrier) >= kNumCarriers) {
      return "device " + std::to_string(i) + " has an unknown OS or carrier";
    }
  }
  for (std::size_t i = 0; i < ds.survey.size(); ++i) {
    const SurveyResponse& r = ds.survey[i];
    bool known = static_cast<int>(r.occupation) < kNumOccupations;
    for (const SurveyYesNo c : r.connected) {
      known = known && c <= SurveyYesNo::NotAnswered;
    }
    if (!known) {
      return "survey row " + std::to_string(i) + " has an unknown answer";
    }
  }
  if (!ds.survey.empty() && ds.survey.size() != n_devices) {
    return "survey has " + std::to_string(ds.survey.size()) +
           " rows for " + std::to_string(n_devices) + " devices";
  }
  if (!ds.truth.devices.empty() && ds.truth.devices.size() != n_devices) {
    return "ground truth covers " + std::to_string(ds.truth.devices.size()) +
           " of " + std::to_string(n_devices) + " devices";
  }
  for (std::size_t i = 0; i < ds.truth.devices.size(); ++i) {
    const std::size_t cd = ds.truth.devices[i].capped_day.size();
    if (cd != 0 && cd != n_days) {
      return "device " + std::to_string(i) + " capped_day has " +
             std::to_string(cd) + " entries for a " +
             std::to_string(n_days) + "-day campaign";
    }
  }
  return {};
}

/// The layout build_index() and validate() check the columns against:
/// the installed one, or — for a dataset never indexed — the empty one
/// when it has no samples (rows without a layout get none, which fails).
[[nodiscard]] core::SampleLayout current_layout(const Dataset& ds) {
  if (ds.indexed()) return ds.index().layout();
  if (!ds.samples.empty()) return {};
  return core::SampleLayout::dense(ds.devices.size(), 0);
}

}  // namespace

Dataset::Dataset() : index_(core::DatasetIndex::empty()) {}

std::string Dataset::index_samples(core::SampleLayout layout,
                                   UniverseCheck universe) {
  std::string error =
      universe == UniverseCheck::Full ? universe_error(*this) : std::string();
  if (error.empty()) error = frame_error(*this);
  index_ = error.empty()
               ? core::DatasetIndex::build(*this, std::move(layout), &error)
               : nullptr;
  return error;
}

bool Dataset::build_index() {
  return index_samples(current_layout(*this)).empty();
}

bool Dataset::indexed() const noexcept {
  return index_ != nullptr && index_->num_samples() == samples.size() &&
         index_->num_devices() == devices.size();
}

const core::DatasetIndex& Dataset::index() const noexcept {
  assert(indexed());
  return *index_;
}

std::string Dataset::validate() const {
  if (std::string err = universe_error(*this); !err.empty()) return err;
  if (std::string err = frame_error(*this); !err.empty()) return err;
  std::string error;
  (void)core::DatasetIndex::build(*this, current_layout(*this), &error);
  return error;
}

}  // namespace tokyonet
