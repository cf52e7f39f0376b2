#include "analysis/context.h"

namespace tokyonet::analysis {

std::span<const DeviceInfo> AnalysisContext::devices() const {
  ensure_sweep();
  return devices_;
}

void AnalysisContext::ensure_sweep() const {
  std::call_once(sweep_once_, [&] {
    UpdateDetectOptions uopt;
    // March 10th is day 9 (0-based) of the 2015 calendar; earlier
    // campaigns have no in-campaign release, so nothing may be detected.
    uopt.min_day =
        src_->year() == Year::Y2015 ? 9 : src_->num_days();

    // Every level-0 intermediate rides one sweep. Each block's
    // detection, rollup, device table, home cells and survey rows are
    // per-device products of that block alone; rebasing local ids by
    // the block's device base and appending in block (= device) order
    // gives the same result at any shard count (one in-memory block is
    // the whole campaign at base 0). The classification's tallies merge
    // by addition and set union (classify_aps).
    //
    // A pass that threw leaves the flag unset; start again from empty.
    devices_.clear();
    devices_.reserve(src_->n_devices());
    updates_ = UpdateDetection{};
    updates_.update_bin.assign(src_->n_devices(), -1);
    days_.clear();

    query::Sweep sweep(*src_);
    struct BlockScan {
      std::vector<DeviceInfo> devices;
      UpdateDetection det;  // block-local device indices
      std::vector<UserDay> days;
    };
    sweep.fold<BlockScan>(
        [uopt](const Dataset& block, std::size_t base) {
          BlockScan p;
          p.devices.reserve(block.devices.size());
          for (const DeviceInfo& d : block.devices) {
            DeviceInfo g = d;
            g.id = DeviceId{static_cast<std::uint32_t>(base + value(d.id))};
            p.devices.push_back(g);
          }
          p.det = detect_updates(block, uopt);
          UserDayOptions dopt;
          dopt.update_bin_by_device = &p.det.update_bin;
          p.days = user_days(block, dopt);
          return p;
        },
        [&](BlockScan&& p, std::size_t base) {
          devices_.insert(devices_.end(), p.devices.begin(), p.devices.end());
          updates_.num_ios += p.det.num_ios;
          updates_.num_updated += p.det.num_updated;
          for (std::size_t d = 0; d < p.det.update_bin.size(); ++d) {
            updates_.update_bin[base + d] = p.det.update_bin[d];
          }
          for (UserDay& d : p.days) {
            d.device =
                DeviceId{static_cast<std::uint32_t>(base + value(d.device))};
          }
          days_.insert(days_.end(), p.days.begin(), p.days.end());
        });
    const ClassifyOptions copt;
    const query::Pending<std::vector<ApClassification>> classification =
        classify_aps(sweep, copt, {&copt.home_presence_threshold, 1});
    // A device's home cell is a pure function of its own night samples.
    const query::Pending<std::vector<GeoCell>> home_cells =
        sweep.concat<GeoCell>([](const Dataset& block, std::size_t) {
          return infer_home_cells(block);
        });
    const query::Pending<std::vector<SurveyResponse>> survey =
        sweep.concat<SurveyResponse>([](const Dataset& block, std::size_t) {
          return block.survey;
        });
    sweep.run();

    classification_ = std::move(classification.get().front());
    home_cells_ = std::move(home_cells.get());
    survey_ = std::move(survey.get());
    // A block without survey rows leaves the table unaligned with the
    // devices; such a campaign has no survey.
    if (survey_.size() != devices_.size()) survey_.clear();
  });
}

const UpdateDetection& AnalysisContext::updates() const {
  ensure_sweep();
  return updates_;
}

const std::vector<UserDay>& AnalysisContext::days() const {
  ensure_sweep();
  return days_;
}

const UserClassifier& AnalysisContext::classifier() const {
  std::call_once(classifier_once_, [&] {
    classifier_ = std::make_unique<UserClassifier>(days());
  });
  return *classifier_;
}

const ApClassification& AnalysisContext::classification() const {
  ensure_sweep();
  return classification_;
}

const std::vector<GeoCell>& AnalysisContext::home_cells() const {
  ensure_sweep();
  return home_cells_;
}

std::span<const SurveyResponse> AnalysisContext::survey() const {
  ensure_sweep();
  return survey_;
}

const AppBreakdown& AnalysisContext::app_breakdown() const {
  std::call_once(app_breakdown_once_, [&] {
    app_breakdown_ = std::make_unique<AppBreakdown>(
        analysis::app_breakdown(*src_, classification(), home_cells()));
  });
  return *app_breakdown_;
}

const WifiRatios& AnalysisContext::wifi_ratios() const {
  std::call_once(wifi_ratios_once_, [&] {
    wifi_ratios_ = std::make_unique<WifiRatios>(
        compute_wifi_ratios(*src_, days(), classifier()));
  });
  return *wifi_ratios_;
}

const WifiLocationHours& AnalysisContext::wifi_location_hours() const {
  std::call_once(wifi_location_hours_once_, [&] {
    wifi_location_hours_ = std::make_unique<WifiLocationHours>(
        analysis::wifi_location_hours(*src_, classification()));
  });
  return *wifi_location_hours_;
}

}  // namespace tokyonet::analysis
