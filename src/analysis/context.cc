#include "analysis/context.h"

namespace tokyonet::analysis {

std::span<const DeviceInfo> AnalysisContext::devices() const {
  ensure_scan();
  return devices_;
}

void AnalysisContext::ensure_scan() const {
  std::call_once(scan_once_, [&] {
    UpdateDetectOptions uopt;
    // March 10th is day 9 (0-based) of the 2015 calendar; earlier
    // campaigns have no in-campaign release, so nothing may be detected.
    uopt.min_day =
        src_->year() == Year::Y2015 ? 9 : src_->num_days();

    // One pass. Each block's detection, rollup and device table are
    // per-device products of that block alone; rebasing local ids by
    // the block's device base and appending in block (= device) order
    // gives the same result at any shard count (one in-memory block is
    // the whole campaign at base 0).
    updates_ = std::make_unique<UpdateDetection>();
    updates_->update_bin.assign(src_->n_devices(), -1);
    days_ = std::make_unique<std::vector<UserDay>>();
    devices_.clear();
    devices_.reserve(src_->n_devices());

    struct BlockScan {
      std::vector<DeviceInfo> devices;
      UpdateDetection det;  // block-local device indices
      std::vector<UserDay> days;
    };
    src_->fold<BlockScan>(
        [&](const Dataset& block, std::size_t base) {
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
          updates_->num_ios += p.det.num_ios;
          updates_->num_updated += p.det.num_updated;
          for (std::size_t d = 0; d < p.det.update_bin.size(); ++d) {
            updates_->update_bin[base + d] = p.det.update_bin[d];
          }
          for (UserDay& d : p.days) {
            d.device =
                DeviceId{static_cast<std::uint32_t>(base + value(d.device))};
          }
          days_->insert(days_->end(), p.days.begin(), p.days.end());
        });
  });
}

const UpdateDetection& AnalysisContext::updates() const {
  ensure_scan();
  return *updates_;
}

const std::vector<UserDay>& AnalysisContext::days() const {
  ensure_scan();
  return *days_;
}

const UserClassifier& AnalysisContext::classifier() const {
  std::call_once(classifier_once_, [&] {
    classifier_ = std::make_unique<UserClassifier>(days());
  });
  return *classifier_;
}

const ApClassification& AnalysisContext::classification() const {
  std::call_once(classification_once_, [&] {
    classification_ =
        std::make_unique<ApClassification>(classify_aps(*src_));
  });
  return *classification_;
}

const std::vector<GeoCell>& AnalysisContext::home_cells() const {
  std::call_once(home_cells_once_, [&] {
    // A device's home cell is a pure function of its own night samples.
    home_cells_ = std::make_unique<std::vector<GeoCell>>(
        src_->concat<GeoCell>([](const Dataset& block, std::size_t) {
          return infer_home_cells(block);
        }));
  });
  return *home_cells_;
}

}  // namespace tokyonet::analysis
