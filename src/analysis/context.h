// Memoized per-campaign analysis context.
//
// The paper answers 19 figures and 9 tables over the same three
// campaigns, and almost every one of them re-derives the same expensive
// intermediates: the user-day volume rollup, the heavy/light user
// classifier, the AP classification and the per-device home-cell
// inference. AnalysisContext computes each of them at most once per
// campaign — lazily, thread-safely via std::call_once — so the CLI, the
// benchmark driver and any multi-kernel driver pay for a shared
// intermediate exactly once no matter how many kernels consume it.
//
// The context runs over a query::DataSource, and both backends take the
// same path: the first request for any intermediate makes one sweep
// (query::Sweep) that computes all of them at once — devices, update
// detection, the user-day rollup, the AP classification, the home
// cells and the survey table — folding block partials in device order
// (update detection, user-day rollups, home cells, survey rows and
// home-AP verdicts are per-device products; classification tallies
// merge by addition and set union). The classifier derives from days()
// and makes no pass; app_breakdown(), wifi_ratios() and
// wifi_location_hours() make one more each. Constructed from a Dataset it wraps an InMemorySource, whose
// single block is the whole campaign at base 0; constructed from a
// ShardedSource the sweep is one bounded-memory pass over the shards,
// byte-identical to the in-memory result at any shard count. Beyond the
// intermediates themselves, only O(devices + aps) state is retained.
// The context exposes no resident Dataset: figures read source() and
// these intermediates, so every figure renders the same bytes on both
// backends.
#pragma once

#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "analysis/aggregate.h"
#include "analysis/apps.h"
#include "analysis/classify.h"
#include "analysis/common.h"
#include "analysis/query/source.h"
#include "analysis/ratios.h"
#include "analysis/update.h"
#include "core/records.h"

namespace tokyonet::analysis {

class AnalysisContext {
 public:
  /// The context borrows `ds`; the dataset must outlive it.
  explicit AnalysisContext(const Dataset& ds)
      : owned_(std::make_unique<query::InMemorySource>(ds)),
        src_(owned_.get()) {}

  /// Borrows `src` (must outlive the context). devices(), updates(),
  /// days(), classification(), home_cells() and survey() share one
  /// pass, made on the first request for any of them; classifier()
  /// makes none, and app_breakdown(), wifi_ratios() and
  /// wifi_location_hours() one each.
  explicit AnalysisContext(const query::DataSource& src) : src_(&src) {}

  AnalysisContext(const AnalysisContext&) = delete;
  AnalysisContext& operator=(const AnalysisContext&) = delete;

  [[nodiscard]] const query::DataSource& source() const noexcept {
    return *src_;
  }

  /// The global device table (ids are global indices in both backends).
  [[nodiscard]] std::span<const DeviceInfo> devices() const;

  /// iOS software-update detection (§3.7), global device indices. Uses
  /// the campaign's public release knowledge: day 9 for the 2015
  /// campaign (March 10th), no in-campaign release for earlier years.
  [[nodiscard]] const UpdateDetection& updates() const;

  /// The paper's main user-day rollup (§2 cleaning applied): tethering
  /// samples stripped, detected update days excluded. Ordered by
  /// (device, day) with global device ids.
  [[nodiscard]] const std::vector<UserDay>& days() const;

  /// Heavy/light user-day classifier over days().
  [[nodiscard]] const UserClassifier& classifier() const;

  /// AP classification (§3.4.1): classify_aps(source()).
  [[nodiscard]] const ApClassification& classification() const;

  /// Per-device inferred nighttime home cell.
  [[nodiscard]] const std::vector<GeoCell>& home_cells() const;

  /// The survey rows, parallel to devices() (Tables 2, 8 and 9); empty
  /// when the campaign carries none.
  [[nodiscard]] std::span<const SurveyResponse> survey() const;

  /// Tables 6 and 7: app_breakdown() over classification() and
  /// home_cells().
  [[nodiscard]] const AppBreakdown& app_breakdown() const;

  /// Figs 6-8: compute_wifi_ratios() over days() and classifier().
  [[nodiscard]] const WifiRatios& wifi_ratios() const;

  /// Fig 11 and §4.1: wifi_location_hours() over classification().
  [[nodiscard]] const WifiLocationHours& wifi_location_hours() const;

 private:
  /// The one sweep behind every intermediate but the classifier and the
  /// app breakdown.
  void ensure_sweep() const;

  std::unique_ptr<query::InMemorySource> owned_;  // in-memory ctor only
  const query::DataSource* src_;

  mutable std::once_flag sweep_once_, classifier_once_, app_breakdown_once_,
      wifi_ratios_once_, wifi_location_hours_once_;
  mutable std::vector<DeviceInfo> devices_;
  mutable UpdateDetection updates_;
  mutable std::vector<UserDay> days_;
  mutable ApClassification classification_;
  mutable std::vector<GeoCell> home_cells_;
  mutable std::vector<SurveyResponse> survey_;
  mutable std::unique_ptr<UserClassifier> classifier_;
  mutable std::unique_ptr<AppBreakdown> app_breakdown_;
  mutable std::unique_ptr<WifiRatios> wifi_ratios_;
  mutable std::unique_ptr<WifiLocationHours> wifi_location_hours_;
};

}  // namespace tokyonet::analysis
