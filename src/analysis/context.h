// Memoized per-campaign analysis context.
//
// The paper answers 19 figures and 9 tables over the same three
// campaigns, and almost every one of them re-derives the same expensive
// intermediates: the user-day volume rollup, the heavy/light user
// classifier, the AP classification and the per-device home-cell
// inference. AnalysisContext computes each of them at most once per
// campaign — lazily, thread-safely via std::call_once — so the CLI, the
// bench suite (bench/common.cc) and any multi-kernel driver pay for a
// shared intermediate exactly once no matter how many kernels consume
// it.
//
// The context runs over a query::DataSource, and both backends take the
// same path: each intermediate is one fold_blocks pass, folding block
// partials in device order (update detection, user-day rollups, home
// cells and home-AP verdicts are per-device products; classification
// tallies merge by addition and set union). Constructed from a Dataset
// it wraps an InMemorySource, whose single block is the whole campaign
// at base 0; constructed from a ShardedSource each pass is one
// bounded-memory sweep over the shards, byte-identical to the
// in-memory result at any shard count. Beyond the intermediates
// themselves, only O(devices + aps) state is retained.
#pragma once

#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "analysis/classify.h"
#include "analysis/common.h"
#include "analysis/query/source.h"
#include "analysis/update.h"
#include "core/records.h"

namespace tokyonet::analysis {

class AnalysisContext {
 public:
  /// The context borrows `ds`; the dataset must outlive it.
  explicit AnalysisContext(const Dataset& ds)
      : owned_(std::make_unique<query::InMemorySource>(ds)),
        src_(owned_.get()) {}

  /// Borrows `src` (must outlive the context). Every intermediate below
  /// costs one fold_blocks pass: updates(), days() and devices() share
  /// one, classification() and home_cells() take one each.
  explicit AnalysisContext(const query::DataSource& src) : src_(&src) {}

  AnalysisContext(const AnalysisContext&) = delete;
  AnalysisContext& operator=(const AnalysisContext&) = delete;

  [[nodiscard]] const query::DataSource& source() const noexcept {
    return *src_;
  }

  /// The resident campaign. Only callable in-memory; out-of-core
  /// figures must consume source() (enforced — throws std::logic_error
  /// rather than silently materializing the campaign).
  [[nodiscard]] const Dataset& dataset() const;

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

  /// AP classification (§3.4.1).
  [[nodiscard]] const ApClassification& classification() const;

  /// Per-device inferred nighttime home cell.
  [[nodiscard]] const std::vector<GeoCell>& home_cells() const;

 private:
  /// One pass computing devices + updates + days together (they share
  /// the scan: the rollup excludes each device's detected update days).
  void ensure_scan() const;

  std::unique_ptr<query::InMemorySource> owned_;  // in-memory ctor only
  const query::DataSource* src_;

  mutable std::once_flag scan_once_, classifier_once_, classification_once_,
      home_cells_once_;
  mutable std::vector<DeviceInfo> devices_;
  mutable std::unique_ptr<UpdateDetection> updates_;
  mutable std::unique_ptr<std::vector<UserDay>> days_;
  mutable std::unique_ptr<UserClassifier> classifier_;
  mutable std::unique_ptr<ApClassification> classification_;
  mutable std::unique_ptr<std::vector<GeoCell>> home_cells_;
};

}  // namespace tokyonet::analysis
