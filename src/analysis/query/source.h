// DataSource: one campaign, two execution backends.
//
// Analysis kernels that want to run both in memory and out of core are
// written as a block scan plus an ordered fold: scan(block, base) turns
// one contiguous device range (a Dataset with block-local device ids
// whose global indices start at `base`) into a partial, and the fold
// merges partials in device order. A DataSource hides which backend
// delivers the blocks:
//
//  - InMemorySource serves the whole resident campaign as a single
//    block at base 0: a kernel's in-memory result is its block scan
//    over the full Dataset (chunked-parallel inside, query/scan.h),
//    which reduce() and concat() pass through without a merge. Kernels
//    have no separate in-memory path.
//  - ShardedSource walks an io::ShardedDataset shard by shard. With
//    resident_shards == 0 it loads strictly sequentially (one shard
//    resident, the PR 8 memory bound); with K >= 1 an io::ShardPrefetcher
//    keeps one load in flight while up to K scanner threads produce
//    partials, bounding live shard payloads to K + 1 (DESIGN.md §5j).
//    Partials are always folded in strict shard order on the calling
//    thread.
//
// Determinism contract (DESIGN.md §5c, the one rule): every merge a
// kernel parks here is exact integer arithmetic (u64 sums, including
// analysis::WeeklyProfile), a max or a set union, or a concatenation of
// per-device products in device order. Each is grouping-independent,
// so the shard-order fold reproduces the in-memory scan byte-identically
// at any (threads, shards, resident_shards) — the same argument that
// covers the chunk geometry in query/scan.h. Every figure reads its
// campaign through a DataSource, so every per-year figure runs on both
// backends.
//
// Errors: a shard that fails to load surfaces as SourceError; any
// exception a scan (or a load) throws on a pipeline thread is carried
// to the thread calling fold_blocks and rethrown there once the
// pipeline has stopped.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/records.h"
#include "io/snapshot.h"

namespace tokyonet::io {
class ShardedDataset;
}

namespace tokyonet::analysis::query {

/// Thrown by the out-of-core backend when a shard fails to load
/// (missing file, checksum mismatch, ...). Carries the io layer's
/// result so callers can map it onto the CLI exit-code contract.
class SourceError : public std::runtime_error {
 public:
  explicit SourceError(io::SnapshotResult r)
      : std::runtime_error(r.error), result_(std::move(r)) {}
  [[nodiscard]] const io::SnapshotResult& result() const noexcept {
    return result_;
  }

 private:
  io::SnapshotResult result_;
};

class DataSource {
 public:
  virtual ~DataSource() = default;

  // Campaign frame, resident in both backends.
  [[nodiscard]] virtual Year year() const noexcept = 0;
  [[nodiscard]] virtual const CampaignCalendar& calendar() const noexcept = 0;
  [[nodiscard]] virtual std::size_t n_devices() const noexcept = 0;
  [[nodiscard]] virtual std::size_t n_samples() const noexcept = 0;
  /// The global AP universe (shards reference APs by global id).
  [[nodiscard]] virtual const std::vector<ApInfo>& aps() const noexcept = 0;
  [[nodiscard]] int num_days() const noexcept {
    return calendar().num_days();
  }

  /// The whole campaign when it is resident (in-memory backend);
  /// nullptr out of core. No kernel or figure reads it — they go through
  /// fold_blocks on both backends; it stays for the benchmark driver's
  /// forwarding source (perfbench/driver.cc).
  [[nodiscard]] virtual const Dataset* dataset_or_null() const noexcept = 0;

  /// Type-erased block fold. `scan` may run concurrently for several
  /// blocks and must be a pure function of (block, base); `fold` runs
  /// on the calling thread, in device (= shard) order. Throws
  /// SourceError when the backend fails to deliver a block, and
  /// rethrows whatever `scan` threw, on the calling thread.
  using ScanFn =
      std::function<std::shared_ptr<void>(const Dataset& block,
                                          std::size_t device_base)>;
  using FoldFn = std::function<void(std::shared_ptr<void> partial,
                                    std::size_t device_base)>;
  virtual void fold_blocks(const ScanFn& scan, const FoldFn& fold) const = 0;

  /// Typed fold: scan(block, base) -> P, fold(P&&, base) in block order.
  template <typename P, typename Scan, typename Fold>
  void fold(Scan&& scan, Fold&& fold) const {
    fold_blocks(
        [&](const Dataset& block, std::size_t base) -> std::shared_ptr<void> {
          return std::make_shared<P>(scan(block, base));
        },
        [&](std::shared_ptr<void> p, std::size_t base) {
          fold(std::move(*std::static_pointer_cast<P>(p)), base);
        });
  }

  /// Ordered reduction for base-independent monoid partials: the first
  /// block's partial seeds the accumulator (so the single-block
  /// in-memory case is exactly the plain scan), later partials merge in
  /// block order via merge(acc, partial).
  template <typename P, typename Scan, typename Merge>
  [[nodiscard]] P reduce(Scan&& scan, Merge&& merge) const {
    std::optional<P> acc;
    fold<P>(std::forward<Scan>(scan), [&](P&& p, std::size_t) {
      if (!acc) {
        acc.emplace(std::move(p));
      } else {
        merge(*acc, std::move(p));
      }
    });
    return acc ? std::move(*acc) : P{};
  }

  /// Concatenation for per-device products: scan(block, base) returns
  /// one vector in block-local device order; appending in block order
  /// yields the campaign's products in global device order.
  template <typename T, typename Scan>
  [[nodiscard]] std::vector<T> concat(Scan&& scan) const {
    std::vector<T> out;
    fold<std::vector<T>>(std::forward<Scan>(scan),
                         [&](std::vector<T>&& p, std::size_t) {
                           if (out.empty()) {
                             out = std::move(p);
                           } else {
                             out.insert(out.end(), p.begin(), p.end());
                           }
                         });
    return out;
  }
};

/// The resident campaign as a single block at device base 0. Wrap a
/// Dataset in one to call any analysis kernel on it.
class InMemorySource final : public DataSource {
 public:
  explicit InMemorySource(const Dataset& ds) noexcept : ds_(&ds) {}

  [[nodiscard]] Year year() const noexcept override { return ds_->year; }
  [[nodiscard]] const CampaignCalendar& calendar() const noexcept override {
    return ds_->calendar;
  }
  [[nodiscard]] std::size_t n_devices() const noexcept override {
    return ds_->devices.size();
  }
  [[nodiscard]] std::size_t n_samples() const noexcept override {
    return ds_->samples.size();
  }
  [[nodiscard]] const std::vector<ApInfo>& aps() const noexcept override {
    return ds_->aps;
  }
  [[nodiscard]] const Dataset* dataset_or_null() const noexcept override {
    return ds_;
  }
  void fold_blocks(const ScanFn& scan, const FoldFn& fold) const override {
    fold(scan(*ds_, 0), 0);
  }

 private:
  const Dataset* ds_;
};

/// Shard-by-shard delivery from an open io::ShardedDataset. The store
/// must outlive the source; fold_blocks may be called any number of
/// times (each call is one full pass over the store).
class ShardedSource final : public DataSource {
 public:
  /// `resident_shards` is the K of DESIGN.md §5j: 0 = strict sequential
  /// one-shard-resident scan, K >= 1 = prefetch + K scanner threads.
  explicit ShardedSource(io::ShardedDataset& store,
                         std::size_t resident_shards = 1) noexcept
      : store_(&store), resident_shards_(resident_shards) {}

  [[nodiscard]] Year year() const noexcept override;
  [[nodiscard]] const CampaignCalendar& calendar() const noexcept override;
  [[nodiscard]] std::size_t n_devices() const noexcept override;
  [[nodiscard]] std::size_t n_samples() const noexcept override;
  [[nodiscard]] const std::vector<ApInfo>& aps() const noexcept override;
  [[nodiscard]] const Dataset* dataset_or_null() const noexcept override {
    return nullptr;
  }
  void fold_blocks(const ScanFn& scan, const FoldFn& fold) const override;

  [[nodiscard]] io::ShardedDataset& store() const noexcept { return *store_; }

 private:
  io::ShardedDataset* store_;
  std::size_t resident_shards_;
};

}  // namespace tokyonet::analysis::query
