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
// Each fold_blocks call is one pass: out of core, every shard is loaded
// and validated once per pass. A query::Sweep carries the (scan, fold)
// pairs of several kernels in one pass, so a figure (or the context's
// intermediates) pays one pass however many kernels it runs;
// DataSource::fold/reduce/concat are one-entry sweeps, the single fold
// path every kernel goes through.
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
#include <type_traits>
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

  /// One-entry sweeps (Sweep below), for a kernel that makes its pass
  /// alone.
  ///
  /// Typed fold: scan(block, base) -> P, fold(P&&, base) in block order.
  template <typename P, typename Scan, typename Fold>
  void fold(Scan&& scan, Fold&& fold) const;

  /// Ordered reduction for base-independent monoid partials: the first
  /// block's partial seeds the accumulator (so the single-block
  /// in-memory case is exactly the plain scan), later partials merge in
  /// block order via merge(acc, partial).
  template <typename P, typename Scan, typename Merge>
  [[nodiscard]] P reduce(Scan&& scan, Merge&& merge) const;

  /// Concatenation for per-device products: scan(block, base) returns
  /// one vector in block-local device order; appending in block order
  /// yields the campaign's products in global device order.
  template <typename T, typename Scan>
  [[nodiscard]] std::vector<T> concat(Scan&& scan) const;
};

/// The value a Sweep entry yields: set when its Sweep's run() returns.
template <typename T>
class Pending {
 public:
  /// The result; throws std::logic_error before the sweep has run.
  [[nodiscard]] T& get() const {
    if (!slot_->has_value()) {
      throw std::logic_error("query::Pending read before its Sweep ran");
    }
    return **slot_;
  }

 private:
  friend class Sweep;
  std::shared_ptr<std::optional<T>> slot_ =
      std::make_shared<std::optional<T>>();
};

/// Several typed (scan, fold) pairs carried by one fold_blocks pass.
/// Each registered entry is a kernel's block scan and ordered fold;
/// run() makes one pass, hands every delivered block to every scan (in
/// registration order) and folds each entry's partial in block order,
/// exactly as a pass of its own would. So N kernels over one source
/// cost one load and validation of each shard instead of N, and each
/// result is byte-identical to its separate pass (DESIGN.md §5c).
///
/// Entries own their scan/fold/finish callables (captured state is
/// copied in); anything they capture by reference must outlive run().
/// An exception from any scan or fold reaches the caller of run(), as
/// for one fold_blocks call.
class Sweep {
 public:
  explicit Sweep(const DataSource& src) noexcept : src_(&src) {}

  Sweep(const Sweep&) = delete;
  Sweep& operator=(const Sweep&) = delete;

  [[nodiscard]] const DataSource& source() const noexcept { return *src_; }

  /// scan(block, base) -> P; fold(P&&, base) in block order.
  template <typename P, typename Scan, typename Fold>
  void fold(Scan scan, Fold fold) {
    entries_.push_back(
        {[scan = std::move(scan)](const Dataset& block,
                                  std::size_t base) -> std::shared_ptr<void> {
           return std::make_shared<P>(scan(block, base));
         },
         [fold = std::move(fold)](std::shared_ptr<void> p,
                                  std::size_t base) mutable {
           fold(std::move(*std::static_pointer_cast<P>(p)), base);
         }});
  }

  /// As fold(), then finish() once the pass has ended; the Pending
  /// holds what finish() returns.
  template <typename P, typename Scan, typename Fold, typename Finish>
  auto fold(Scan scan, Fold fold, Finish finish)
      -> Pending<std::remove_cvref_t<std::invoke_result_t<Finish&>>> {
    using R = std::remove_cvref_t<std::invoke_result_t<Finish&>>;
    this->fold<P>(std::move(scan), std::move(fold));
    Pending<R> out;
    finish_.push_back([slot = out.slot_, finish = std::move(finish)]() mutable {
      slot->emplace(finish());
    });
    return out;
  }

  /// DataSource::reduce as an entry, its result passed through
  /// finish(P&&) (the identity by default).
  template <typename P, typename Scan, typename Merge,
            typename Finish = std::identity>
  auto reduce(Scan scan, Merge merge, Finish finish = {}) {
    auto acc = std::make_shared<std::optional<P>>();
    return fold<P>(
        std::move(scan),
        [acc, merge = std::move(merge)](P&& p, std::size_t) mutable {
          if (!*acc) {
            acc->emplace(std::move(p));
          } else {
            merge(**acc, std::move(p));
          }
        },
        [acc, finish = std::move(finish)]() mutable
            -> std::remove_cvref_t<std::invoke_result_t<Finish&, P&&>> {
          return finish(*acc ? std::move(**acc) : P{});
        });
  }

  /// DataSource::concat as an entry.
  template <typename T, typename Scan>
  Pending<std::vector<T>> concat(Scan scan) {
    return reduce<std::vector<T>>(
        std::move(scan), [](std::vector<T>& acc, std::vector<T>&& p) {
          acc.insert(acc.end(), p.begin(), p.end());
        });
  }

  /// Makes the one pass, then runs the finish steps in registration
  /// order. Call once; a sweep with no entries makes no pass.
  void run();

 private:
  struct Entry {
    DataSource::ScanFn scan;
    DataSource::FoldFn fold;
  };
  const DataSource* src_;
  std::vector<Entry> entries_;
  std::vector<std::function<void()>> finish_;
};

/// Runs a kernel's Sweep form as a pass of its own: add(sweep) registers
/// the kernel and returns its Pending; run_alone returns the result.
template <typename Add>
auto run_alone(const DataSource& src, Add&& add) {
  Sweep sweep(src);
  auto out = add(sweep);
  sweep.run();
  return std::move(out.get());
}

template <typename P, typename Scan, typename Fold>
void DataSource::fold(Scan&& scan, Fold&& fold) const {
  Sweep sweep(*this);
  sweep.fold<P>(std::ref(scan), std::ref(fold));
  sweep.run();
}

template <typename P, typename Scan, typename Merge>
P DataSource::reduce(Scan&& scan, Merge&& merge) const {
  return run_alone(*this, [&](Sweep& sweep) {
    return sweep.reduce<P>(std::ref(scan), std::ref(merge));
  });
}

template <typename T, typename Scan>
std::vector<T> DataSource::concat(Scan&& scan) const {
  return run_alone(*this,
                   [&](Sweep& sweep) { return sweep.concat<T>(std::ref(scan)); });
}

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
