#include "analysis/query/source.h"

#include <condition_variable>
#include <exception>
#include <mutex>
#include <thread>

#include "io/shard_store.h"

namespace tokyonet::analysis::query {

Year ShardedSource::year() const noexcept { return store_->year(); }

const CampaignCalendar& ShardedSource::calendar() const noexcept {
  return store_->calendar();
}

std::size_t ShardedSource::n_devices() const noexcept {
  return static_cast<std::size_t>(store_->manifest().n_devices);
}

std::size_t ShardedSource::n_samples() const noexcept {
  return static_cast<std::size_t>(store_->manifest().n_samples);
}

const std::vector<ApInfo>& ShardedSource::aps() const noexcept {
  return store_->universe_aps();
}

void ShardedSource::fold_blocks(const ScanFn& scan, const FoldFn& fold) const {
  const std::size_t n_shards = store_->num_shards();

  if (resident_shards_ == 0) {
    // Strict sequential scan: one shard resident at a time (the PR 8
    // path and memory bound).
    for (std::size_t i = 0; i < n_shards; ++i) {
      Dataset shard;
      if (io::SnapshotResult r = store_->load_shard(i, shard); !r.ok()) {
        throw SourceError(std::move(r));
      }
      const std::size_t base = store_->device_begin(i);
      fold(scan(shard, base), base);
    }
    return;
  }

  // Pipelined scan: the prefetcher's loader thread stays one load ahead
  // while up to K scanner threads turn delivered shards into partials;
  // this thread folds the partials in shard order. Residency tokens
  // bound live shard payloads to K + 1 (K being scanned + one loading);
  // folded-but-unconsumed partials are whatever the kernel parks —
  // O(shard devices + touched APs) for every kernel in the catalog.
  const std::size_t k = resident_shards_;
  io::ShardPrefetcher prefetcher(*store_, k + 1);

  struct Slots {
    std::mutex mu;
    std::condition_variable cv;
    std::vector<std::optional<std::shared_ptr<void>>> partials;
    std::size_t error_index;  // first failed shard, n_shards if none
    std::exception_ptr error;
  };
  Slots slots;
  slots.partials.resize(n_shards);
  slots.error_index = n_shards;

  // A failed load, or anything a load or a scan throws, is parked at its
  // shard's position and rethrown on this thread: an exception escaping
  // a std::thread would terminate the process.
  auto worker = [&] {
    io::ShardPrefetcher::Loaded item;
    try {
      while (prefetcher.next(item)) {
        if (item.exception) std::rethrow_exception(item.exception);
        if (!item.result.ok()) throw SourceError(std::move(item.result));
        const std::size_t idx = item.index;
        std::shared_ptr<void> p =
            scan(item.dataset, store_->device_begin(idx));
        // Drop the shard payload (and its residency token) before
        // parking the partial for the folder.
        item = io::ShardPrefetcher::Loaded{};
        std::lock_guard<std::mutex> lk(slots.mu);
        slots.partials[idx] = std::move(p);
        slots.cv.notify_all();
      }
    } catch (...) {
      const std::size_t idx = item.index;
      item = io::ShardPrefetcher::Loaded{};
      std::lock_guard<std::mutex> lk(slots.mu);
      if (idx < slots.error_index) {
        slots.error_index = idx;
        slots.error = std::current_exception();
      }
      slots.cv.notify_all();
    }
  };

  std::vector<std::thread> workers;
  const std::size_t n_workers = std::min(k, n_shards);
  workers.reserve(n_workers);
  for (std::size_t w = 0; w < n_workers; ++w) workers.emplace_back(worker);

  std::exception_ptr err;
  try {
    for (std::size_t i = 0; i < n_shards; ++i) {
      std::unique_lock<std::mutex> lk(slots.mu);
      slots.cv.wait(lk, [&] {
        return slots.partials[i].has_value() || slots.error_index <= i;
      });
      if (slots.error_index <= i) {
        // Shards >= error_index were never folded; everything before it
        // has been.
        err = slots.error;
        break;
      }
      std::shared_ptr<void> p = std::move(*slots.partials[i]);
      slots.partials[i].reset();
      lk.unlock();
      fold(std::move(p), store_->device_begin(i));
    }
  } catch (...) {
    err = std::current_exception();
  }
  if (err) prefetcher.cancel();
  for (std::thread& t : workers) t.join();
  if (err) std::rethrow_exception(err);
}

}  // namespace tokyonet::analysis::query
