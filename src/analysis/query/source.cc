#include "analysis/query/source.h"

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

void Sweep::run() {
  if (!entries_.empty()) {
    // One partial per entry per block, folded entry by entry in block
    // order; each is released as soon as its fold has consumed it.
    using Partials = std::vector<std::shared_ptr<void>>;
    src_->fold_blocks(
        [&](const Dataset& block, std::size_t base) -> std::shared_ptr<void> {
          auto parts = std::make_shared<Partials>();
          parts->reserve(entries_.size());
          for (const Entry& e : entries_) parts->push_back(e.scan(block, base));
          return parts;
        },
        [&](std::shared_ptr<void> p, std::size_t base) {
          Partials& parts = *std::static_pointer_cast<Partials>(p);
          for (std::size_t i = 0; i < entries_.size(); ++i) {
            entries_[i].fold(std::move(parts[i]), base);
          }
        });
  }
  for (std::function<void()>& finish : finish_) finish();
}

void ShardedSource::fold_blocks(const ScanFn& scan, const FoldFn& fold) const {
  // One shard resident at a time (DESIGN.md §5j): shard i is loaded,
  // scanned and dropped, and its partial folded, before shard i+1 is
  // loaded. A failed load, or anything a load, a scan or a fold throws,
  // leaves this loop on the caller's thread with every earlier shard
  // folded and no later one touched.
  for (std::size_t i = 0; i < store_->num_shards(); ++i) {
    const std::size_t base = store_->device_begin(i);
    std::shared_ptr<void> partial;
    {
      Dataset shard;
      if (io::SnapshotResult r = store_->load_shard(i, shard); !r.ok()) {
        throw SourceError(std::move(r));
      }
      partial = scan(shard, base);
    }
    fold(std::move(partial), base);
  }
}

}  // namespace tokyonet::analysis::query
