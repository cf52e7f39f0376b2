// Out-of-core §3 battery over a sharded campaign store.
//
// run_sharded_battery() renders the headline figures through the same
// Runner + FigureRegistry path as the in-memory CLI, with the campaign
// installed as a query::ShardedSource instead of a materialized
// Dataset — so each emitted Table's canonical JSON is byte-identical to
// the in-memory run, and the battery is just six registry entries (no
// figure-specific shard code).
#pragma once

#include <vector>

#include "io/shard_store.h"
#include "io/snapshot.h"
#include "report/table.h"

namespace tokyonet::report {

/// How many shards the out-of-core scan may keep resident (the K of
/// DESIGN.md §5j, --resident-shards / TOKYONET_RESIDENT_SHARDS):
///   0  strict sequential — one shard resident at a time (the PR 8
///      memory bound);
///   K  K >= 1: an io::ShardPrefetcher keeps one load in flight while
///      up to K scanner threads produce partials; peak residency is at
///      most K + 1 shards.
/// Results are byte-identical at every (threads, shards, K).
struct OutOfCoreOptions {
  std::size_t resident_shards = 1;
};

/// Renders the headline battery (table01, fig02, fig05, table04,
/// sec35_opportunity, + fig18 for the 2015 campaign) out-of-core.
/// `store` must be open; peak memory is `opt.resident_shards + 1`
/// shards plus O(devices+aps) intermediates. On failure `out` is left
/// empty.
[[nodiscard]] io::SnapshotResult run_sharded_battery(
    io::ShardedDataset& store, std::vector<Table>& out,
    const OutOfCoreOptions& opt = {});

}  // namespace tokyonet::report
