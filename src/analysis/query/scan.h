// Shared chunking geometry for deterministic parallel column scans.
//
// Every analysis kernel that scans the Dataset's sample columns in
// parallel partitions its input the same way: fixed 64K-sample chunks
// for flat column scans, fixed 16-device blocks for scans that need
// per-device fields or ranges. The partition depends only on the input
// size — never on the thread count — and each partial is either an
// exact integer accumulation (u64), a max-merge, or a per-device
// product, all of which reduce grouping-independently. Merging the partials in index order therefore
// reproduces the serial reference byte-identically at any thread count
// (DESIGN.md §5c); this header is the one place that geometry and its
// contract live, instead of one copy per kernel.
#pragma once

#include <algorithm>
#include <cstddef>

#include "core/parallel.h"

namespace tokyonet::analysis::query {

/// Samples per parallel_map item for flat column scans.
inline constexpr std::size_t kScanChunk = std::size_t{1} << 16;

/// Devices per parallel_map item for per-device scans.
inline constexpr std::size_t kDeviceBlock = 16;

[[nodiscard]] constexpr std::size_t num_chunks(std::size_t n_samples) noexcept {
  return (n_samples + kScanChunk - 1) / kScanChunk;
}

[[nodiscard]] constexpr std::size_t num_device_blocks(
    std::size_t n_devices) noexcept {
  return (n_devices + kDeviceBlock - 1) / kDeviceBlock;
}

/// Runs fn(begin, end) over the fixed 64K-sample chunks of [0, n) and
/// returns the partials in chunk order.
template <typename Fn>
[[nodiscard]] auto map_chunks(std::size_t n, Fn&& fn) {
  return core::parallel_map(num_chunks(n), [&](std::size_t c) {
    const std::size_t begin = c * kScanChunk;
    return fn(begin, std::min(begin + kScanChunk, n));
  });
}

/// Runs fn(d0, d1) over the fixed 16-device blocks of [0, n_devices)
/// and returns the partials in block order.
template <typename Fn>
[[nodiscard]] auto map_device_blocks(std::size_t n_devices, Fn&& fn) {
  return core::parallel_map(num_device_blocks(n_devices), [&](std::size_t b) {
    const std::size_t d0 = b * kDeviceBlock;
    return fn(d0, std::min(d0 + kDeviceBlock, n_devices));
  });
}

}  // namespace tokyonet::analysis::query
