// Shared 64-bit byte hashing used wherever tokyonet checksums bytes on
// disk or on the wire: snapshot sections and shard manifests
// (io/snapshot, io/shard_store) use hash_bytes, ingest frame payloads
// (ingest/frame) use hash_bytes_striped. Both algorithms — a splitmix64
// finalizer folded over 8-byte words, serially or in four stripes — are
// part of those formats, so neither may change without bumping the
// formats' version numbers.
#pragma once

#include <cstdint>
#include <cstring>

namespace tokyonet::core {

/// splitmix64 finalizer: a cheap, well-mixed 64-bit permutation.
[[nodiscard]] inline std::uint64_t mix64(std::uint64_t x) noexcept {
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ull;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBull;
  x ^= x >> 31;
  return x;
}

/// Hash of `n` bytes at `data` under `seed`. The tail is padded into one
/// word tagged with its length, so "abc" and "abc\0" differ.
[[nodiscard]] inline std::uint64_t hash_bytes(const void* data, std::size_t n,
                                              std::uint64_t seed) noexcept {
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::uint64_t h = mix64(seed ^ (0x9E3779B97F4A7C15ull + n));
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    std::uint64_t w;
    std::memcpy(&w, p + i, 8);
    h = mix64(h ^ w);
  }
  if (i < n) {
    std::uint64_t w = 0;
    std::memcpy(&w, p + i, n - i);
    h = mix64(h ^ w ^ (std::uint64_t{n - i} << 56));
  }
  return h;
}

/// Hashes four independent byte streams in one interleaved loop,
/// producing out[l] == hash_bytes(data[l], n[l], seed[l]) exactly. The
/// fold's serial multiply chain limits hash_bytes() to ~1 word per
/// ~10 cycles; interleaving four chains keeps the multiplier busy and
/// roughly triples single-thread checksum throughput. io/snapshot runs
/// all of a file's section and chunk chains through it, four at a time;
/// hash_bytes_striped runs one buffer's four stripes through it. Same
/// bytes, same seeds, same results — a scheduling change, not a format
/// change.
inline void hash_bytes_x4(const void* const data[4], const std::size_t n[4],
                          const std::uint64_t seed[4],
                          std::uint64_t out[4]) noexcept {
  const std::uint8_t* p[4];
  std::uint64_t h[4];
  for (int l = 0; l < 4; ++l) {
    p[l] = static_cast<const std::uint8_t*>(data[l]);
    h[l] = mix64(seed[l] ^ (0x9E3779B97F4A7C15ull + n[l]));
  }
  std::size_t common = n[0];
  for (int l = 1; l < 4; ++l) common = n[l] < common ? n[l] : common;
  std::size_t i = 0;
  for (; i + 8 <= common; i += 8) {
    for (int l = 0; l < 4; ++l) {
      std::uint64_t w;
      std::memcpy(&w, p[l] + i, 8);
      h[l] = mix64(h[l] ^ w);
    }
  }
  for (int l = 0; l < 4; ++l) {
    std::size_t j = i;
    std::uint64_t hl = h[l];
    for (; j + 8 <= n[l]; j += 8) {
      std::uint64_t w;
      std::memcpy(&w, p[l] + j, 8);
      hl = mix64(hl ^ w);
    }
    if (j < n[l]) {
      std::uint64_t w = 0;
      std::memcpy(&w, p[l] + j, n[l] - j);
      hl = mix64(hl ^ w ^ (std::uint64_t{n[l] - j} << 56));
    }
    out[l] = hl;
  }
}

/// Hash of `n` bytes at `data` under `seed`, as four independent
/// chains: the first three stripes are (n / 32) * 8 bytes each, the
/// fourth holds the rest, and stripe l is hashed with hash_bytes under
/// seed + 1 + l. The four results fold into mix64(seed ^ n) in stripe
/// order. One buffer hashes at hash_bytes_x4's throughput instead of one
/// serial chain's; the ingest frame checksum (ingest/frame) is this.
[[nodiscard]] inline std::uint64_t hash_bytes_striped(
    const void* data, std::size_t n, std::uint64_t seed) noexcept {
  const auto* p = static_cast<const std::uint8_t*>(data);
  const std::size_t stripe = n / 32 * 8;
  const void* starts[4] = {p, p + stripe, p + 2 * stripe, p + 3 * stripe};
  const std::size_t bytes[4] = {stripe, stripe, stripe, n - 3 * stripe};
  const std::uint64_t seeds[4] = {seed + 1, seed + 2, seed + 3, seed + 4};
  std::uint64_t out[4];
  hash_bytes_x4(starts, bytes, seeds, out);
  std::uint64_t h = mix64(seed ^ n);
  for (const std::uint64_t v : out) h = mix64(h ^ v);
  return h;
}

}  // namespace tokyonet::core
