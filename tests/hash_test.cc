// The byte-hash kernels (core/hash.h) that snapshot and ingest frame
// checksums are built on: the four-lane kernel must reproduce the
// serial hash lane by lane, and the striped hash must equal its
// definition in terms of the serial one. A known answer pins the
// striped hash, because it is the ingest frame checksum.
#include "core/hash.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <vector>

namespace tokyonet::core {
namespace {

/// Deterministic, non-repeating test bytes.
std::vector<std::uint8_t> test_bytes(std::size_t n) {
  std::vector<std::uint8_t> bytes(n);
  std::uint64_t x = 0x243F6A8885A308D3ull;
  for (std::uint8_t& b : bytes) {
    x = mix64(x + 1);
    b = static_cast<std::uint8_t>(x >> 56);
  }
  return bytes;
}

/// hash_bytes_striped as its definition states it: four stripes, three
/// of (n / 32) * 8 bytes and the rest, each hashed alone.
std::uint64_t striped_reference(const std::uint8_t* p, std::size_t n,
                                std::uint64_t seed) {
  const std::size_t stripe = n / 32 * 8;
  std::uint64_t h = mix64(seed ^ n);
  for (std::size_t l = 0; l < 4; ++l) {
    const std::size_t bytes = l < 3 ? stripe : n - 3 * stripe;
    h = mix64(h ^ hash_bytes(p + l * stripe, bytes, seed + 1 + l));
  }
  return h;
}

TEST(Hash, X4MatchesHashBytes) {
  const std::vector<std::uint8_t> bytes = test_bytes((4u << 10) + 3 + 80);
  // Lanes of unequal length, from unaligned starts, so every lane's
  // word loop and tail run past the shortest lane's end.
  for (std::size_t n0 = 0; n0 <= 70; ++n0) {
    const void* data[4] = {bytes.data() + 1, bytes.data() + 2,
                           bytes.data() + 3, bytes.data() + 5};
    const std::size_t n[4] = {n0, 70 - n0, n0 / 3, (n0 * 7) % 71};
    const std::uint64_t seed[4] = {n0, 1000 + n0, ~n0, 0};
    std::uint64_t out[4];
    hash_bytes_x4(data, n, seed, out);
    for (int l = 0; l < 4; ++l) {
      EXPECT_EQ(out[l], hash_bytes(data[l], n[l], seed[l]))
          << "lane " << l << ", n0 " << n0;
    }
  }
  const std::size_t big = (4u << 10) + 3;
  const void* data[4] = {bytes.data() + 7, bytes.data(), bytes.data() + 1,
                         bytes.data() + 13};
  const std::size_t n[4] = {big, 64, big, 0};
  const std::uint64_t seed[4] = {1, 2, 3, 4};
  std::uint64_t out[4];
  hash_bytes_x4(data, n, seed, out);
  for (int l = 0; l < 4; ++l) {
    EXPECT_EQ(out[l], hash_bytes(data[l], n[l], seed[l])) << "lane " << l;
  }
}

TEST(Hash, StripedDefinition) {
  const std::vector<std::uint8_t> bytes = test_bytes((20u << 10) + 1);
  for (std::size_t n = 0; n <= 100; ++n) {
    EXPECT_EQ(hash_bytes_striped(bytes.data() + 1, n, 0x5EED + n),
              striped_reference(bytes.data() + 1, n, 0x5EED + n))
        << "n " << n;
  }
  const std::size_t n = 20u << 10;
  EXPECT_EQ(hash_bytes_striped(bytes.data(), n, 7),
            striped_reference(bytes.data(), n, 7));
  // The ingest frame checksum (v3) is this function: a drift here is a
  // wire-format change and needs a new kIngestVersion. The value was
  // also computed by a separate implementation of the definition.
  EXPECT_EQ(hash_bytes_striped(bytes.data(), n, 7), 0x8fa1c3117e4dba64ull);
}

}  // namespace
}  // namespace tokyonet::core
