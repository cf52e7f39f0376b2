// philox4x32_fill: many independent Philox4x32-10 blocks at once.
//
// One on-demand block costs its full dependent latency (ten rounds of
// 32x32->64 multiplies); a batch of blocks whose counters are known up
// front costs only throughput. The AVX2 path runs eight blocks through
// one round loop, two vpmuludq per multiplier covering the even and odd
// 32-bit lanes; it is compiled for AVX2 by function attribute and chosen
// at run time, so the library itself still targets the baseline ISA.
// The portable loop is a plain sequence of philox4x32 calls, which an
// out-of-order core overlaps. Both write philox4x32's exact words.
#include "stats/philox.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <immintrin.h>
#define TOKYONET_PHILOX_AVX2 1
#endif

namespace tokyonet::stats {
namespace {

constexpr std::uint32_t kDomainTag = PhiloxRng::kDomainTag;

void store_block(const std::array<std::uint32_t, 4>& x,
                 std::uint64_t* out) noexcept {
  out[0] = (std::uint64_t{x[1]} << 32) | x[0];
  out[1] = (std::uint64_t{x[3]} << 32) | x[2];
}

/// Walks the (lane, slot) grid in output order, slot fastest.
struct GridCursor {
  std::uint32_t lane;
  std::uint32_t slot;
  std::uint32_t slots;

  void advance() noexcept {
    if (++slot == slots) {
      slot = 0;
      ++lane;
    }
  }
};

/// Blocks [first, n) of the grid, one at a time; `at` is block first.
void fill_scalar(std::array<std::uint32_t, 2> key, std::uint32_t stream,
                 GridCursor at, std::size_t first, std::size_t n,
                 std::uint64_t* out) noexcept {
  for (std::size_t j = first; j < n; ++j, at.advance()) {
    store_block(philox4x32({stream, at.lane, at.slot, kDomainTag}, key),
                out + 2 * j);
  }
}

#if defined(TOKYONET_PHILOX_AVX2)

/// hi and lo 32-bit halves of the eight products a[k] * m, lane by lane.
__attribute__((target("avx2"))) inline void mul_hilo(__m256i a, __m256i m,
                                                     __m256i& hi,
                                                     __m256i& lo) noexcept {
  const __m256i even = _mm256_mul_epu32(a, m);
  const __m256i odd = _mm256_mul_epu32(_mm256_srli_epi64(a, 32), m);
  hi = _mm256_blend_epi32(_mm256_srli_epi64(even, 32), odd, 0xAA);
  lo = _mm256_blend_epi32(even, _mm256_slli_epi64(odd, 32), 0xAA);
}

__attribute__((target("avx2"))) inline __m256i broadcast(
    std::uint32_t v) noexcept {
  return _mm256_set1_epi32(static_cast<int>(v));
}

/// Blocks [0, n - n % 8) eight at a time; returns how many it wrote and
/// leaves `at` on the next block. The counters of a batch advance in
/// vector registers (a batch moves each block 8 grid steps: slot by
/// 8 % slots with a carry into the lane, lane by 8 / slots), so no
/// scalar store feeds a vector load.
__attribute__((target("avx2"))) std::size_t fill_avx2(
    std::array<std::uint32_t, 2> key, std::uint32_t stream, GridCursor& at,
    std::size_t n, std::uint64_t* out) noexcept {
  const std::size_t n8 = n - n % 8;
  if (n8 == 0) return 0;
  alignas(32) std::uint32_t lanes[8];
  alignas(32) std::uint32_t slot_of[8];
  GridCursor c = at;
  for (std::size_t k = 0; k < 8; ++k, c.advance()) {
    lanes[k] = c.lane;
    slot_of[k] = c.slot;
  }
  const std::size_t end = at.slot + n8;
  at.lane += static_cast<std::uint32_t>(end / at.slots);
  at.slot = static_cast<std::uint32_t>(end % at.slots);
  __m256i lane = _mm256_load_si256(reinterpret_cast<const __m256i*>(lanes));
  __m256i slot = _mm256_load_si256(reinterpret_cast<const __m256i*>(slot_of));
  const __m256i slots = broadcast(at.slots);
  const __m256i last_slot = broadcast(at.slots - 1);
  const __m256i slot_step = broadcast(8 % at.slots);
  const __m256i lane_step = broadcast(8 / at.slots);
  const __m256i mul0 = broadcast(0xD2511F53u);
  const __m256i mul1 = broadcast(0xCD9E8D57u);
  const __m256i weyl0 = broadcast(0x9E3779B9u);
  const __m256i weyl1 = broadcast(0xBB67AE85u);
  for (std::size_t j = 0; j < n8; j += 8) {
    __m256i c0 = broadcast(stream);
    __m256i c1 = lane;
    __m256i c2 = slot;
    __m256i c3 = broadcast(kDomainTag);
    __m256i k0 = broadcast(key[0]);
    __m256i k1 = broadcast(key[1]);
    for (int round = 0; round < 10; ++round) {
      __m256i hi0, lo0, hi1, lo1;
      mul_hilo(c0, mul0, hi0, lo0);
      mul_hilo(c2, mul1, hi1, lo1);
      c0 = _mm256_xor_si256(_mm256_xor_si256(hi1, c1), k0);
      c1 = lo1;
      c2 = _mm256_xor_si256(_mm256_xor_si256(hi0, c3), k1);
      c3 = lo0;
      k0 = _mm256_add_epi32(k0, weyl0);
      k1 = _mm256_add_epi32(k1, weyl1);
    }
    // Transpose word-major vectors into block-major memory: block k is
    // the 16 bytes c0[k], c1[k], c2[k], c3[k].
    const __m256i t0 = _mm256_unpacklo_epi32(c0, c1);  // blocks 0,1 | 4,5
    const __m256i t1 = _mm256_unpacklo_epi32(c2, c3);
    const __m256i t2 = _mm256_unpackhi_epi32(c0, c1);  // blocks 2,3 | 6,7
    const __m256i t3 = _mm256_unpackhi_epi32(c2, c3);
    const __m256i b04 = _mm256_unpacklo_epi64(t0, t1);
    const __m256i b15 = _mm256_unpackhi_epi64(t0, t1);
    const __m256i b26 = _mm256_unpacklo_epi64(t2, t3);
    const __m256i b37 = _mm256_unpackhi_epi64(t2, t3);
    auto* dst = reinterpret_cast<__m256i*>(out + 2 * j);
    _mm256_storeu_si256(dst + 0, _mm256_permute2x128_si256(b04, b15, 0x20));
    _mm256_storeu_si256(dst + 1, _mm256_permute2x128_si256(b26, b37, 0x20));
    _mm256_storeu_si256(dst + 2, _mm256_permute2x128_si256(b04, b15, 0x31));
    _mm256_storeu_si256(dst + 3, _mm256_permute2x128_si256(b26, b37, 0x31));

    // Next batch: slot += 8 % slots, wrapping into the lane; the compare
    // is signed, which is safe because slots is small.
    slot = _mm256_add_epi32(slot, slot_step);
    const __m256i wrap = _mm256_cmpgt_epi32(slot, last_slot);  // -1 or 0
    slot = _mm256_sub_epi32(slot, _mm256_and_si256(wrap, slots));
    lane = _mm256_sub_epi32(_mm256_add_epi32(lane, lane_step), wrap);
  }
  return n8;
}

bool has_avx2() noexcept {
  static const bool yes = __builtin_cpu_supports("avx2");
  return yes;
}

#endif

}  // namespace

void philox4x32_fill(std::array<std::uint32_t, 2> key, std::uint32_t stream,
                     std::uint32_t lane0, std::uint32_t lanes,
                     std::uint32_t slots, std::uint64_t* out) noexcept {
  const std::size_t n = std::size_t{lanes} * slots;
  GridCursor at{lane0, 0, slots};
  std::size_t done = 0;
#if defined(TOKYONET_PHILOX_AVX2)
  if (has_avx2()) done = fill_avx2(key, stream, at, n, out);
#endif
  fill_scalar(key, stream, at, done, n, out);
}

void philox4x32_fill_portable(std::array<std::uint32_t, 2> key,
                              std::uint32_t stream, std::uint32_t lane0,
                              std::uint32_t lanes, std::uint32_t slots,
                              std::uint64_t* out) noexcept {
  fill_scalar(key, stream, GridCursor{lane0, 0, slots}, 0,
              std::size_t{lanes} * slots, out);
}

}  // namespace tokyonet::stats
