// Small explicit-SIMD shim for the columnar analysis scans.
//
// The analysis kernels are written as branch-free scalar loops that
// compilers usually auto-vectorize; the two primitives the optimizer
// reliably refuses to vectorize well — byte-compare population counts
// and u32 -> u64 widening sums over long columns — get explicit SSE2 /
// NEON paths here, with a portable scalar fallback. Every path computes
// the identical integer result, so kernels stay byte-deterministic
// across ISAs and thread counts.
#pragma once

#include <cstddef>
#include <cstdint>

#if defined(__SSE2__)
#include <emmintrin.h>
#define TOKYONET_SIMD_SSE2 1
#elif defined(__ARM_NEON) || defined(__ARM_NEON__)
#include <arm_neon.h>
#define TOKYONET_SIMD_NEON 1
#endif

namespace tokyonet::stats::simd {

/// Name of the instruction set the shim compiled to, for benchmark logs.
[[nodiscard]] constexpr const char* active_isa() noexcept {
#if defined(TOKYONET_SIMD_SSE2)
  return "sse2";
#elif defined(TOKYONET_SIMD_NEON)
  return "neon";
#else
  return "scalar";
#endif
}

/// Number of bytes in [p, p + n) equal to `v`.
[[nodiscard]] inline std::size_t count_eq_u8(const std::uint8_t* p,
                                             std::size_t n,
                                             std::uint8_t v) noexcept {
  std::size_t total = 0;
  std::size_t i = 0;
#if defined(TOKYONET_SIMD_SSE2)
  const __m128i needle = _mm_set1_epi8(static_cast<char>(v));
  while (n - i >= 16) {
    // cmpeq yields 0xFF per match; accumulate as unsigned bytes and
    // drain through SAD before the 8-bit lanes can overflow.
    __m128i acc = _mm_setzero_si128();
    const std::size_t stop = i + ((n - i) / 16 > 255 ? 255 * 16 : (n - i) / 16 * 16);
    for (; i < stop; i += 16) {
      const __m128i x =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + i));
      acc = _mm_sub_epi8(acc, _mm_cmpeq_epi8(x, needle));
    }
    const __m128i sums = _mm_sad_epu8(acc, _mm_setzero_si128());
    total += static_cast<std::size_t>(
        static_cast<std::uint64_t>(_mm_cvtsi128_si64(sums)) +
        static_cast<std::uint64_t>(
            _mm_cvtsi128_si64(_mm_unpackhi_epi64(sums, sums))));
  }
#elif defined(TOKYONET_SIMD_NEON)
  const uint8x16_t needle = vdupq_n_u8(v);
  while (n - i >= 16) {
    uint8x16_t acc = vdupq_n_u8(0);
    const std::size_t stop = i + ((n - i) / 16 > 255 ? 255 * 16 : (n - i) / 16 * 16);
    for (; i < stop; i += 16) {
      acc = vsubq_u8(acc, vceqq_u8(vld1q_u8(p + i), needle));
    }
    total += vaddlvq_u8(acc);
  }
#endif
  for (; i < n; ++i) total += p[i] == v;
  return total;
}

/// Sum of the u32 values in [p, p + n), widened to u64.
[[nodiscard]] inline std::uint64_t sum_u32(const std::uint32_t* p,
                                           std::size_t n) noexcept {
  std::uint64_t total = 0;
  std::size_t i = 0;
#if defined(TOKYONET_SIMD_SSE2)
  __m128i acc = _mm_setzero_si128();  // 2 x u64
  const __m128i zero = _mm_setzero_si128();
  for (; i + 4 <= n; i += 4) {
    const __m128i x = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + i));
    acc = _mm_add_epi64(acc, _mm_unpacklo_epi32(x, zero));
    acc = _mm_add_epi64(acc, _mm_unpackhi_epi32(x, zero));
  }
  total += static_cast<std::uint64_t>(_mm_cvtsi128_si64(acc)) +
           static_cast<std::uint64_t>(
               _mm_cvtsi128_si64(_mm_unpackhi_epi64(acc, acc)));
#elif defined(TOKYONET_SIMD_NEON)
  uint64x2_t acc = vdupq_n_u64(0);
  for (; i + 4 <= n; i += 4) {
    const uint32x4_t x = vld1q_u32(p + i);
    acc = vaddq_u64(acc, vaddl_u32(vget_low_u32(x), vget_high_u32(x)));
  }
  total += vgetq_lane_u64(acc, 0) + vgetq_lane_u64(acc, 1);
#endif
  for (; i < n; ++i) total += p[i];
  return total;
}

/// Number of doubles in [p, p + n) strictly less than `v`. For a
/// non-decreasing array this equals std::lower_bound's index (first
/// entry >= v), which lets short monotone-CDF inversions run as a
/// branch-free count instead of a mispredict-heavy binary search.
/// NaN compares false on every path, matching scalar `<`.
[[nodiscard]] inline std::size_t count_less_f64(const double* p,
                                                std::size_t n,
                                                double v) noexcept {
  std::uint64_t total = 0;
  std::size_t i = 0;
#if defined(TOKYONET_SIMD_SSE2)
  const __m128d needle = _mm_set1_pd(v);
  __m128i acc = _mm_setzero_si128();  // 2 x u64
  for (; i + 2 <= n; i += 2) {
    // cmplt yields all-ones (-1 as i64) per matching lane.
    const __m128d x = _mm_loadu_pd(p + i);
    acc = _mm_sub_epi64(acc, _mm_castpd_si128(_mm_cmplt_pd(x, needle)));
  }
  total += static_cast<std::uint64_t>(_mm_cvtsi128_si64(acc)) +
           static_cast<std::uint64_t>(
               _mm_cvtsi128_si64(_mm_unpackhi_epi64(acc, acc)));
#elif defined(TOKYONET_SIMD_NEON) && defined(__aarch64__)
  // float64 vector compares are AArch64-only; 32-bit NEON falls back to
  // the scalar tail below.
  const float64x2_t needle = vdupq_n_f64(v);
  uint64x2_t acc = vdupq_n_u64(0);
  for (; i + 2 <= n; i += 2) {
    acc = vsubq_u64(acc, vcltq_f64(vld1q_f64(p + i), needle));
  }
  total += vgetq_lane_u64(acc, 0) + vgetq_lane_u64(acc, 1);
#endif
  for (; i < n; ++i) total += p[i] < v ? 1 : 0;
  return static_cast<std::size_t>(total);
}

}  // namespace tokyonet::stats::simd
