// Counter-based random number generation (Philox4x32-10).
//
// The simulator's hot path keys every draw by *where it happens* rather
// than by how many draws preceded it:
//
//     value = philox(key(seed), counter(device, lane, slot))
//
// so any device block — one device, sixteen, or the whole panel — can be
// generated independently and still reproduce the exact same campaign.
// This is the property ROADMAP item 1's streaming/out-of-core generation
// needs: a device's (day, bin) draws can be produced on any machine, in
// any order, with no per-device engine state to carry around.
//
// The distribution transforms here are *stateless*: each one maps a
// fixed number of counter outputs to a variate (normal uses an
// inverse-CDF rational approximation instead of Box-Muller, so there is
// no cached second variate — the asymmetric cache-drop bug the old
// Rng::poisson normal-approximation branch had cannot recur).
// Categorical/zipf draws on hot paths go through the precomputed tables
// in stats/tables.h instead of per-draw weight scans.
#pragma once

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <cstdint>

#include "stats/rng.h"   // splitmix64
#include "stats/simd.h"  // ISA detection + intrinsics

namespace tokyonet::stats {

/// One Philox4x32-10 block (Salmon et al., SC'11), the reference
/// constants from Random123. Maps a 128-bit counter and 64-bit key to
/// 128 bits of output.
[[nodiscard]] constexpr std::array<std::uint32_t, 4> philox4x32(
    std::array<std::uint32_t, 4> ctr, std::array<std::uint32_t, 2> key) noexcept {
  constexpr std::uint32_t kMul0 = 0xD2511F53u;
  constexpr std::uint32_t kMul1 = 0xCD9E8D57u;
  constexpr std::uint32_t kWeyl0 = 0x9E3779B9u;
  constexpr std::uint32_t kWeyl1 = 0xBB67AE85u;
  for (int round = 0; round < 10; ++round) {
    const std::uint64_t p0 = std::uint64_t{kMul0} * ctr[0];
    const std::uint64_t p1 = std::uint64_t{kMul1} * ctr[2];
    ctr = {static_cast<std::uint32_t>(p1 >> 32) ^ ctr[1] ^ key[0],
           static_cast<std::uint32_t>(p1),
           static_cast<std::uint32_t>(p0 >> 32) ^ ctr[3] ^ key[1],
           static_cast<std::uint32_t>(p0)};
    key[0] += kWeyl0;
    key[1] += kWeyl1;
  }
  return ctr;
}

/// Two consecutive Philox4x32-10 blocks — counters identical except
/// ctr[2] (the slot), which takes `ctr[2]` and `ctr[2] + 1` — returned
/// as the four 64-bit outputs in draw order. On SSE2 both blocks run
/// through one round loop (pmuludq performs the two 32x32->64 multiplies
/// of a round for both blocks at once); elsewhere it is two scalar
/// blocks. Every path produces bit-identical values: the pair is purely
/// a throughput optimization for lanes that consume > 2 draws.
[[nodiscard]] inline std::array<std::uint64_t, 4> philox4x32_pair(
    std::array<std::uint32_t, 4> ctr, std::array<std::uint32_t, 2> key) noexcept {
#if defined(TOKYONET_SIMD_SSE2)
  constexpr std::uint32_t kMul0 = 0xD2511F53u;
  constexpr std::uint32_t kMul1 = 0xCD9E8D57u;
  // Lane layout: even 32-bit lanes hold block A, odd pairs block B.
  //   v02 = [c0_A, c2_A, c0_B, c2_B]   (the multiplied words)
  //   v13 = [c1_A, c3_A, c1_B, c3_B]   (the xored words)
  __m128i v02 = _mm_set_epi32(static_cast<int>(ctr[2] + 1),
                              static_cast<int>(ctr[0]),
                              static_cast<int>(ctr[2]),
                              static_cast<int>(ctr[0]));
  __m128i v13 = _mm_set_epi32(static_cast<int>(ctr[3]),
                              static_cast<int>(ctr[1]),
                              static_cast<int>(ctr[3]),
                              static_cast<int>(ctr[1]));
  __m128i k = _mm_set_epi32(static_cast<int>(key[1]),
                            static_cast<int>(key[0]),
                            static_cast<int>(key[1]),
                            static_cast<int>(key[0]));
  const __m128i weyl = _mm_set_epi32(static_cast<int>(0xBB67AE85u),
                                     static_cast<int>(0x9E3779B9u),
                                     static_cast<int>(0xBB67AE85u),
                                     static_cast<int>(0x9E3779B9u));
  const __m128i mul0 = _mm_set1_epi32(static_cast<int>(kMul0));
  const __m128i mul1 = _mm_set1_epi32(static_cast<int>(kMul1));
  const __m128i lo32 = _mm_set1_epi64x(0xFFFFFFFFll);
  for (int round = 0; round < 10; ++round) {
    const __m128i p0 = _mm_mul_epu32(v02, mul0);                  // c0 * M0
    const __m128i p1 = _mm_mul_epu32(_mm_srli_epi64(v02, 32), mul1);  // c2 * M1
    // New multiplied words: {hi(p1), hi(p0)} ^ {c1, c3} ^ {k0, k1}.
    const __m128i hi =
        _mm_or_si128(_mm_srli_epi64(p1, 32),
                     _mm_slli_epi64(_mm_srli_epi64(p0, 32), 32));
    // New xored words: {lo(p1), lo(p0)}.
    const __m128i lo = _mm_or_si128(_mm_and_si128(p1, lo32),
                                    _mm_slli_epi64(_mm_and_si128(p0, lo32), 32));
    v02 = _mm_xor_si128(_mm_xor_si128(hi, v13), k);
    v13 = lo;
    k = _mm_add_epi32(k, weyl);
  }
  alignas(16) std::uint32_t a02[4];
  alignas(16) std::uint32_t a13[4];
  _mm_store_si128(reinterpret_cast<__m128i*>(a02), v02);
  _mm_store_si128(reinterpret_cast<__m128i*>(a13), v13);
  return {(std::uint64_t{a13[0]} << 32) | a02[0],
          (std::uint64_t{a13[1]} << 32) | a02[1],
          (std::uint64_t{a13[2]} << 32) | a02[2],
          (std::uint64_t{a13[3]} << 32) | a02[3]};
#else
  const std::array<std::uint32_t, 4> a = philox4x32(ctr, key);
  ctr[2] += 1;
  const std::array<std::uint32_t, 4> b = philox4x32(ctr, key);
  return {(std::uint64_t{a[1]} << 32) | a[0],
          (std::uint64_t{a[3]} << 32) | a[2],
          (std::uint64_t{b[1]} << 32) | b[0],
          (std::uint64_t{b[3]} << 32) | b[2]};
#endif
}

/// The poisson() transform walks the exact CDF up to this mean and
/// switches to a rounded-normal approximation above it. The walk costs
/// O(mean) adds but consumes one uniform and is exact; at mean 30 the
/// normal approximation's total-variation error is already < 1.5% and
/// every simulator call site (scan counts) sits well below the cutoff.
inline constexpr double kPoissonInversionCutoffMean = 30.0;

/// Counter-based RNG stream: Philox4x32-10 keyed by a campaign seed,
/// addressed by (stream, lane). The simulator uses stream = device id
/// and lane = an encoding of (day | bin | setup), so every sample's
/// draws are reproducible from coordinates alone.
///
/// Draw methods mirror stats::Rng so call sites read identically; each
/// instance serves draws from successive counter slots of its lane.
class PhiloxRng {
 public:
  PhiloxRng(std::uint64_t seed, std::uint32_t stream,
            std::uint32_t lane) noexcept
      : key_(derive_key(seed)), stream_(stream), lane_(lane) {}

  /// The Philox key words for a campaign seed (splitmix64-mixed).
  /// Exposed so tests can reconstruct any stream's draws from raw
  /// philox4x32 block calls.
  [[nodiscard]] static std::array<std::uint32_t, 2> derive_key(
      std::uint64_t seed) noexcept {
    std::uint64_t sm = seed;
    const std::uint64_t k = splitmix64(sm);
    return {static_cast<std::uint32_t>(k),
            static_cast<std::uint32_t>(k >> 32)};
  }

  /// Re-aims this instance at another (stream, lane) coordinate under
  /// the same key. The subsequent sequence is identical to a freshly
  /// constructed PhiloxRng(seed, stream, lane); hot loops that visit a
  /// lane per bin reseat one instance instead of re-deriving the key.
  void reseat(std::uint32_t stream, std::uint32_t lane) noexcept {
    stream_ = stream;
    lane_ = lane;
    slot_ = 0;
    pos_ = 0;
    filled_ = 0;
    has_spare_ = false;
  }

  [[nodiscard]] std::uint64_t next_u64() noexcept {
    if (pos_ == filled_) refill();
    return buf_[pos_++];
  }

  /// 32-bit counter output: two per u64 (low half first, high half
  /// stashed for the next call). u64 draws never touch the stash, so
  /// every sequence stays a pure function of the call sequence.
  [[nodiscard]] std::uint32_t next_u32() noexcept {
    if (has_spare_) {
      has_spare_ = false;
      return spare_;
    }
    const std::uint64_t v = next_u64();
    spare_ = static_cast<std::uint32_t>(v >> 32);
    has_spare_ = true;
    return static_cast<std::uint32_t>(v);
  }

  /// Uniform double in [0, 1) at full 53-bit resolution. For
  /// calibration-grade transforms (normal/lognormal inverse CDFs).
  [[nodiscard]] double uniform() noexcept {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in (0, 1) — strictly interior, for inverse CDFs.
  [[nodiscard]] double uniform_open() noexcept {
    return (static_cast<double>(next_u64() >> 11) + 0.5) * 0x1.0p-53;
  }

  /// Uniform double in [0, 1) at 32-bit resolution — half the counter
  /// consumption of uniform(). The resolution floor (2^-32) is far below
  /// any probability the simulator compares against, so accept/reject
  /// decisions, table lookups and discrete CDF inversions draw here.
  [[nodiscard]] double uniform32() noexcept {
    return static_cast<double>(next_u32()) * 0x1.0p-32;
  }

  /// Uniform double in (0, 1) at 32-bit resolution.
  [[nodiscard]] double uniform32_open() noexcept {
    return (static_cast<double>(next_u32()) + 0.5) * 0x1.0p-32;
  }

  /// Uniform double in [lo, hi).
  [[nodiscard]] double uniform(double lo, double hi) noexcept {
    return lo + (hi - lo) * uniform();
  }

  /// Uniform double in [lo, hi) at 32-bit resolution.
  [[nodiscard]] double uniform32(double lo, double hi) noexcept {
    return lo + (hi - lo) * uniform32();
  }

  /// Uniform integer in [0, n). Requires 0 < n (and n far below 2^32:
  /// draws resolve 32 bits).
  [[nodiscard]] std::uint64_t uniform_int(std::uint64_t n) noexcept {
    assert(n > 0);
    return static_cast<std::uint64_t>(uniform32() * static_cast<double>(n));
  }

  [[nodiscard]] bool bernoulli(double p) noexcept { return uniform32() < p; }

  /// Standard normal via the inverse CDF (Acklam's rational
  /// approximation, |rel err| < 1.2e-9): one uniform in, one variate
  /// out, no cached state.
  [[nodiscard]] double normal() noexcept {
    return inverse_normal_cdf(uniform_open());
  }

  [[nodiscard]] double normal(double mean, double stddev) noexcept {
    return mean + stddev * normal();
  }

  /// Lognormal: exp(N(mu, sigma)). `mu`/`sigma` are in log space.
  [[nodiscard]] double lognormal(double mu, double sigma) noexcept {
    return std::exp(normal(mu, sigma));
  }

  /// Exponential with rate lambda (mean 1/lambda).
  [[nodiscard]] double exponential(double lambda) noexcept {
    assert(lambda > 0);
    return -std::log(uniform_open()) / lambda;
  }

  /// Pareto (Type I) with scale xm > 0 and shape alpha > 0.
  [[nodiscard]] double pareto(double xm, double alpha) noexcept {
    assert(xm > 0 && alpha > 0);
    return xm / std::pow(uniform_open(), 1.0 / alpha);
  }

  /// Poisson count by CDF inversion: exact for mean <=
  /// kPoissonInversionCutoffMean, rounded normal above (see the cutoff
  /// constant's comment). One uniform either way.
  [[nodiscard]] unsigned poisson(double mean) noexcept {
    assert(mean >= 0);
    if (mean <= 0) return 0;
    if (mean > kPoissonInversionCutoffMean) {
      const double x = normal(mean, std::sqrt(mean));
      return x <= 0.5 ? 0u : static_cast<unsigned>(x + 0.5);
    }
    const double u = uniform32_open();
    double pmf = std::exp(-mean);
    double cdf = pmf;
    unsigned k = 0;
    // mean <= 30 puts the 1 - 1e-15 quantile far below 200; the bound
    // only guards against cdf stalling in the last few ulps.
    while (u > cdf && k < 200) {
      ++k;
      pmf *= mean / k;
      cdf += pmf;
    }
    return k;
  }

  /// Binomial(n, p) by CDF inversion — one uniform, O(np) adds. Used to
  /// thin scan counts (n <= 255) in one draw instead of n bernoullis.
  [[nodiscard]] unsigned binomial(unsigned n, double p) noexcept {
    if (n == 0 || p <= 0) return 0;
    if (p >= 1) return n;
    return binomial_pmf0(n, p, std::pow(1.0 - p, static_cast<double>(n)));
  }

  /// binomial() with the CDF walk's starting mass pmf0 supplied by the
  /// caller. pmf0 must equal std::pow(1.0 - p, double(n)) exactly — the
  /// simulator precomputes those powers per scenario (p is fixed per
  /// dwell environment) so the per-bin std::pow disappears while every
  /// draw stays bit-identical to binomial(n, p).
  [[nodiscard]] unsigned binomial_pmf0(unsigned n, double p,
                                       double pmf0) noexcept {
    if (n == 0 || p <= 0) return 0;
    if (p >= 1) return n;
    const double u = uniform32_open();
    double pmf = pmf0;
    double cdf = pmf;
    const double odds = p / (1.0 - p);
    unsigned k = 0;
    while (u > cdf && k < n) {
      ++k;
      pmf *= odds * static_cast<double>(n - k + 1) / static_cast<double>(k);
      cdf += pmf;
    }
    return k;
  }

  /// Inverse standard-normal CDF, Acklam's rational approximation.
  /// Requires p in (0, 1); relative error < 1.2e-9 everywhere.
  [[nodiscard]] static double inverse_normal_cdf(double p) noexcept {
    assert(p > 0.0 && p < 1.0);
    constexpr double a[6] = {-3.969683028665376e+01, 2.209460984245205e+02,
                             -2.759285104469687e+02, 1.383577518672690e+02,
                             -3.066479806614716e+01, 2.506628277459239e+00};
    constexpr double b[5] = {-5.447609879822406e+01, 1.615858368580409e+02,
                             -1.556989798598866e+02, 6.680131188771972e+01,
                             -1.328068155288572e+01};
    constexpr double c[6] = {-7.784894002430293e-03, -3.223964580411365e-01,
                             -2.400758277161838e+00, -2.549732539343734e+00,
                             4.374664141464968e+00,  2.938163982698783e+00};
    constexpr double d[4] = {7.784695709041462e-03, 3.224671290700398e-01,
                             2.445134137142996e+00, 3.754408661907416e+00};
    constexpr double p_low = 0.02425;
    if (p < p_low) {
      const double q = std::sqrt(-2.0 * std::log(p));
      return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
              c[5]) /
             ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
    }
    if (p > 1.0 - p_low) {
      const double q = std::sqrt(-2.0 * std::log(1.0 - p));
      return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
               c[5]) /
             ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
    }
    const double q = p - 0.5;
    const double r = q * q;
    return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r +
            a[5]) *
           q /
           (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0);
  }

 private:
  /// Fixed ctr[3] tag separating tokyonet draw streams from any other
  /// Philox use of the same key ("toky").
  static constexpr std::uint32_t kDomainTag = 0x746F6B79u;

  /// Refill policy: one block per fill, on demand. Simulator lanes are
  /// short (a handful of draws per bin), so prefetching a second block
  /// via philox4x32_pair wastes a whole block whenever the lane stops on
  /// an odd block boundary — measured as a net loss on campaign
  /// simulation time. The pair kernel stays available for bulk columnar fills
  /// where the draw count is known up front.
  void refill() noexcept {
    const std::array<std::uint32_t, 4> x =
        philox4x32({stream_, lane_, slot_, kDomainTag}, key_);
    buf_[0] = (std::uint64_t{x[1]} << 32) | x[0];
    buf_[1] = (std::uint64_t{x[3]} << 32) | x[2];
    filled_ = 2;
    slot_ += 1;
    pos_ = 0;
  }

  std::array<std::uint32_t, 2> key_{};
  std::uint32_t stream_ = 0;
  std::uint32_t lane_ = 0;
  std::uint32_t slot_ = 0;
  std::array<std::uint64_t, 4> buf_{};
  std::uint32_t pos_ = 0;
  std::uint32_t filled_ = 0;
  std::uint32_t spare_ = 0;
  bool has_spare_ = false;
};

/// Resumable Poisson sampler for a fixed mean, bit-identical to
/// PhiloxRng::poisson(mean) draw for draw.
///
/// The simulator draws scan counts with the same mean for every bin of a
/// dwell segment, so the exp(-mean) and the O(mean) CDF walk that
/// poisson() redoes per draw are instead computed once and memoized: the
/// partial sums are persisted (extended lazily, exactly as far as the
/// largest uniform seen requires) and each draw becomes a binary search
/// over the cached prefix. The recurrence, the comparison (first k with
/// u <= cdf[k]) and the k == 200 stall cap match poisson() term for
/// term, which is what makes the values — not just the distribution —
/// identical.
class PoissonCdfCache {
 public:
  PoissonCdfCache() = default;

  /// Re-targets the cache at a new mean; no transcendentals until the
  /// first draw (a segment with no scans pays nothing).
  void reset(double mean) noexcept {
    mean_ = mean;
    size_ = 0;
    started_ = false;
  }

  [[nodiscard]] double mean() const noexcept { return mean_; }

  [[nodiscard]] unsigned draw(PhiloxRng& rng) noexcept {
    if (mean_ <= 0) return 0;
    if (mean_ > kPoissonInversionCutoffMean) {
      if (!started_) {
        sd_ = std::sqrt(mean_);
        started_ = true;
      }
      const double x =
          mean_ + sd_ * PhiloxRng::inverse_normal_cdf(rng.uniform_open());
      return x <= 0.5 ? 0u : static_cast<unsigned>(x + 0.5);
    }
    const double u = rng.uniform32_open();
    if (!started_) {
      pmf_ = std::exp(-mean_);
      cdf_[0] = pmf_;
      size_ = 1;
      started_ = true;
    }
    if (u <= cdf_[size_ - 1]) {
      // Answer lies in the cached prefix: cdf_ is non-decreasing, so the
      // first entry >= u is exactly where poisson()'s walk would stop —
      // and that lower_bound index equals the count of entries strictly
      // below u, which the SIMD shim computes branch-free (the prefix is
      // a handful of elements; a binary search mispredicts every level).
      return static_cast<unsigned>(simd::count_less_f64(cdf_.data(), size_, u));
    }
    // Extend the walk (same recurrence as poisson()), persisting the new
    // partial sums for later draws.
    unsigned k = size_ - 1;
    double cdf = cdf_[size_ - 1];
    while (u > cdf && k < 200) {
      ++k;
      pmf_ *= mean_ / k;
      cdf += pmf_;
      if (size_ < cdf_.size()) cdf_[size_++] = cdf;
    }
    return k;
  }

 private:
  // poisson() caps its walk at k == 200, so at most 201 partial sums.
  std::array<double, 201> cdf_{};
  double mean_ = 0;
  double pmf_ = 0;
  double sd_ = 0;
  unsigned size_ = 0;
  bool started_ = false;
};

}  // namespace tokyonet::stats
