// Counter-based random number generation (Philox4x32-10): the one
// generator behind every simulated draw. Each draw is keyed by *where it
// happens* rather than by how many draws preceded it:
//
//     value = philox(key(seed), counter(stream, lane, slot))
//
// so any device block — one device, sixteen, or the whole panel — can be
// generated independently, on any machine and in any order, and still
// reproduce the exact same campaign. The engine and every transform are
// written out here (<random>'s distributions are implementation-defined),
// so campaigns are the same on every platform.
//
// The distribution transforms here are *stateless*: each one maps a
// fixed number of counter outputs to a variate (normal uses an
// inverse-CDF rational approximation instead of Box-Muller, so there is
// no cached second variate). Categorical and quantile draws on hot paths
// go through the precomputed tables in stats/tables.h instead of
// per-draw weight scans.
#pragma once

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "core/hash.h"   // mix64
#include "stats/simd.h"  // count_less_f64

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

/// Fills the first `slots` blocks of `lanes` consecutive lanes of one
/// stream: block (stream, lane0 + i, s) lands at out[2 * (i * slots + s)]
/// as the two u64 draws PhiloxRng serves from it, low words first. The
/// blocks are independent, so this is a throughput kernel: an AVX2 path
/// (chosen at run time) computes eight at once, and the portable loop
/// lets the CPU overlap the scalar blocks. Both emit exactly
/// philox4x32's words.
void philox4x32_fill(std::array<std::uint32_t, 2> key, std::uint32_t stream,
                     std::uint32_t lane0, std::uint32_t lanes,
                     std::uint32_t slots, std::uint64_t* out) noexcept;

/// philox4x32_fill through the portable loop on every host (the
/// dispatched kernel's reference).
void philox4x32_fill_portable(std::array<std::uint32_t, 2> key,
                              std::uint32_t stream, std::uint32_t lane0,
                              std::uint32_t lanes, std::uint32_t slots,
                              std::uint64_t* out) noexcept;

/// Largest range uniform_int() (and rows an AliasTable) takes: u32 * n
/// must stay below 2^53, where a double still holds the product exactly,
/// for the integer draw to equal the double formula it replaced.
inline constexpr std::uint64_t kMaxExactDrawRange = std::uint64_t{1} << 21;

/// The poisson() transform walks the exact CDF up to this mean and
/// switches to a rounded-normal approximation above it. The walk costs
/// O(mean) adds but consumes one uniform and is exact; at mean 30 the
/// normal approximation's total-variation error is already < 1.5% and
/// every simulator call site (scan counts) sits well below the cutoff.
inline constexpr double kPoissonInversionCutoffMean = 30.0;

/// Counter-based RNG stream: Philox4x32-10 keyed by a campaign seed,
/// addressed by (stream, lane). The simulator uses stream = device id
/// and lane = an encoding of (day | bin | setup | population | survey),
/// and one reserved stream above every device id for the draws the
/// campaign shares (sim/simulator.cc), so every draw is reproducible from
/// coordinates alone. Each instance serves draws from successive
/// counter slots of its lane.
class PhiloxRng {
 public:
  PhiloxRng(std::uint64_t seed, std::uint32_t stream,
            std::uint32_t lane) noexcept
      : key_(derive_key(seed)), stream_(stream), lane_(lane) {}

  /// The Philox key words for a campaign seed: the first splitmix64
  /// output seeded with it. Exposed so tests can reconstruct any
  /// stream's draws from raw philox4x32 block calls.
  [[nodiscard]] static std::array<std::uint32_t, 2> derive_key(
      std::uint64_t seed) noexcept {
    const std::uint64_t k = core::mix64(seed + 0x9E3779B97F4A7C15ull);
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

  /// reseat() with the lane's first `n_blocks` blocks (at most
  /// kMaxPrefillBlocks) already computed, as philox4x32_fill lays them
  /// out for this (stream, lane). Draws are served from those blocks,
  /// then from on-demand refills at slot n_blocks: the sequence is the
  /// plain reseat()'s.
  void reseat(std::uint32_t stream, std::uint32_t lane,
              const std::uint64_t* blocks, std::uint32_t n_blocks) noexcept {
    assert(n_blocks <= kMaxPrefillBlocks);
    stream_ = stream;
    lane_ = lane;
    slot_ = n_blocks;
    pos_ = 0;
    filled_ = 2 * n_blocks;
    has_spare_ = false;
    for (std::uint32_t i = 0; i < filled_; ++i) buf_[i] = blocks[i];
  }

  /// Most blocks reseat() takes prefilled.
  static constexpr std::uint32_t kMaxPrefillBlocks = 3;

  /// Fixed ctr[3] tag separating tokyonet draw streams from any other
  /// Philox use of the same key ("toky").
  static constexpr std::uint32_t kDomainTag = 0x746F6B79u;

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

  /// Uniform integer in [0, n), 0 < n <= kMaxExactDrawRange: the high
  /// word of u32 * n, which equals floor(uniform32() * n) exactly.
  [[nodiscard]] std::uint64_t uniform_int(std::uint64_t n) noexcept {
    assert(n > 0 && n <= kMaxExactDrawRange);
    return (std::uint64_t{next_u32()} * n) >> 32;
  }

  [[nodiscard]] bool bernoulli(double p) noexcept { return uniform32() < p; }

  /// Index in [0, weights.size()) with probability proportional to
  /// weights[i], by one scan of the weights (set-up draws; hot paths use
  /// an AliasTable). Requires at least one positive weight.
  [[nodiscard]] std::size_t categorical(
      std::span<const double> weights) noexcept {
    double total = 0;
    for (const double w : weights) {
      assert(w >= 0);
      total += w;
    }
    assert(total > 0);
    double x = uniform32() * total;
    for (std::size_t i = 0; i + 1 < weights.size(); ++i) {
      x -= weights[i];
      if (x < 0) return i;
    }
    return weights.size() - 1;
  }

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
    const double u = uniform32_open();
    double pmf = std::pow(1.0 - p, static_cast<double>(n));
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
  /// Refill policy: one block per fill, on demand. A lane's length is
  /// not known up front (it ranges from one block to a dozen per bin),
  /// and a block computed on demand sits on the draw's critical path
  /// (~30 ns of dependent multiplies). So callers that know a batch of
  /// lanes in advance — the simulator's 144 bin lanes of a device-day —
  /// compute their first blocks together with philox4x32_fill, where
  /// independent blocks overlap, and hand them to reseat(); only the
  /// rarer long lanes reach this path.
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
  std::array<std::uint64_t, 2 * kMaxPrefillBlocks> buf_{};
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

/// Binomial(n, p) for a fixed p, bit-identical to PhiloxRng::binomial
/// draw for draw.
///
/// The simulator thins scan counts with one of six dwell-fixed
/// probabilities, so the CDF walk binomial() redoes per draw — a pow, a
/// divide per step — is computed once per scenario for every n below
/// `n_max`: row n holds the walk's partial sums cdf[0 .. n-1]. The walk
/// stops at the first k with u <= cdf[k] (or at n), which for a
/// non-decreasing row is the count of entries below u: a branch-free
/// SIMD count, as in PoissonCdfCache. Larger n fall back to binomial().
class BinomialCdfTable {
 public:
  BinomialCdfTable() = default;

  BinomialCdfTable(double p, unsigned n_max) : p_(p), n_max_(n_max) {
    if (p <= 0 || p >= 1) {
      n_max_ = 0;  // binomial() returns without drawing
      return;
    }
    // Row n starts at n * (n - 1) / 2.
    cdf_.resize(static_cast<std::size_t>(n_max) * (n_max - 1) / 2);
    const double odds = p / (1.0 - p);
    for (unsigned n = 1; n < n_max; ++n) {
      double* row = cdf_.data() + static_cast<std::size_t>(n) * (n - 1) / 2;
      double pmf = std::pow(1.0 - p, static_cast<double>(n));
      double cdf = pmf;
      row[0] = cdf;
      for (unsigned k = 1; k < n; ++k) {
        pmf *= odds * static_cast<double>(n - k + 1) / static_cast<double>(k);
        cdf += pmf;
        row[k] = cdf;
      }
    }
  }

  [[nodiscard]] unsigned draw(PhiloxRng& rng, unsigned n) const noexcept {
    if (n == 0 || n >= n_max_) return rng.binomial(n, p_);
    const double u = rng.uniform32_open();
    const double* row = cdf_.data() + static_cast<std::size_t>(n) * (n - 1) / 2;
    return static_cast<unsigned>(simd::count_less_f64(row, n, u));
  }

 private:
  std::vector<double> cdf_;
  double p_ = 0;
  unsigned n_max_ = 0;
};

}  // namespace tokyonet::stats
