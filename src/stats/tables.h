// Precomputed draw tables for categorical and quantile-interpolated
// distributions.
//
// PhiloxRng::categorical re-sums its weights on every draw, which is
// fine for a handful of set-up draws but O(n) per draw on hot paths.
// These tables pay the O(n) preparation once per scenario and then draw
// in O(1) (Walker's alias method: one uniform, one table row per draw).
//
// Every draw takes one 32-bit counter output and finds its row (and a
// quantile table's interpolation fraction) with integer arithmetic.
// Each integer path equals the double formula it replaced bit for bit —
// u32 * n and u32 * 4096 - 2^19 are exact in a double for n <= 2^21 —
// so the draws are the same values the campaigns were generated with
// (DESIGN §5h).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "stats/philox.h"

namespace tokyonet::stats {

/// Walker alias table over a fixed weight vector. draw() consumes one
/// 32-bit counter value u: m = u * n picks row m >> 32, and the low 32
/// bits of m against the row's threshold decide between the row index
/// and its alias.
class AliasTable {
 public:
  AliasTable() = default;

  /// Builds the table for `weights` (1 to kMaxExactDrawRange entries,
  /// all >= 0, sum > 0).
  explicit AliasTable(std::span<const double> weights);

  [[nodiscard]] std::size_t size() const noexcept { return rows_.size(); }
  [[nodiscard]] bool empty() const noexcept { return rows_.empty(); }

  /// Index in [0, size()) with probability weights[i] / sum(weights).
  [[nodiscard]] std::size_t draw(PhiloxRng& rng) const noexcept {
    const std::uint64_t m = std::uint64_t{rng.next_u32()} * rows_.size();
    const std::size_t row = m >> 32;
    const Row& r = rows_[row];
    return (m & 0xFFFFFFFFu) < r.threshold ? row : r.alias;
  }

 private:
  struct Row {
    /// ceil(p * 2^32) for the row's acceptance probability p, in
    /// [0, 2^32]: the fraction (m mod 2^32) / 2^32 is below p exactly
    /// when m mod 2^32 is below this.
    std::uint64_t threshold = 0;
    std::uint32_t alias = 0;  // fallback index
  };
  std::vector<Row> rows_;
};

/// Linear interpolation over 4096 quantile knots at (i + 0.5) / 4096,
/// the shared body of LognormalTable and NormalTable. One 32-bit
/// counter value u per draw: u maps to knot space at
/// u * 4096 / 2^32 - 0.5 = (u - 2^19) / 2^20, so the knot index is
/// (u - 2^19) >> 20 and the fraction its low 20 bits; the half-knot
/// beyond each end clamps to the edge.
class QuantileTable {
 public:
  static constexpr int kKnotBits = 12;
  static constexpr std::size_t kKnots = std::size_t{1} << kKnotBits;

  QuantileTable() = default;

  [[nodiscard]] double draw(PhiloxRng& rng) const noexcept {
    constexpr int kFracBits = 32 - kKnotBits;
    constexpr std::uint32_t kHalfKnot = 1u << (kFracBits - 1);
    const std::uint32_t u = rng.next_u32();
    if (u <= kHalfKnot) return q_.front();
    const std::uint32_t x = u - kHalfKnot;
    const std::size_t i = x >> kFracBits;
    if (i + 1 >= kKnots) return q_.back();
    const double frac = static_cast<double>(x & ((1u << kFracBits) - 1)) *
                        (1.0 / (1u << kFracBits));
    return q_[i] + frac * (q_[i + 1] - q_[i]);
  }

 protected:
  /// Knot i holds mu + sigma * inverse_normal_cdf((i + 0.5) / kKnots),
  /// exponentiated when `log_normal`.
  QuantileTable(double mu, double sigma, bool log_normal);

 private:
  std::vector<double> q_;
};

/// Quantile-table lognormal: exp(mu + sigma * Z) drawn by interpolating
/// a precomputed inverse-CDF table instead of running the rational
/// normal-quantile polynomial plus std::exp per draw.
///
/// One 32-bit draw per variate. The table flattens the extreme tails
/// past the 1/(2*4096) quantiles (~0.6% relative error on the mean at
/// sigma 0.5), which is why the simulator uses it only for noise-grade
/// draws (per-bin activity/traffic jitter) and keeps the exact
/// transform for calibration-grade quantities.
class LognormalTable : public QuantileTable {
 public:
  LognormalTable() = default;
  LognormalTable(double mu, double sigma) : QuantileTable(mu, sigma, true) {}
};

/// Quantile-table normal: mu + sigma * Z by the same interpolation
/// scheme as LognormalTable (one 32-bit draw, flattened extreme tails).
/// For noise-grade draws like per-bin RSSI fast fading.
class NormalTable : public QuantileTable {
 public:
  NormalTable() = default;
  NormalTable(double mu, double sigma) : QuantileTable(mu, sigma, false) {}
};

}  // namespace tokyonet::stats
