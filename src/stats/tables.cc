#include "stats/tables.h"

#include <cassert>
#include <cmath>

#include "stats/philox.h"

namespace tokyonet::stats {

QuantileTable::QuantileTable(double mu, double sigma, bool log_normal) {
  assert(sigma >= 0);
  q_.resize(kKnots);
  for (std::size_t i = 0; i < kKnots; ++i) {
    const double p =
        (static_cast<double>(i) + 0.5) / static_cast<double>(kKnots);
    const double z = mu + sigma * PhiloxRng::inverse_normal_cdf(p);
    q_[i] = log_normal ? std::exp(z) : z;
  }
}

AliasTable::AliasTable(std::span<const double> weights) {
  const std::size_t n = weights.size();
  assert(n > 0 && n <= kMaxExactDrawRange);
  double total = 0;
  for (double w : weights) {
    assert(w >= 0);
    total += w;
  }
  assert(total > 0);

  // Walker/Vose: split rows into under- and over-full relative to the
  // uniform share 1/n, then repeatedly top up an under-full row from an
  // over-full one. Leftovers are exactly full up to rounding.
  std::vector<double> prob(n, 1.0);
  std::vector<std::uint32_t> alias(n, 0);
  std::vector<double> scaled(n);
  std::vector<std::uint32_t> small, large;
  small.reserve(n);
  large.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    scaled[i] = weights[i] * static_cast<double>(n) / total;
    (scaled[i] < 1.0 ? small : large).push_back(
        static_cast<std::uint32_t>(i));
  }
  while (!small.empty() && !large.empty()) {
    const std::uint32_t s = small.back();
    const std::uint32_t l = large.back();
    small.pop_back();
    large.pop_back();
    prob[s] = scaled[s];
    alias[s] = l;
    scaled[l] = (scaled[l] + scaled[s]) - 1.0;
    (scaled[l] < 1.0 ? small : large).push_back(l);
  }

  // prob * 2^32 is exact (a power-of-two scaling), so its ceiling is the
  // integer threshold; rounding can leave a probability a hair below 0,
  // which never accepts either way.
  rows_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double t = std::ceil(prob[i] * 0x1.0p32);
    rows_[i].threshold = t <= 0 ? 0 : static_cast<std::uint64_t>(t);
    rows_[i].alias = alias[i];
  }
}

}  // namespace tokyonet::stats
