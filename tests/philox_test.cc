#include "stats/philox.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <set>
#include <span>
#include <vector>

#include "app/catalog.h"
#include "core/scenario.h"
#include "stats/tables.h"

namespace tokyonet::stats {
namespace {

// ---------------------------------------------------------------------------
// Philox4x32-10 block function: known-answer vectors from the Random123
// distribution (kat_vectors.txt, philox4x32-10). Any change to the round
// count, multipliers, or Weyl constants breaks these.

TEST(Philox, KnownAnswerZeros) {
  const std::array<std::uint32_t, 4> out =
      philox4x32({0u, 0u, 0u, 0u}, {0u, 0u});
  EXPECT_EQ(out[0], 0x6627e8d5u);
  EXPECT_EQ(out[1], 0xe169c58du);
  EXPECT_EQ(out[2], 0xbc57ac4cu);
  EXPECT_EQ(out[3], 0x9b00dbd8u);
}

TEST(Philox, KnownAnswerOnes) {
  const std::array<std::uint32_t, 4> out = philox4x32(
      {0xffffffffu, 0xffffffffu, 0xffffffffu, 0xffffffffu},
      {0xffffffffu, 0xffffffffu});
  EXPECT_EQ(out[0], 0x408f276du);
  EXPECT_EQ(out[1], 0x41c83b0eu);
  EXPECT_EQ(out[2], 0xa20bc7c6u);
  EXPECT_EQ(out[3], 0x6d5451fdu);
}

TEST(Philox, KnownAnswerPiDigits) {
  const std::array<std::uint32_t, 4> out = philox4x32(
      {0x243f6a88u, 0x85a308d3u, 0x13198a2eu, 0x03707344u},
      {0xa4093822u, 0x299f31d0u});
  EXPECT_EQ(out[0], 0xd16cfe09u);
  EXPECT_EQ(out[1], 0x94fdccebu);
  EXPECT_EQ(out[2], 0x5001e420u);
  EXPECT_EQ(out[3], 0x24126ea1u);
}

TEST(Philox, BlockIsConstexpr) {
  // The block function is constexpr so lane keys can be folded at
  // compile time where the coordinates are constants.
  constexpr std::array<std::uint32_t, 4> out =
      philox4x32({0u, 0u, 0u, 0u}, {0u, 0u});
  static_assert(out[0] == 0x6627e8d5u);
  EXPECT_EQ(out[3], 0x9b00dbd8u);
}

TEST(PhiloxRng, BatchingPreservesSlotOrder) {
  // On-demand refills must serve the same sequence as a slot-wise
  // reconstruction from the raw block function: two u64s per slot, low
  // half (words 1:0) before high half (words 3:2).
  PhiloxRng rng(20150228, 41, 7);
  const std::array<std::uint32_t, 2> key = PhiloxRng::derive_key(20150228);
  for (std::uint32_t slot = 0; slot < 64; ++slot) {
    const std::array<std::uint32_t, 4> x =
        philox4x32({41u, 7u, slot, 0x746F6B79u}, key);
    ASSERT_EQ(rng.next_u64(), (std::uint64_t{x[1]} << 32) | x[0]) << slot;
    ASSERT_EQ(rng.next_u64(), (std::uint64_t{x[3]} << 32) | x[2]) << slot;
  }
}

// ---------------------------------------------------------------------------
// Stream addressing: the whole point of the counter-based scheme is that
// a draw is a pure function of (seed, stream, lane, slot).

TEST(PhiloxRng, SameCoordinatesReproduce) {
  PhiloxRng a(20150228, 41, 7);
  PhiloxRng b(20150228, 41, 7);
  for (int i = 0; i < 64; ++i) {
    ASSERT_EQ(a.next_u64(), b.next_u64()) << "slot " << i;
  }
}

TEST(PhiloxRng, DistinctCoordinatesDecorrelate) {
  // Different seed, stream, or lane must each give a different sequence.
  PhiloxRng base(1, 2, 3);
  PhiloxRng seed(2, 2, 3);
  PhiloxRng stream(1, 3, 3);
  PhiloxRng lane(1, 2, 4);
  int same_seed = 0, same_stream = 0, same_lane = 0;
  for (int i = 0; i < 64; ++i) {
    const std::uint64_t v = base.next_u64();
    same_seed += v == seed.next_u64();
    same_stream += v == stream.next_u64();
    same_lane += v == lane.next_u64();
  }
  EXPECT_EQ(same_seed, 0);
  EXPECT_EQ(same_stream, 0);
  EXPECT_EQ(same_lane, 0);
}

TEST(PhiloxRng, LateStreamNeedsNoPriorDraws) {
  // Stream 999's draws are identical whether or not other streams were
  // ever touched — no shared state, so device blocks can be generated
  // in any grouping.
  PhiloxRng direct(77, 999, 5);
  std::vector<std::uint64_t> expect;
  for (int i = 0; i < 8; ++i) expect.push_back(direct.next_u64());

  for (std::uint32_t s = 0; s < 999; ++s) {
    PhiloxRng other(77, s, 5);
    (void)other.next_u64();
  }
  PhiloxRng again(77, 999, 5);
  for (int i = 0; i < 8; ++i) {
    ASSERT_EQ(again.next_u64(), expect[static_cast<std::size_t>(i)]);
  }
}

// ---------------------------------------------------------------------------
// Transform sanity. These are moment checks with generous tolerances —
// they catch transposed constants and broken scaling, not subtle bias.

TEST(PhiloxRng, UniformInUnitInterval) {
  PhiloxRng rng(3, 0, 0);
  double sum = 0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / kN, 0.5, 0.01);
}

TEST(PhiloxRng, UniformOpenIsInterior) {
  PhiloxRng rng(4, 0, 0);
  for (int i = 0; i < 20000; ++i) {
    const double u = rng.uniform_open();
    ASSERT_GT(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
}

TEST(PhiloxRng, NormalMoments) {
  PhiloxRng rng(5, 0, 0);
  constexpr int kN = 50000;
  double sum = 0, sq = 0;
  for (int i = 0; i < kN; ++i) {
    const double x = rng.normal(10.0, 3.0);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / kN;
  const double var = sq / kN - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.1);
  EXPECT_NEAR(std::sqrt(var), 3.0, 0.1);
}

TEST(PhiloxRng, InverseNormalCdfRoundTrip) {
  // Phi(Phi^-1(p)) == p within Acklam's stated error, across the
  // central region and both rational-approximation tails.
  for (const double p : {1e-6, 0.001, 0.02, 0.02425, 0.1, 0.25, 0.5, 0.75,
                         0.9, 0.97575, 0.999, 1.0 - 1e-6}) {
    const double x = PhiloxRng::inverse_normal_cdf(p);
    const double back = 0.5 * std::erfc(-x / std::sqrt(2.0));
    EXPECT_NEAR(back, p, 1e-6) << "p = " << p;
  }
  EXPECT_NEAR(PhiloxRng::inverse_normal_cdf(0.5), 0.0, 1e-9);
  EXPECT_LT(PhiloxRng::inverse_normal_cdf(0.01), 0.0);
  EXPECT_GT(PhiloxRng::inverse_normal_cdf(0.99), 0.0);
}

TEST(PhiloxRng, PoissonExactBelowCutoff) {
  // Below kPoissonInversionCutoffMean the CDF walk is exact: check the
  // mean and that mean 0 degenerates to 0.
  PhiloxRng rng(6, 0, 0);
  EXPECT_EQ(rng.poisson(0.0), 0u);
  constexpr int kN = 40000;
  for (const double mean : {0.3, 4.0, 25.0}) {
    std::uint64_t sum = 0;
    for (int i = 0; i < kN; ++i) sum += rng.poisson(mean);
    const double got = static_cast<double>(sum) / kN;
    // SE of the sample mean is sqrt(mean / kN); 6 sigma keeps this
    // deterministic-seed test far from flaking.
    EXPECT_NEAR(got, mean, 6.0 * std::sqrt(mean / kN)) << "mean " << mean;
  }
}

TEST(PhiloxRng, PoissonContinuousAcrossCutoff) {
  // The exact walk just below the cutoff and the rounded normal just
  // above must agree on the sample mean — a discontinuity here would
  // show up as a kink in scan-count densities.
  constexpr int kN = 60000;
  PhiloxRng below(7, 0, 0);
  PhiloxRng above(7, 1, 0);
  const double lo = kPoissonInversionCutoffMean - 0.5;
  const double hi = kPoissonInversionCutoffMean + 0.5;
  std::uint64_t sum_lo = 0, sum_hi = 0;
  for (int i = 0; i < kN; ++i) {
    sum_lo += below.poisson(lo);
    sum_hi += above.poisson(hi);
  }
  const double mean_lo = static_cast<double>(sum_lo) / kN;
  const double mean_hi = static_cast<double>(sum_hi) / kN;
  EXPECT_NEAR(mean_lo, lo, 0.2);
  EXPECT_NEAR(mean_hi, hi, 0.2);
  EXPECT_NEAR(mean_hi - mean_lo, 1.0, 0.4);
}

TEST(PhiloxRng, BinomialBoundsAndMoments) {
  PhiloxRng rng(8, 0, 0);
  EXPECT_EQ(rng.binomial(0, 0.7), 0u);
  EXPECT_EQ(rng.binomial(12, 0.0), 0u);
  EXPECT_EQ(rng.binomial(12, 1.0), 12u);
  constexpr int kN = 40000;
  constexpr unsigned n = 24;
  constexpr double p = 0.2;
  std::uint64_t sum = 0;
  for (int i = 0; i < kN; ++i) {
    const unsigned k = rng.binomial(n, p);
    ASSERT_LE(k, n);
    sum += k;
  }
  const double got = static_cast<double>(sum) / kN;
  EXPECT_NEAR(got, n * p, 6.0 * std::sqrt(n * p * (1 - p) / kN));
}

// ---------------------------------------------------------------------------
// The transforms the set-up draws (population, deployment, survey) use,
// over several seeds. The `Rng` and `RngMoments` suites keep the names
// they had when a sequential generator served those draws.

TEST(Rng, DeterministicGivenSeed) {
  PhiloxRng a(42, 0, 0), b(42, 0, 0);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  PhiloxRng a(1, 0, 0), b(2, 0, 0);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += a.next_u64() == b.next_u64();
  EXPECT_EQ(same, 0);
}

class RngMoments : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RngMoments, UniformInUnitIntervalWithCorrectMean) {
  PhiloxRng rng(GetParam(), 0, 0);
  double sum = 0;
  for (int i = 0; i < 20000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 20000, 0.5, 0.02);
}

TEST_P(RngMoments, NormalMeanAndVariance) {
  PhiloxRng rng(GetParam(), 0, 0);
  double sum = 0, ss = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal(3.0, 2.0);
    sum += x;
    ss += x * x;
  }
  const double mean = sum / n;
  const double var = ss / n - mean * mean;
  EXPECT_NEAR(mean, 3.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.3);
}

TEST_P(RngMoments, LognormalMedian) {
  PhiloxRng rng(GetParam(), 0, 0);
  std::vector<double> xs;
  for (int i = 0; i < 20001; ++i) xs.push_back(rng.lognormal(2.0, 0.5));
  std::nth_element(xs.begin(), xs.begin() + 10000, xs.end());
  EXPECT_NEAR(xs[10000], std::exp(2.0), 0.3);
}

TEST_P(RngMoments, ExponentialMean) {
  PhiloxRng rng(GetParam(), 0, 0);
  double sum = 0;
  for (int i = 0; i < 20000; ++i) sum += rng.exponential(2.0);
  EXPECT_NEAR(sum / 20000, 0.5, 0.03);
}

TEST_P(RngMoments, PoissonMean) {
  PhiloxRng rng(GetParam(), 0, 0);
  double small = 0, large = 0;
  for (int i = 0; i < 20000; ++i) {
    small += rng.poisson(3.0);
    large += rng.poisson(80.0);  // normal-approximation branch
  }
  EXPECT_NEAR(small / 20000, 3.0, 0.1);
  EXPECT_NEAR(large / 20000, 80.0, 0.5);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RngMoments,
                         ::testing::Values(1ull, 42ull, 20150228ull,
                                           0xDEADBEEFull));

TEST(Rng, UniformIntCoversRange) {
  PhiloxRng rng(9, 0, 0);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t v = rng.uniform_int(7);
    ASSERT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, BernoulliEdgeCases) {
  PhiloxRng rng(9, 0, 0);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, CategoricalRespectsWeights) {
  PhiloxRng rng(11, 0, 0);
  const double w[] = {1.0, 0.0, 3.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 10000; ++i) ++counts[rng.categorical(w)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.35);
  // A single positive weight is always drawn, wherever it sits.
  const double last[] = {0.0, 0.0, 2.0};
  const double first[] = {2.0, 0.0, 0.0};
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(rng.categorical(last), 2u);
    EXPECT_EQ(rng.categorical(first), 0u);
  }
}

TEST(Rng, ParetoAboveScale) {
  // Pareto(xm, alpha) is at least xm, with median xm * 2^(1 / alpha).
  PhiloxRng rng(17, 0, 0);
  std::vector<double> xs;
  for (int i = 0; i < 20001; ++i) {
    xs.push_back(rng.pareto(2.0, 1.5));
    ASSERT_GE(xs.back(), 2.0);
  }
  std::nth_element(xs.begin(), xs.begin() + 10000, xs.end());
  EXPECT_NEAR(xs[10000], 2.0 * std::pow(2.0, 1.0 / 1.5), 0.1);
}

// ---------------------------------------------------------------------------
// Precomputed draw tables: O(1) hot-path categorical draws.

TEST(AliasTable, MatchesWeights) {
  const std::vector<double> weights{1.0, 3.0, 0.0, 6.0};
  const AliasTable table(weights);
  ASSERT_EQ(table.size(), weights.size());
  PhiloxRng rng(9, 0, 0);
  std::array<int, 4> counts{};
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) {
    const std::size_t k = table.draw(rng);
    ASSERT_LT(k, weights.size());
    ++counts[k];
  }
  EXPECT_EQ(counts[2], 0);  // zero weight never drawn
  EXPECT_NEAR(counts[0] / double(kN), 0.1, 0.01);
  EXPECT_NEAR(counts[1] / double(kN), 0.3, 0.01);
  EXPECT_NEAR(counts[3] / double(kN), 0.6, 0.01);
}

// ---------------------------------------------------------------------------
// Draw identity: the table draws and uniform_int resolve a 32-bit counter
// value with integer arithmetic. Each must return exactly what the double
// formula it replaced returned — the campaigns were generated with those
// — so the references below are verbatim copies of the old formulas, and
// the inputs are every row and knot boundary +-1 plus 10^6 random u32.

// The double-precision Walker table the integer AliasTable replaced.
struct DoubleAliasTable {
  std::vector<double> prob;
  std::vector<std::uint32_t> alias;

  explicit DoubleAliasTable(std::span<const double> weights) {
    const std::size_t n = weights.size();
    double total = 0;
    for (double w : weights) total += w;
    prob.assign(n, 0.0);
    alias.assign(n, 0);
    std::vector<double> scaled(n);
    std::vector<std::uint32_t> small, large;
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
    for (const std::uint32_t i : large) prob[i] = 1.0;
    for (const std::uint32_t i : small) prob[i] = 1.0;
  }

  [[nodiscard]] std::size_t draw(std::uint32_t u) const {
    const double x =
        static_cast<double>(u) * 0x1.0p-32 * static_cast<double>(prob.size());
    const auto row = static_cast<std::size_t>(x);
    const double frac = x - static_cast<double>(row);
    return frac < prob[row] ? row : alias[row];
  }
};

// The double-precision quantile interpolation LognormalTable and
// NormalTable used, over knots built the same way.
std::vector<double> reference_knots(double mu, double sigma, bool log_normal) {
  std::vector<double> q(QuantileTable::kKnots);
  for (std::size_t i = 0; i < q.size(); ++i) {
    const double p =
        (static_cast<double>(i) + 0.5) / static_cast<double>(q.size());
    const double z = mu + sigma * PhiloxRng::inverse_normal_cdf(p);
    q[i] = log_normal ? std::exp(z) : z;
  }
  return q;
}

double reference_quantile_draw(const std::vector<double>& q, std::uint32_t u) {
  const double x = static_cast<double>(u) * 0x1.0p-32 *
                       static_cast<double>(q.size()) -
                   0.5;
  if (x <= 0) return q.front();
  const auto i = static_cast<std::size_t>(x);
  if (i + 1 >= q.size()) return q.back();
  const double frac = x - static_cast<double>(i);
  return q[i] + frac * (q[i + 1] - q[i]);
}

std::uint64_t reference_uniform_int(std::uint32_t u, std::uint64_t n) {
  return static_cast<std::uint64_t>(static_cast<double>(u) * 0x1.0p-32 *
                                    static_cast<double>(n));
}

// Makes `u` the next next_u32() of `rng`: reseat() serves prefilled
// blocks verbatim, so any counter value can be fed to a draw.
PhiloxRng& feed(PhiloxRng& rng, std::uint32_t u) {
  const std::uint64_t block[2] = {u, 0};
  rng.reseat(0, 0, block, 1);
  return rng;
}

// The u32s within 2 of the real number x = k * 2^32 / n-style boundary
// (clamped to the u32 range).
void add_around(std::vector<std::uint32_t>& out, double x) {
  const double base = std::floor(x);
  for (double d = -2; d <= 2; ++d) {
    const double v = base + d;
    if (v >= 0 && v <= 0xFFFFFFFFp0) out.push_back(static_cast<std::uint32_t>(v));
  }
}

// 10^6 counter values from a fixed stream, plus both ends of the range.
std::vector<std::uint32_t> random_u32s() {
  PhiloxRng rng(0xD1CE, 0, 0);
  std::vector<std::uint32_t> out{0u, 0xFFFFFFFFu};
  for (int i = 0; i < 1000000; ++i) out.push_back(rng.next_u32());
  return out;
}

void expect_alias_identity(std::span<const double> weights) {
  const AliasTable table(weights);
  const DoubleAliasTable ref(weights);
  const double n = static_cast<double>(weights.size());
  std::vector<std::uint32_t> probes = random_u32s();
  for (std::size_t r = 0; r <= weights.size(); ++r) {
    add_around(probes, static_cast<double>(r) * 0x1.0p32 / n);
    if (r < weights.size()) {
      add_around(probes, (static_cast<double>(r) + ref.prob[r]) * 0x1.0p32 / n);
    }
  }
  PhiloxRng rng(0, 0, 0);
  for (const std::uint32_t u : probes) {
    ASSERT_EQ(table.draw(feed(rng, u)), ref.draw(u)) << "u = " << u;
  }
}

void expect_quantile_identity(const QuantileTable& table, double mu,
                              double sigma, bool log_normal) {
  const std::vector<double> knots = reference_knots(mu, sigma, log_normal);
  std::vector<std::uint32_t> probes = random_u32s();
  for (std::size_t i = 0; i <= knots.size(); ++i) {
    add_around(probes, (static_cast<double>(i) + 0.5) * 0x1.0p20);
  }
  PhiloxRng rng(0, 0, 0);
  for (const std::uint32_t u : probes) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(table.draw(feed(rng, u))),
              std::bit_cast<std::uint64_t>(reference_quantile_draw(knots, u)))
        << "u = " << u;
  }
}

TEST(DrawIdentity, SimulatorAliasTablesMatchDoubleFormula) {
  // Every alias table the simulator builds: AppMixer's five per-context
  // category tables for each year, and its categories-per-bin table.
  for (const Year year : {Year::Y2013, Year::Y2014, Year::Y2015}) {
    for (int c = 0; c < app::kNumContexts; ++c) {
      SCOPED_TRACE(testing::Message() << "year " << static_cast<int>(year)
                                      << " context " << c);
      expect_alias_identity(
          app::category_weights(year, static_cast<app::Context>(c)));
    }
  }
  expect_alias_identity(app::kCategoryCountWeights);
  // A zero weight, and an odd row count that leaves inexact thresholds.
  expect_alias_identity(std::vector<double>{1.0, 3.0, 0.0, 6.0});
  expect_alias_identity(std::vector<double>{0.1, 0.7, 0.13, 0.07, 2.9});
}

TEST(DrawIdentity, QuantileTablesMatchDoubleFormula) {
  // The simulator's tables: tx-ratio and activity jitter (lognormal),
  // RSSI fast fading (normal).
  expect_quantile_identity(LognormalTable(0.0, 0.5), 0.0, 0.5, true);
  expect_quantile_identity(LognormalTable(0.0, 0.35), 0.0, 0.35, true);
  expect_quantile_identity(NormalTable(0.0, 1.5), 0.0, 1.5, false);
}

TEST(DrawIdentity, UniformIntMatchesDoubleFormula) {
  const std::vector<std::uint32_t> random = random_u32s();
  PhiloxRng rng(0, 0, 0);
  for (const std::uint64_t n :
       {std::uint64_t{1}, std::uint64_t{2}, std::uint64_t{3}, std::uint64_t{10},
        std::uint64_t{13}, std::uint64_t{78}, std::uint64_t{1000003},
        kMaxExactDrawRange - 1, kMaxExactDrawRange}) {
    std::vector<std::uint32_t> probes = random;
    for (std::uint64_t k = 0; k <= n; ++k) {
      add_around(probes, static_cast<double>(k) * 0x1.0p32 /
                             static_cast<double>(n));
    }
    for (const std::uint32_t u : probes) {
      ASSERT_EQ(feed(rng, u).uniform_int(n), reference_uniform_int(u, n))
          << "n = " << n << ", u = " << u;
    }
  }
}

TEST(DrawIdentity, BinomialCdfTableMatchesBinomial) {
  // The table answers from precomputed partial sums what binomial()
  // walks per draw: same value and same counter consumption for every
  // n, below the table's bound and past it, and for degenerate p.
  constexpr unsigned kTableN = 64;
  for (const double p : {0.044, 0.1, 0.2, 0.286, 0.5, 0.93, 0.0, 1.0}) {
    const BinomialCdfTable table(p, kTableN);
    PhiloxRng a(11, 3, 5);
    PhiloxRng b(11, 3, 5);
    for (int i = 0; i < 200000; ++i) {
      const auto n = static_cast<unsigned>(i % (kTableN + 20));
      ASSERT_EQ(table.draw(a, n), b.binomial(n, p))
          << "p = " << p << ", n = " << n << ", draw " << i;
    }
    ASSERT_EQ(a.next_u64(), b.next_u64()) << "p = " << p;
  }
}

TEST(DrawIdentity, FillMatchesScalarBlocks) {
  // philox4x32_fill is a throughput kernel, not a different function:
  // the dispatched path (AVX2 where the host has it) and the portable
  // loop must both emit philox4x32's words for every (lane, slot),
  // including batches that are not a multiple of eight blocks and lane
  // counters that wrap.
  const std::array<std::uint32_t, 2> key = PhiloxRng::derive_key(20150228);
  for (const std::uint32_t lanes : {1u, 5u, 8u, 9u, 144u}) {
    for (const std::uint32_t slots : {1u, 2u, 3u, 4u}) {
      for (const std::uint32_t lane0 : {0u, 3744u, 0xFFFFFFF0u}) {
        const std::size_t n = std::size_t{lanes} * slots;
        std::vector<std::uint64_t> fast(2 * n), portable(2 * n);
        philox4x32_fill(key, 41, lane0, lanes, slots, fast.data());
        philox4x32_fill_portable(key, 41, lane0, lanes, slots,
                                 portable.data());
        for (std::uint32_t i = 0; i < lanes; ++i) {
          for (std::uint32_t s = 0; s < slots; ++s) {
            const std::array<std::uint32_t, 4> x = philox4x32(
                {41u, lane0 + i, s, PhiloxRng::kDomainTag}, key);
            const std::size_t at = 2 * (std::size_t{i} * slots + s);
            const std::uint64_t lo = (std::uint64_t{x[1]} << 32) | x[0];
            const std::uint64_t hi = (std::uint64_t{x[3]} << 32) | x[2];
            ASSERT_EQ(fast[at], lo) << lanes << "x" << slots << " @" << at;
            ASSERT_EQ(fast[at + 1], hi) << lanes << "x" << slots << " @" << at;
            ASSERT_EQ(portable[at], lo) << lanes << "x" << slots << " @" << at;
            ASSERT_EQ(portable[at + 1], hi)
                << lanes << "x" << slots << " @" << at;
          }
        }
      }
    }
  }
}

TEST(DrawIdentity, PrefilledReseatMatchesPlainReseat) {
  // A lane served from prefilled blocks continues with on-demand refills
  // at the next slot: the sequence is the plain reseat()'s whether the
  // lane stops inside the prefill or runs past it.
  const std::array<std::uint32_t, 2> key = PhiloxRng::derive_key(77);
  constexpr std::uint32_t kLanes = 12;
  for (std::uint32_t slots = 0; slots <= PhiloxRng::kMaxPrefillBlocks;
       ++slots) {
    std::vector<std::uint64_t> blocks(2 * kLanes * slots);
    philox4x32_fill(key, 5, 100, kLanes, slots, blocks.data());
    PhiloxRng prefilled(77, 0, 0);
    PhiloxRng plain(77, 0, 0);
    for (std::uint32_t i = 0; i < kLanes; ++i) {
      prefilled.reseat(5, 100 + i, blocks.data() + 2 * i * slots, slots);
      plain.reseat(5, 100 + i);
      // Mixed widths, as the simulator draws them; 3 * i draws reach
      // past every prefill depth on the later lanes.
      for (std::uint32_t d = 0; d < 3 * i; ++d) {
        if (d % 3 == 2) {
          ASSERT_EQ(prefilled.next_u64(), plain.next_u64()) << slots;
        } else {
          ASSERT_EQ(prefilled.next_u32(), plain.next_u32()) << slots;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Cache keying: a generator-version bump must change every scenario hash
// so cached campaigns regenerate instead of replaying stale draws.

TEST(RngVersion, BumpInvalidatesScenarioHash) {
  for (const Year year : {Year::Y2013, Year::Y2014, Year::Y2015}) {
    const ScenarioConfig c = scenario_config(year, 0.25);
    EXPECT_NE(scenario_hash(c, 1), scenario_hash(c, 2));
    EXPECT_NE(scenario_hash(c, kRngVersion),
              scenario_hash(c, kRngVersion + 1));
    // The default argument is the current version.
    EXPECT_EQ(scenario_hash(c), scenario_hash(c, kRngVersion));
  }
}

TEST(RngVersion, HashStillSeesConfigChanges) {
  // The version folds in on top of, not instead of, the config fields.
  ScenarioConfig c = scenario_config(Year::Y2014, 0.25);
  const std::uint64_t base = scenario_hash(c);
  c.seed += 1;
  EXPECT_NE(scenario_hash(c), base);
}

}  // namespace
}  // namespace tokyonet::stats
