// Descriptive statistics: means, medians, percentiles, growth rates.
#pragma once

#include <span>
#include <vector>

namespace tokyonet::stats {

/// Arithmetic mean; 0 for an empty span.
[[nodiscard]] double mean(std::span<const double> xs) noexcept;

/// Unbiased sample variance; 0 for fewer than two values.
[[nodiscard]] double variance(std::span<const double> xs) noexcept;

/// Square root of variance(), the sample standard deviation.
[[nodiscard]] double stddev(std::span<const double> xs) noexcept;

/// p-th percentile (p in [0,100]) of *sorted* data, with linear
/// interpolation between closest ranks. 0 for an empty span.
[[nodiscard]] double percentile_sorted(std::span<const double> sorted,
                                       double p) noexcept;

/// p-th percentile of unsorted data (copies and sorts).
[[nodiscard]] double percentile(std::span<const double> xs, double p);

/// Median of unsorted data.
[[nodiscard]] double median(std::span<const double> xs);

/// Summary bundle for one metric.
struct Summary {
  std::size_t n = 0;
  double mean = 0;
  double median = 0;
  double p05 = 0;
  double p95 = 0;
  double min = 0;
  double max = 0;
};

[[nodiscard]] Summary summarize(std::span<const double> xs);

/// Geometric annual growth rate between the first and last value of a
/// yearly series: (last/first)^(1/(n-1)) - 1. This reproduces the AGR
/// column of the paper's Table 3 (e.g. 57.9 -> 126.5 over 2013-2015 gives
/// 48%). Returns 0 if the series is shorter than 2 or first <= 0.
[[nodiscard]] double annual_growth_rate(std::span<const double> yearly) noexcept;

/// Ordinary least-squares fit y = intercept + slope * x.
struct LinearFit {
  double slope = 0;
  double intercept = 0;
  double r2 = 0;
};

[[nodiscard]] LinearFit linear_fit(std::span<const double> xs,
                                   std::span<const double> ys) noexcept;

}  // namespace tokyonet::stats
