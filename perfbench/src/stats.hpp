#pragma once
/// \file stats.hpp
/// Order statistics of the benchmark: interpolated percentiles, the
/// quartiles the run-to-run spread is judged by, and the rule for the
/// highest percentile a sample can resolve (at least `tail` samples must
/// lie beyond it, so a p99 needs 1000 samples).

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <vector>

namespace perfbench {

/// Percentile `p` (0..100) of an ascending-sorted sample, linearly
/// interpolated between closest ranks: position p/100 * (n - 1). This is
/// numpy's default and Python's statistics.quantiles(method="inclusive").
inline double percentile_sorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) throw std::invalid_argument("percentile of no samples");
  if (p < 0.0 || p > 100.0) throw std::invalid_argument("percentile range");
  const double pos = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

/// The highest of 50, 90, 99, 99.9, 99.99 that leaves at least `tail`
/// samples of `n` beyond it, or 0 when even the median does not.
inline double highest_resolved_percentile(std::size_t n, std::size_t tail = 10) {
  double best = 0.0;
  for (const double p : {50.0, 90.0, 99.0, 99.9, 99.99}) {
    const double beyond = static_cast<double>(n) * (1.0 - p / 100.0);
    if (beyond + 1e-9 >= static_cast<double>(tail)) best = p;
  }
  return best;
}

/// Median, quartiles and p99 of one sample, with its size.
struct Summary {
  std::size_t count = 0;
  double p50 = 0.0;
  double q1 = 0.0;
  double q3 = 0.0;
  double p99 = 0.0;
  /// Whether `count` resolves p99 (highest_resolved_percentile >= 99).
  bool p99_resolved = false;
};

inline Summary summarize(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  Summary s;
  s.count = values.size();
  s.p50 = percentile_sorted(values, 50.0);
  s.q1 = percentile_sorted(values, 25.0);
  s.q3 = percentile_sorted(values, 75.0);
  s.p99 = percentile_sorted(values, 99.0);
  s.p99_resolved = highest_resolved_percentile(s.count) >= 99.0;
  return s;
}

inline double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return percentile_sorted(values, 50.0);
}

}  // namespace perfbench
