// Exact order statistics over raw samples.
//
// The runtime's util::log_histogram keeps factor-2 buckets, which cannot
// show a 20% change, so every percentile the benchmark reports is an
// actual sample picked by nearest rank.  Percentiles are written as exact
// fractions (num/den) so the rank never suffers floating-point rounding:
// p99 of 1000 samples is rank 990, not 989 or 991.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

namespace pb {

struct fraction {
  std::uint64_t num = 1;
  std::uint64_t den = 2;
  double value() const { return static_cast<double>(num) / den; }
};

// 1-based nearest rank of the num/den quantile of n samples:
// ceil(n * num / den), clamped to [1, n].  n must be > 0.
inline std::size_t nearest_rank(std::size_t n, fraction q) {
  const std::uint64_t r = (static_cast<std::uint64_t>(n) * q.num + q.den - 1) / q.den;
  return static_cast<std::size_t>(std::clamp<std::uint64_t>(r, 1, n));
}

// The q quantile of an ascending-sorted, non-empty sample.
inline double quantile_sorted(const std::vector<double>& sorted, fraction q) {
  return sorted[nearest_rank(sorted.size(), q) - 1];
}

// Samples ranked after the q quantile's rank.
inline std::size_t samples_beyond(std::size_t n, fraction q) {
  return n - nearest_rank(n, q);
}

// Median of an unsorted sample (nearest rank, so always a real sample);
// 0 for an empty one.
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return quantile_sorted(v, {1, 2});
}

struct tail_point {
  fraction q;
  double value = 0.0;
  std::size_t beyond = 0;  // samples ranked after it
  std::size_t count = 0;   // samples in the distribution
};

// The highest of p90, p99, p99.9, ... that still has at least
// `min_beyond` samples ranked after it; nullopt when even p90 has fewer.
inline std::optional<tail_point> highest_supported_tail(
    const std::vector<double>& sorted, std::size_t min_beyond = 10) {
  std::optional<tail_point> best;
  fraction q{9, 10};
  for (int step = 0; step < 6; ++step) {
    const std::size_t n = sorted.size();
    if (n == 0 || samples_beyond(n, q) < min_beyond) break;
    best = tail_point{q, quantile_sorted(sorted, q), samples_beyond(n, q), n};
    q = fraction{q.num * 10 + 9, q.den * 10};
  }
  return best;
}

}  // namespace pb
