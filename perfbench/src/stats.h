// Order statistics used by every metric the benchmark reports.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "util/stats.h"

namespace perfbench {

/// Median of `v` (mean of the middle pair for even sizes); 0 when empty.
using sympiler::median;

/// Samples a tail must leave above it (choosing-metrics rule: the highest
/// percentile with at least ten samples beyond it).
inline constexpr std::size_t kTailBeyond = 10;

/// The tail of a sample set: the largest order statistic that still has
/// kTailBeyond samples above it, with the percentile level it stands for.
/// With too few samples there is no such statistic; the maximum is
/// reported instead and `resolved` is false.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;  ///< share of samples at or below value, in %
  std::size_t samples = 0;
  bool resolved = false;
};

inline Tail tail(std::vector<double> v) {
  Tail t;
  t.samples = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  const std::size_t idx = n > kTailBeyond ? n - 1 - kTailBeyond : n - 1;
  t.value = v[idx];
  t.percentile = 100.0 * static_cast<double>(idx + 1) / static_cast<double>(n);
  t.resolved = n > kTailBeyond;
  return t;
}

}  // namespace perfbench
