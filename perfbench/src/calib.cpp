#include "calib.h"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "stats.h"

namespace perfbench {

namespace {

volatile double g_sink = 0.0;

constexpr int kDenseOrder = 256;
constexpr std::size_t kWindowDoubles = (1u << 20) / sizeof(double);

// Right-looking dense Cholesky of a fixed diagonally dominant n x n
// matrix, column-major: sqrt, a column of divides, then axpy updates.
double dense_cholesky(std::vector<double>& a, int n) {
  for (int j = 0; j < n; ++j)
    for (int i = 0; i < n; ++i) a[i + n * j] = i == j ? n + 1.0 : 1.0 / (1 + i + j);
  for (int k = 0; k < n; ++k) {
    const double d = std::sqrt(a[k + n * k]);
    a[k + n * k] = d;
    for (int i = k + 1; i < n; ++i) a[i + n * k] /= d;
    for (int j = k + 1; j < n; ++j) {
      const double l = a[j + n * k];
      for (int i = j; i < n; ++i) a[i + n * j] -= a[i + n * k] * l;
    }
  }
  return a[static_cast<std::size_t>(n) * n - 1];
}

// Two streaming passes over the window with four accumulators.
double l2_stream(const std::vector<double>& v) {
  double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
  for (int pass = 0; pass < 2; ++pass)
    for (std::size_t i = 0; i + 3 < v.size(); i += 4) {
      a0 += v[i] * 1.0000001;
      a1 += v[i + 1] * 0.9999999;
      a2 += v[i + 2] * 1.0000002;
      a3 += v[i + 3] * 0.9999998;
    }
  return a0 + a1 + a2 + a3;
}

}  // namespace

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::vector<double> bracketing_slices(std::span<const double> start,
                                      std::span<const double> ms, double t0,
                                      double t1, int per_side) {
  // Slices are in time order and do not overlap, so their ends are
  // sorted too: the last per_side ending at or before t0, the first
  // per_side starting at or after t1.
  const std::size_t n = start.size();
  std::size_t lo = 0, hi = n;  // first slice ending after t0
  while (lo < hi) {
    const std::size_t mid = (lo + hi) / 2;
    if (start[mid] + ms[mid] <= t0) lo = mid + 1;
    else hi = mid;
  }
  std::vector<double> out;
  for (std::size_t i = lo, k = 0; i > 0 && k < static_cast<std::size_t>(per_side); --i, ++k)
    out.push_back(ms[i - 1]);
  const std::size_t after = static_cast<std::size_t>(
      std::lower_bound(start.begin(), start.end(), t1) - start.begin());
  for (std::size_t i = after, k = 0; i < n && k < static_cast<std::size_t>(per_side); ++i, ++k)
    out.push_back(ms[i]);
  return out;
}

double normalize(double raw, std::span<const double> bracket, double ref_ms) {
  if (bracket.empty()) return raw;
  return raw * ref_ms / median({bracket.begin(), bracket.end()});
}

Calibrator::Calibrator()
    : window_(kWindowDoubles), dense_(static_cast<std::size_t>(kDenseOrder) * kDenseOrder) {
  for (std::size_t i = 0; i < window_.size(); ++i)
    window_[i] = 1.0 + static_cast<double>(i % 7) * 0.125;
  // Warm the buffers and the code before the first recorded slice.
  for (int i = 0; i < 3; ++i) slice();
  start_.clear();
  ms_.clear();
  parts_.clear();
}

double Calibrator::slice() {
  std::array<double, kParts> parts{};
  const double t0 = now_ms();
  double t = t0;
  auto lap = [&](std::size_t k) {
    const double now = now_ms();
    parts[k] = now - t;
    t = now;
  };
  g_sink = g_sink + dense_cholesky(dense_, kDenseOrder);
  lap(0);
  g_sink = g_sink + l2_stream(window_);
  lap(1);
  start_.push_back(t0);
  ms_.push_back(t - t0);
  parts_.push_back(parts);
  last_end_ = t;
  return t - t0;
}

void Calibrator::maybe_slice() {
  if (now_ms() - last_end_ >= kSliceEveryMs) slice();
}

double Calibrator::scale(double t0, double t1) const {
  return normalize(1.0, bracketing_slices(start_, ms_, t0, t1, kBracketPerSide),
                   kRefSliceMs);
}

}  // namespace perfbench
