#include "oracle.h"

#include <algorithm>
#include <cmath>
#include <vector>

namespace perfbench {

namespace {

double inf_norm(std::span<const double> v) {
  double m = 0.0;
  for (const double x : v) m = std::max(m, std::abs(x));
  return m;
}

double relative(const std::vector<double>& r, const std::vector<double>& row_abs,
                std::span<const double> x, std::span<const double> b) {
  double num = 0.0;
  for (const double v : r) num = std::max(num, std::abs(v));
  if (!std::isfinite(num)) return num;
  const double den =
      *std::max_element(row_abs.begin(), row_abs.end()) * inf_norm(x) + inf_norm(b);
  return den > 0.0 ? num / den : num;
}

}  // namespace

double sym_residual(const sympiler::CscMatrix& a, std::span<const double> x,
                    std::span<const double> b) {
  const auto n = static_cast<std::size_t>(a.cols());
  std::vector<double> r(b.begin(), b.end());
  std::vector<double> row_abs(n, 0.0);
  for (std::size_t j = 0; j < n; ++j)
    for (auto p = static_cast<std::size_t>(a.colptr[j]); p < static_cast<std::size_t>(a.colptr[j + 1]); ++p) {
      const auto i = static_cast<std::size_t>(a.rowind[p]);
      const double v = a.values[p];
      r[i] -= v * x[j];
      row_abs[i] += std::abs(v);
      if (i != j) {
        r[j] -= v * x[i];
        row_abs[j] += std::abs(v);
      }
    }
  return relative(r, row_abs, x, b);
}

double lower_residual(const sympiler::CscMatrix& l, std::span<const double> x,
                      std::span<const double> b) {
  const auto n = static_cast<std::size_t>(l.cols());
  std::vector<double> r(b.begin(), b.end());
  std::vector<double> row_abs(n, 0.0);
  for (std::size_t j = 0; j < n; ++j)
    for (auto p = static_cast<std::size_t>(l.colptr[j]); p < static_cast<std::size_t>(l.colptr[j + 1]); ++p) {
      const auto i = static_cast<std::size_t>(l.rowind[p]);
      r[i] -= l.values[p] * x[j];
      row_abs[i] += std::abs(l.values[p]);
    }
  return relative(r, row_abs, x, b);
}

}  // namespace perfbench
