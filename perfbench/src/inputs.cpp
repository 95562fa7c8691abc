#include "inputs.h"

#include <algorithm>
#include <functional>

#include "gen/generators.h"
#include "order/rcm.h"
#include "sparse/ops.h"

namespace perfbench {

using sympiler::gen::GridOrder;

std::uint64_t Rng::next() {
  std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::uint64_t derive(std::uint64_t seed, std::uint64_t purpose) {
  Rng r(seed * 0x2545f4914f6cdd1dull + purpose);
  return r.next();
}

namespace {

CscMatrix md_ordered(const CscMatrix& a) {
  const std::vector<index_t> perm = sympiler::order::minimum_degree(a);
  return sympiler::permute_symmetric_lower(a, perm);
}

using Make = std::function<CscMatrix(std::uint64_t)>;

std::vector<Problem> build(std::uint64_t seed, std::uint64_t purpose,
                           const std::vector<std::pair<std::string, Make>>& specs) {
  // Patterns and RHS columns are fixed per slot, so every seed does the
  // same symbolic and numeric work; the seed draws the values (and, in
  // churn, the op stream).
  std::vector<Problem> out;
  Rng rng(derive(seed, purpose));
  for (std::size_t i = 0; i < specs.size(); ++i) {
    Problem p;
    p.name = specs[i].first;
    p.a = specs[i].second(derive(purpose, i));
    perturb_values(p.a, rng.next(), p.a);
    p.rhs_col = p.a.cols() / 2;
    p.beta = column_pattern(p.a, p.rhs_col);
    out.push_back(std::move(p));
  }
  return out;
}

}  // namespace

std::vector<Problem> refactor_systems(std::uint64_t seed) {
  using namespace sympiler::gen;
  return build(seed, 1,
               {{"cbuckle_nd",
                 [](std::uint64_t s) {
                   return block_structural(68, 68, 3, s, GridOrder::NestedDissection);
                 }},
                {"strip_30x1000_natural",
                 [](std::uint64_t) {
                   return grid2d_laplacian(30, 1000, GridOrder::Natural);
                 }},
                {"gyro_32x32x3_natural", [](std::uint64_t s) {
                   return block_structural(32, 32, 3, s, GridOrder::Natural);
                 }}});
}

std::vector<Problem> churn_universe(std::uint64_t seed) {
  using namespace sympiler::gen;
  const auto nd = GridOrder::NestedDissection;
  const auto nat = GridOrder::Natural;
  return build(
      seed, 2,
      {{"grid2d_60x60_nd", [=](std::uint64_t) { return grid2d_laplacian(60, 60, nd); }},
       {"banded_8000_hb8", [](std::uint64_t s) { return banded_spd(8000, 8, s); }},
       {"block_30x30x3_nd", [=](std::uint64_t s) { return block_structural(30, 30, 3, s, nd); }},
       {"power_grid_2500_md", [](std::uint64_t s) { return md_ordered(power_grid(2500, 600, s)); }},
       {"block_24x24x3_md", [=](std::uint64_t s) { return md_ordered(block_structural(24, 24, 3, s, nat)); }},
       {"grid2d_90x90_nd", [=](std::uint64_t) { return grid2d_laplacian(90, 90, nd); }},
       {"banded_16000_hb4", [](std::uint64_t s) { return banded_spd(16000, 4, s); }},
       {"random_spd_2000_md", [](std::uint64_t s) { return md_ordered(random_spd(2000, 1.5, s)); }},
       {"block_40x40x3_nd", [=](std::uint64_t s) { return block_structural(40, 40, 3, s, nd); }},
       {"power_grid_4000_md", [](std::uint64_t s) { return md_ordered(power_grid(4000, 1000, s)); }},
       {"grid2d_120x120_nd", [=](std::uint64_t) { return grid2d_laplacian(120, 120, nd); }},
       {"banded_4000_hb16", [](std::uint64_t s) { return banded_spd(4000, 16, s); }},
       {"block_28x28x3_md", [=](std::uint64_t s) { return md_ordered(block_structural(28, 28, 3, s, nat)); }},
       {"grid2d_140x100_nd", [=](std::uint64_t) { return grid2d_laplacian(140, 100, nd); }},
       {"power_grid_3000_md", [](std::uint64_t s) { return md_ordered(power_grid(3000, 800, s)); }},
       {"banded_12000_hb6", [](std::uint64_t s) { return banded_spd(12000, 6, s); }},
       {"grid2d_80x160_nd", [=](std::uint64_t) { return grid2d_laplacian(80, 160, nd); }},
       {"block_32x32x3_md", [=](std::uint64_t s) { return md_ordered(block_structural(32, 32, 3, s, nat)); }},
       {"block_36x36x3_nd", [=](std::uint64_t s) { return block_structural(36, 36, 3, s, nd); }},
       {"grid2d_100x100_nd", [=](std::uint64_t) { return grid2d_laplacian(100, 100, nd); }}});
}

std::vector<Problem> restart_patterns(std::uint64_t seed) {
  using namespace sympiler::gen;
  const auto nd = GridOrder::NestedDissection;
  return build(seed, 3,
               {{"cbuckle_nd", [=](std::uint64_t s) { return block_structural(68, 68, 3, s, nd); }},
                {"grid3d_16_nd", [=](std::uint64_t) { return grid3d_laplacian(16, 16, 16, nd); }},
                {"block_50x50x3_nd", [=](std::uint64_t s) { return block_structural(50, 50, 3, s, nd); }},
                {"grid2d_120x120_nd", [=](std::uint64_t) { return grid2d_laplacian(120, 120, nd); }}});
}

ZipfStream::ZipfStream(std::uint64_t seed, std::size_t universe)
    : rng_(derive(seed, 4)), cdf_(universe) {
  double total = 0.0;
  for (std::size_t r = 0; r < universe; ++r) cdf_[r] = total += 1.0 / static_cast<double>(r + 1);
  for (double& c : cdf_) c /= total;
}

std::size_t ZipfStream::next() {
  const double u = rng_.uniform();
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return std::min(static_cast<std::size_t>(it - cdf_.begin()), cdf_.size() - 1);
}

void perturb_values(const CscMatrix& base, std::uint64_t seed, CscMatrix& out) {
  if (!out.same_pattern(base)) out = base;
  Rng rng(seed);
  // A narrow band keeps the decay of the triangular sweeps, and with it
  // the share of subnormal arithmetic, the same for every seed.
  const double alpha = 0.95 + 0.05 * rng.uniform();
  for (index_t j = 0; j < base.cols(); ++j)
    for (index_t p = base.col_begin(j); p < base.col_end(j); ++p) {
      const auto q = static_cast<std::size_t>(p);
      out.values[q] = base.rowind[q] == j ? base.values[q] * (1.0 + 0.05 * rng.uniform())
                                          : base.values[q] * alpha;
    }
}

std::vector<index_t> column_pattern(const CscMatrix& a_lower, index_t j) {
  std::vector<index_t> rows;
  for (index_t c = 0; c <= j; ++c)
    for (index_t p = a_lower.col_begin(c); p < a_lower.col_end(c); ++p) {
      const index_t r = a_lower.rowind[static_cast<std::size_t>(p)];
      if (c == j) rows.push_back(r);
      else if (r == j) rows.push_back(c);
    }
  std::sort(rows.begin(), rows.end());
  return rows;
}

void fill_rhs(std::span<value_t> b, std::span<const index_t> pattern,
              std::uint64_t seed) {
  Rng rng(seed);
  if (pattern.empty()) {
    for (value_t& v : b) v = 2.0 * rng.uniform() - 1.0;
    return;
  }
  std::fill(b.begin(), b.end(), 0.0);
  for (const index_t i : pattern) b[static_cast<std::size_t>(i)] = 2.0 * rng.uniform() - 1.0;
}

}  // namespace perfbench
