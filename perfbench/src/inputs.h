// Seeded inputs of the three workloads. Everything here is input
// preparation: generation and fill-reducing ordering are excluded from
// every metric, set-up time included.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "sparse/csc.h"

namespace perfbench {

using sympiler::CscMatrix;
using sympiler::index_t;
using sympiler::value_t;

/// splitmix64: the benchmark's only source of randomness.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next();
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t s_;
};

/// Stream seed for a purpose: one master seed feeds independent streams.
std::uint64_t derive(std::uint64_t seed, std::uint64_t purpose);

/// One SPD system: the ordered lower triangle plus the column whose
/// pattern seeds the sparse right-hand side of the triangular solve
/// (paper Fig. 6 picks RHS patterns close to columns of A). Patterns are
/// the same for every seed; the seed draws the values.
struct Problem {
  std::string name;
  CscMatrix a;
  index_t rhs_col = 0;
  std::vector<index_t> beta;  ///< column_pattern(a, rhs_col)
};

/// `refactor`: one resident system per planner regime — an ND block
/// mesh (supernodal), a naturally numbered strip (simplicial, unit
/// supernodes) and a naturally numbered block-structural "gyro" case
/// (gated to simplicial).
std::vector<Problem> refactor_systems(std::uint64_t seed);

/// `churn`: small ordered patterns, hottest first (ND grids, banded, ND
/// and MD-ordered block-structural, MD-ordered power grids and random
/// SPD), all planning-heavy: a hit costs a third to two thirds of a miss.
std::vector<Problem> churn_universe(std::uint64_t seed);

/// `restart`: medium compute-bound patterns whose plans the store keeps.
std::vector<Problem> restart_patterns(std::uint64_t seed);

/// Skewed recurrence over a universe ordered hottest first: rank r is
/// drawn with probability proportional to 1 / (r + 1).
class ZipfStream {
 public:
  ZipfStream(std::uint64_t seed, std::size_t universe);
  std::size_t next();

 private:
  Rng rng_;
  std::vector<double> cdf_;
};

/// `out` gets the pattern of `base` and new seeded values that stay SPD:
/// off-diagonals scaled by one factor in [0.95, 1], each diagonal entry
/// grown by up to 5% (D + aO = a(D + O) + (1 - a)D with D > 0).
void perturb_values(const CscMatrix& base, std::uint64_t seed, CscMatrix& out);

/// Pattern of the symmetric column j of A (rows of column j of the lower
/// triangle plus the mirrored entries of row j), sorted.
std::vector<index_t> column_pattern(const CscMatrix& a_lower, index_t j);

/// Seeded right-hand side: uniform values in [-1, 1] on `pattern` (all of
/// 0..n-1 when empty), zero elsewhere.
void fill_rhs(std::span<value_t> b, std::span<const index_t> pattern,
              std::uint64_t seed);

}  // namespace perfbench
