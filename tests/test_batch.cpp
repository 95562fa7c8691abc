// Blocked multi-RHS solves: solve_batch(nrhs) must be bit-identical to
// nrhs looped solve() calls on every execution path — the packed-block
// kernels change data movement (panel reuse, unit-stride SIMD across RHS),
// never any column's operation sequence. That includes the level-set
// parallel paths: their level-private update slots replay the serial
// update order (levelset.h), so even the OpenMP interpreters are
// bit-stable and compared exactly here.
#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <span>
#include <vector>

#include "api/solver.h"
#include "gen/generators.h"

namespace sympiler {
namespace {

std::vector<value_t> random_vec(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<value_t> dist(-1.0, 1.0);
  std::vector<value_t> v(n);
  for (auto& x : v) x = dist(rng);
  return v;
}

void expect_bits_equal(std::span<const value_t> a, std::span<const value_t> b,
                       const char* what) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t t = 0; t < a.size(); ++t)
    ASSERT_EQ(a[t], b[t]) << what << " differs at flat index " << t;
}

/// Batch widths: every register-chunk width (8/4/2/1) and remainder, and
/// the packed-block boundary at 32.
constexpr index_t kWidths[] = {1, 2, 3, 4, 5, 7, 8, 9, 31, 32, 33, 64};

/// Factor `a` under `config`, then check solve_batch == looped solve for a
/// batch width sweep that crosses the packed-block boundary.
void check_solver_batch(const CscMatrix& a, api::SolverConfig config,
                        api::ExecutionPath expected_path) {
  api::Solver solver(config, nullptr);
  solver.factor(a);
  ASSERT_EQ(solver.path(), expected_path);
  const auto n = static_cast<std::size_t>(a.cols());
  for (const index_t nrhs : kWidths) {
    const std::vector<value_t> base =
        random_vec(n * static_cast<std::size_t>(nrhs), 42 + nrhs);
    std::vector<value_t> looped = base;
    for (index_t r = 0; r < nrhs; ++r)
      solver.solve(
          std::span<value_t>(looped).subspan(static_cast<std::size_t>(r) * n,
                                             n));
    std::vector<value_t> batched = base;
    solver.solve_batch(batched, nrhs);
    expect_bits_equal(looped, batched, api::to_string(expected_path));
  }
}

TEST(SolverBatch, SupernodalPathBitIdenticalToLoopedSolve) {
  api::SolverConfig config;
  config.enable_parallel = false;
  check_solver_batch(gen::grid2d_laplacian(40, 40), config,
                     api::ExecutionPath::Supernodal);
}

TEST(SolverBatch, SimplicialPathBitIdenticalToLoopedSolve) {
  api::SolverConfig config;
  config.enable_parallel = false;
  config.options.vs_block = false;
  check_solver_batch(gen::grid2d_laplacian(24, 24), config,
                     api::ExecutionPath::Simplicial);
}

TEST(SolverBatch, ParallelPathBitIdenticalToLoopedSolve) {
  // Open the parallel gates: under OpenMP builds this plans the level-set
  // parallel path (deterministic by construction — each panel's updates
  // are applied by its owning thread in static schedule order); without
  // OpenMP the planner keeps the sequential supernodal path.
  api::SolverConfig config;
  config.enable_parallel = true;
  config.parallel_min_supernodes = 1;
  config.parallel_min_avg_level_width = 0.0;
  const api::ExecutionPath expected =
#ifdef SYMPILER_HAS_OPENMP
      api::ExecutionPath::ParallelSupernodal;
#else
      api::ExecutionPath::Supernodal;
#endif
  check_solver_batch(gen::grid2d_laplacian(40, 40), config, expected);
}

TEST(SolverBatch, VectorOfColumnsOverloadMatchesSpanBatch) {
  api::SolverConfig config;
  config.enable_parallel = false;
  api::Solver solver(config, nullptr);
  const CscMatrix a = gen::grid2d_laplacian(30, 30);
  solver.factor(a);
  const auto n = static_cast<std::size_t>(a.cols());
  const index_t nrhs = 5;
  const std::vector<value_t> base = random_vec(n * nrhs, 7);
  std::vector<value_t> flat = base;
  solver.solve_batch(flat, nrhs);
  std::vector<std::vector<value_t>> cols;
  for (index_t r = 0; r < nrhs; ++r)
    cols.emplace_back(base.begin() + static_cast<std::ptrdiff_t>(r * n),
                      base.begin() + static_cast<std::ptrdiff_t>((r + 1) * n));
  solver.solve_batch(cols);
  for (index_t r = 0; r < nrhs; ++r)
    expect_bits_equal(
        std::span<const value_t>(flat).subspan(static_cast<std::size_t>(r) * n,
                                               n),
        cols[static_cast<std::size_t>(r)], "vector-of-columns");
}

/// TriangularSolver batch check against looped solves.
void check_trisolve_batch(const CscMatrix& a, api::SolverConfig config,
                          api::ExecutionPath expected_path) {
  api::Solver chol(config, nullptr);
  chol.factor(a);
  const CscMatrix l = chol.factor_csc();
  std::vector<index_t> beta(static_cast<std::size_t>(l.cols()));
  for (index_t j = 0; j < l.cols(); ++j) beta[j] = j;  // dense RHS pattern
  api::TriangularSolver tri(l, beta, config, nullptr);
  ASSERT_EQ(tri.path(), expected_path);
  const auto n = static_cast<std::size_t>(l.cols());
  for (const index_t nrhs : kWidths) {
    const std::vector<value_t> base =
        random_vec(n * static_cast<std::size_t>(nrhs), 99 + nrhs);
    std::vector<value_t> looped = base;
    for (index_t r = 0; r < nrhs; ++r)
      tri.solve(
          std::span<value_t>(looped).subspan(static_cast<std::size_t>(r) * n,
                                             n));
    std::vector<value_t> batched = base;
    tri.solve_batch(batched, nrhs);
    expect_bits_equal(looped, batched, api::to_string(expected_path));
  }
}

TEST(TriSolveBatch, BlockedPathBitIdenticalToLoopedSolve) {
  api::SolverConfig config;
  config.enable_parallel = false;
  check_trisolve_batch(gen::grid2d_laplacian(40, 40), config,
                       api::ExecutionPath::BlockedTriSolve);
}

TEST(TriSolveBatch, PrunedPathBitIdenticalToLoopedSolve) {
  api::SolverConfig config;
  config.enable_parallel = false;
  config.options.vs_block = false;
  check_trisolve_batch(gen::grid2d_laplacian(24, 24), config,
                       api::ExecutionPath::PrunedTriSolve);
}

TEST(TriSolveBatch, ParallelPathBitIdenticalToLoopedSolve) {
  api::SolverConfig config;
  config.enable_parallel = true;
  config.parallel_min_supernodes = 1;
  config.parallel_min_avg_level_width = 0.0;
  config.options.vs_block = false;  // keep VS-Block off so pruned+parallel
  const api::ExecutionPath expected =
#ifdef SYMPILER_HAS_OPENMP
      api::ExecutionPath::ParallelTriSolve;
#else
      api::ExecutionPath::PrunedTriSolve;
#endif
  check_trisolve_batch(gen::grid2d_laplacian(24, 24), config, expected);
}

TEST(SolverBatch, SolutionsActuallySolveTheSystem) {
  // Sanity beyond self-consistency: A x == b for a batched solve.
  api::SolverConfig config;
  config.enable_parallel = false;
  api::Solver solver(config, nullptr);
  const CscMatrix a = gen::grid2d_laplacian(20, 20);
  solver.factor(a);
  const auto n = static_cast<std::size_t>(a.cols());
  const index_t nrhs = 9;
  const std::vector<value_t> b = random_vec(n * nrhs, 17);
  std::vector<value_t> x = b;
  solver.solve_batch(x, nrhs);
  for (index_t r = 0; r < nrhs; ++r) {
    const value_t* xr = x.data() + static_cast<std::size_t>(r) * n;
    const value_t* br = b.data() + static_cast<std::size_t>(r) * n;
    // y = A xr from the stored lower triangle (A = L_A + L_A^T - diag).
    std::vector<value_t> y(n, 0.0);
    for (index_t j = 0; j < a.cols(); ++j)
      for (index_t p = a.col_begin(j); p < a.col_end(j); ++p) {
        const index_t i = a.rowind[p];
        y[static_cast<std::size_t>(i)] += a.values[p] * xr[j];
        if (i != j) y[static_cast<std::size_t>(j)] += a.values[p] * xr[i];
      }
    for (std::size_t t = 0; t < n; ++t)
      ASSERT_NEAR(y[t], br[t], 1e-8) << "rhs " << r << " row " << t;
  }
}

}  // namespace
}  // namespace sympiler
