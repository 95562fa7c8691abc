// Sparse triangular solve variants — the paper's Figure 1 codes.
//
//  (b) trisolve_naive     : visits every column.
//  (c) trisolve_library   : skips columns whose x entry is zero (the Eigen
//                           implementation; symbolic coupled to numeric).
//  (d) trisolve_decoupled : iterates a precomputed reach-set only.
//
// The Sympiler-generated variants (VS-Block, VI-Prune, peeling, ...) live
// in core/trisolve_executor.h; these are the library baselines.
#pragma once

#include <span>

#include "sparse/csc.h"
#include "util/common.h"

namespace sympiler::solvers {

/// Figure 1b. x holds b on entry, the solution on exit.
/// Throws numerical_error on a zero diagonal.
void trisolve_naive(const CscMatrix& l, std::span<value_t> x);

/// Figure 1c: the guarded library loop (`if (x[j] != 0)`).
void trisolve_library(const CscMatrix& l, std::span<value_t> x);

/// Figure 1d: decoupled loop over a topologically ordered reach-set.
void trisolve_decoupled(const CscMatrix& l, std::span<const index_t> reach_set,
                        std::span<value_t> x);

/// Backward solve L^T x = b with L stored lower CSC (used to complete
/// A x = b after Cholesky). x holds b on entry, the solution on exit.
void trisolve_transpose(const CscMatrix& l, std::span<value_t> x);

/// Packed multi-RHS forms of trisolve_naive and trisolve_transpose over an
/// RHS-major block: X(i, r) at xp[r + i * ldp], ldp >= nrhs.
/// One sweep streams L once for the whole block; per RHS column the
/// operation sequence (and the zero-diagonal throw) is exactly the
/// single-RHS loop's, so the results are bit-identical to it.
void trisolve_naive_multi(const CscMatrix& l, value_t* xp, index_t nrhs,
                          index_t ldp);
void trisolve_transpose_multi(const CscMatrix& l, value_t* xp, index_t nrhs,
                              index_t ldp);

/// Flop count of a sparse-RHS solve restricted to `reach_set`
/// (1 div + 2 flops per off-diagonal nonzero of each reached column).
[[nodiscard]] double trisolve_flops(const CscMatrix& l,
                                    std::span<const index_t> reach_set);

}  // namespace sympiler::solvers
