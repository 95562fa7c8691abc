// Packed multi-RHS forms of the Figure 1b and backward sweeps (declared in
// solvers/trisolve.h beside the single-RHS loops). Each visits a column of
// L once and, inside it, the RHS lanes in register chunks
// (blas::for_rhs_chunks): the x_j lanes or the accumulators stay in
// registers across the column, whose few index/value words are re-read
// from cache per chunk — L streams from memory once per block. This TU
// builds with the dense kernels' vector ISA (SYMPILER_KERNEL_ISA, never
// FMA), so a chunk is as wide as a register; the single-RHS loops keep
// the library's baseline flags.
#include "blas/kernels.h"
#include "solvers/trisolve.h"

namespace sympiler::solvers {

namespace {

void check_multi(const CscMatrix& l, index_t nrhs, index_t ldp) {
  SYMPILER_CHECK(l.rows() == l.cols(), "trisolve: size mismatch");
  SYMPILER_CHECK(nrhs >= 0 && ldp >= nrhs, "trisolve multi: bad RHS block");
}

}  // namespace

void trisolve_naive_multi(const CscMatrix& l, value_t* xp, index_t nrhs,
                          index_t ldp) {
  check_multi(l, nrhs, ldp);
  const index_t* li = l.rowind.data();
  const value_t* lx = l.values.data();
  const auto row = [&](index_t i) {
    return xp + static_cast<std::int64_t>(i) * ldp;
  };
  for (index_t j = 0; j < l.cols(); ++j) {
    const index_t pdiag = l.col_begin(j);
    const index_t pend = l.col_end(j);
    const value_t piv = lx[pdiag];
    if (piv == 0.0) throw numerical_error("trisolve: zero diagonal");
    blas::for_rhs_chunks(nrhs, [&](auto width, index_t r0) {
      constexpr int W = decltype(width)::value;
      const blas::rhs_lanes<W> v = *blas::lanes_at<W>(row(j) + r0) / piv;
      *blas::lanes_at<W>(row(j) + r0) = v;
      for (index_t p = pdiag + 1; p < pend; ++p)
        *blas::lanes_at<W>(row(li[p]) + r0) -= lx[p] * v;
    });
  }
}

void trisolve_transpose_multi(const CscMatrix& l, value_t* xp, index_t nrhs,
                              index_t ldp) {
  check_multi(l, nrhs, ldp);
  const index_t* li = l.rowind.data();
  const value_t* lx = l.values.data();
  const auto row = [&](index_t i) {
    return xp + static_cast<std::int64_t>(i) * ldp;
  };
  for (index_t j = l.cols() - 1; j >= 0; --j) {
    const index_t pdiag = l.col_begin(j);
    const index_t pend = l.col_end(j);
    // trisolve_transpose tests the pivot after its accumulation, which
    // writes nothing but a local: testing first leaves the same state.
    const value_t piv = lx[pdiag];
    if (piv == 0.0) throw numerical_error("trisolve^T: zero diagonal");
    blas::for_rhs_chunks(nrhs, [&](auto width, index_t r0) {
      constexpr int W = decltype(width)::value;
      blas::rhs_lanes<W> s = *blas::lanes_at<W>(row(j) + r0);
      for (index_t p = pdiag + 1; p < pend; ++p)
        s -= lx[p] * *blas::lanes_at<W>(row(li[p]) + r0);
      *blas::lanes_at<W>(row(j) + r0) = s / piv;
    });
  }
}

}  // namespace sympiler::solvers
