#include "blas/kernels.h"

#include <cmath>

// The blocked kernels below are written against one invariant: every
// element's value is produced by the exact operation sequence of the `_ref`
// kernel (terms applied one at a time, ascending reduction index, scale
// last). Register blocking changes *where* intermediate values live (tile
// accumulators instead of memory), never the per-element sequence, so the
// results are bit-identical on targets without FP contraction — and the
// build never enables -ffast-math or per-TU contraction differences.
#define SYMPILER_RESTRICT __restrict__

namespace sympiler::blas {

namespace {

// Micro-tile geometry. 8x4 double tiles keep the hot gemm loop inside the
// SSE2 register file (with predictable spills GCC schedules well) and give
// the vectorizer fixed-width unit-stride inner loops.
constexpr index_t kMr = 8;  ///< micro-tile rows (C / solution vectors)
constexpr index_t kNr = 4;  ///< micro-tile cols (C) / unrolled chains
constexpr index_t kDiagBlock = 8;  ///< potrf/trsv/trsm diagonal block size

// ---------------------------------------------------------------------------
// Unrolled compile-time-sized kernels ("Sympiler-generated" small kernels).
// ---------------------------------------------------------------------------

template <int N>
void potrf_unrolled(value_t* a, index_t lda) {
  for (int j = 0; j < N; ++j) {
    value_t d = a[j + j * lda];
    for (int k = 0; k < j; ++k) d -= a[j + k * lda] * a[j + k * lda];
    if (!(d > 0.0)) throw numerical_error("potrf: non-positive pivot");
    const value_t djj = std::sqrt(d);
    a[j + j * lda] = djj;
    const value_t inv = 1.0 / djj;
    for (int i = j + 1; i < N; ++i) {
      value_t s = a[i + j * lda];
      for (int k = 0; k < j; ++k) s -= a[i + k * lda] * a[j + k * lda];
      a[i + j * lda] = s * inv;
    }
  }
}

template <int N>
void trsv_unrolled(const value_t* l, index_t lda, value_t* x) {
  for (int j = 0; j < N; ++j) {
    const value_t xj = x[j] / l[j + j * lda];
    x[j] = xj;
    for (int i = j + 1; i < N; ++i) x[i] -= l[i + j * lda] * xj;
  }
}

// ---------------------------------------------------------------------------
// GEMM micro-kernels: an MR x NR tile of C rides in registers across the
// whole k reduction; each accumulator element applies its terms one at a
// time in ascending p — the _ref order.
// ---------------------------------------------------------------------------

template <int MR, int NR>
void gemm_tile(index_t k, const value_t* SYMPILER_RESTRICT a, index_t lda,
               const value_t* SYMPILER_RESTRICT b, index_t ldb,
               value_t* SYMPILER_RESTRICT c, index_t ldc) {
  value_t acc[NR][MR];
  for (int j = 0; j < NR; ++j)
    for (int i = 0; i < MR; ++i) acc[j][i] = c[i + j * ldc];
  for (index_t p = 0; p < k; ++p) {
    const value_t* SYMPILER_RESTRICT ap = a + p * lda;
    value_t av[MR];
    for (int i = 0; i < MR; ++i) av[i] = ap[i];
    for (int j = 0; j < NR; ++j) {
      const value_t bv = b[j + p * ldb];
      for (int i = 0; i < MR; ++i) acc[j][i] -= av[i] * bv;
    }
  }
  for (int j = 0; j < NR; ++j)
    for (int i = 0; i < MR; ++i) c[i + j * ldc] = acc[j][i];
}

template <int NR>
void gemm_col_strip(index_t m, index_t k, const value_t* a, index_t lda,
                    const value_t* b, index_t ldb, value_t* c, index_t ldc) {
  index_t i = 0;
  for (; i + 2 * kMr <= m; i += 2 * kMr)
    gemm_tile<2 * kMr, NR>(k, a + i, lda, b, ldb, c + i, ldc);
  if (i + kMr <= m) {
    gemm_tile<kMr, NR>(k, a + i, lda, b, ldb, c + i, ldc);
    i += kMr;
  }
  if (i + 4 <= m) {
    gemm_tile<4, NR>(k, a + i, lda, b, ldb, c + i, ldc);
    i += 4;
  }
  if (i + 2 <= m) {
    gemm_tile<2, NR>(k, a + i, lda, b, ldb, c + i, ldc);
    i += 2;
  }
  if (i < m) gemm_tile<1, NR>(k, a + i, lda, b, ldb, c + i, ldc);
}

// Unblocked in-block bodies shared by the blocked triangular kernels.

void trsv_lower_unblocked(index_t n, const value_t* l, index_t lda,
                          value_t* x) {
  for (index_t j = 0; j < n; ++j) {
    const value_t piv = l[j + j * lda];
    if (piv == 0.0) throw numerical_error("trsv: zero diagonal");
    const value_t xj = x[j] / piv;
    x[j] = xj;
    const value_t* col = l + j * lda;
    for (index_t i = j + 1; i < n; ++i) x[i] -= col[i] * xj;
  }
}

void trsm_rlt_unblocked(index_t m, index_t n, const value_t* l, index_t ldl,
                        value_t* b, index_t ldb) {
  for (index_t j = 0; j < n; ++j) {
    value_t* SYMPILER_RESTRICT bj = b + j * ldb;
    for (index_t k = 0; k < j; ++k) {
      const value_t ljk = l[j + k * ldl];
      const value_t* SYMPILER_RESTRICT bk = b + k * ldb;
      for (index_t i = 0; i < m; ++i) bj[i] -= ljk * bk[i];
    }
    const value_t piv = l[j + j * ldl];
    if (piv == 0.0) throw numerical_error("trsm: zero diagonal");
    const value_t inv = 1.0 / piv;
    for (index_t i = 0; i < m; ++i) bj[i] *= inv;
  }
}

}  // namespace

// ------------------------------------------------------------------ potrf

void potrf_lower(index_t n, value_t* a, index_t lda) {
  // Blocked right-looking: unrolled diagonal factorization, panel TRSM,
  // register-tiled SYRK trailing update. Every element still receives its
  // rank-k terms in ascending k (blocks of kDiagBlock are contiguous
  // ascending ranges), then scales — the _ref order.
  for (index_t k0 = 0; k0 < n; k0 += kDiagBlock) {
    const index_t nb = std::min(kDiagBlock, n - k0);
    value_t* akk = a + k0 + k0 * lda;
    potrf_lower_small(nb, akk, lda);
    const index_t rem = n - k0 - nb;
    if (rem > 0) {
      value_t* apanel = a + (k0 + nb) + k0 * lda;
      trsm_right_lower_trans(rem, nb, akk, lda, apanel, lda);
      syrk_lower_minus(rem, nb, apanel, lda,
                       a + (k0 + nb) + (k0 + nb) * lda, lda);
    }
  }
}

void potrf_lower_small(index_t n, value_t* a, index_t lda) {
  switch (n) {
    case 0: return;
    case 1: return potrf_unrolled<1>(a, lda);
    case 2: return potrf_unrolled<2>(a, lda);
    case 3: return potrf_unrolled<3>(a, lda);
    case 4: return potrf_unrolled<4>(a, lda);
    case 5: return potrf_unrolled<5>(a, lda);
    case 6: return potrf_unrolled<6>(a, lda);
    case 7: return potrf_unrolled<7>(a, lda);
    case 8: return potrf_unrolled<8>(a, lda);
    default: return potrf_lower(n, a, lda);
  }
}

// ------------------------------------------------------------------- trsv

void trsv_lower(index_t n, const value_t* l, index_t lda, value_t* x) {
  // Blocked forward substitution: solve a diagonal block, push its
  // contribution into the remaining rows with the register-tiled gemv.
  for (index_t j0 = 0; j0 < n; j0 += kDiagBlock) {
    const index_t nb = std::min(kDiagBlock, n - j0);
    trsv_lower_unblocked(nb, l + j0 + j0 * lda, lda, x + j0);
    const index_t rem = n - j0 - nb;
    if (rem > 0)
      gemv_minus(rem, nb, l + (j0 + nb) + j0 * lda, lda, x + j0,
                 x + j0 + nb);
  }
}

void trsv_lower_small(index_t n, const value_t* l, index_t lda, value_t* x) {
  switch (n) {
    case 0: return;
    case 1:
      x[0] /= l[0];
      return;
    case 2: return trsv_unrolled<2>(l, lda, x);
    case 3: return trsv_unrolled<3>(l, lda, x);
    case 4: return trsv_unrolled<4>(l, lda, x);
    case 5: return trsv_unrolled<5>(l, lda, x);
    case 6: return trsv_unrolled<6>(l, lda, x);
    case 7: return trsv_unrolled<7>(l, lda, x);
    case 8: return trsv_unrolled<8>(l, lda, x);
    default: return trsv_lower(n, l, lda, x);
  }
}

void trsv_lower_transpose(index_t n, const value_t* l, index_t lda,
                          value_t* x) {
  // The backward reduction is one serial accumulator chain per element;
  // there is no reordering-free blocking to apply — same loop nest as the
  // reference, compiled with this TU's vector flags.
  for (index_t j = n - 1; j >= 0; --j) {
    const value_t* col = l + j * lda;
    value_t s = x[j];
    for (index_t i = j + 1; i < n; ++i) s -= col[i] * x[i];
    const value_t piv = col[j];
    if (piv == 0.0) throw numerical_error("trsv^T: zero diagonal");
    x[j] = s / piv;
  }
}

// ------------------------------------------------------------------- trsm

void trsm_right_lower_trans(index_t m, index_t n, const value_t* l,
                            index_t ldl, value_t* b, index_t ldb) {
  // X L^T = B, blocked over column panels of B: columns [0, j0) are final
  // when panel [j0, j0+nb) starts, so their contribution is one
  // register-tiled GEMM (ascending k — the _ref subtraction order), then
  // the panel solves against the diagonal block.
  for (index_t j0 = 0; j0 < n; j0 += kDiagBlock) {
    const index_t nb = std::min(kDiagBlock, n - j0);
    if (j0 > 0)
      gemm_nt_minus(m, nb, j0, b, ldb, l + j0, ldl, b + j0 * ldb, ldb);
    trsm_rlt_unblocked(m, nb, l + j0 + j0 * ldl, ldl, b + j0 * ldb, ldb);
  }
}

// ------------------------------------------------------------ gemm / syrk

void gemm_nt_minus(index_t m, index_t n, index_t k, const value_t* a,
                   index_t lda, const value_t* b, index_t ldb, value_t* c,
                   index_t ldc) {
  index_t j = 0;
  for (; j + kNr <= n; j += kNr)
    gemm_col_strip<kNr>(m, k, a, lda, b + j, ldb, c + j * ldc, ldc);
  if (j + 2 <= n) {
    gemm_col_strip<2>(m, k, a, lda, b + j, ldb, c + j * ldc, ldc);
    j += 2;
  }
  if (j < n) gemm_col_strip<1>(m, k, a, lda, b + j, ldb, c + j * ldc, ldc);
}

void syrk_lower_minus(index_t n, index_t k, const value_t* a, index_t lda,
                      value_t* c, index_t ldc) {
  // Column strips of kNr: a small triangular wedge at the diagonal in _ref
  // order, a register-tiled GEMM for everything below it.
  for (index_t j0 = 0; j0 < n; j0 += kNr) {
    const index_t nb = std::min(kNr, n - j0);
    for (index_t j = j0; j < j0 + nb; ++j) {
      value_t* cj = c + j * ldc;
      for (index_t p = 0; p < k; ++p) {
        const value_t ajp = a[j + p * lda];
        const value_t* ap = a + p * lda;
        for (index_t i = j; i < j0 + nb; ++i) cj[i] -= ap[i] * ajp;
      }
    }
    const index_t rem = n - (j0 + nb);
    if (rem > 0)
      gemm_nt_minus(rem, nb, k, a + j0 + nb, lda, a + j0, lda,
                    c + (j0 + nb) + j0 * ldc, ldc);
  }
}

// ------------------------------------------------------------------- gemv

void gemv_minus(index_t m, index_t n, const value_t* a, index_t lda,
                const value_t* x, value_t* y) {
  // Column groups of kNr share one pass over y (loaded and stored once per
  // group instead of once per column); per element the terms still apply
  // in ascending j — the _ref order.
  index_t j = 0;
  for (; j + kNr <= n; j += kNr) {
    const value_t* SYMPILER_RESTRICT c0 = a + j * lda;
    const value_t* SYMPILER_RESTRICT c1 = a + (j + 1) * lda;
    const value_t* SYMPILER_RESTRICT c2 = a + (j + 2) * lda;
    const value_t* SYMPILER_RESTRICT c3 = a + (j + 3) * lda;
    const value_t x0 = x[j], x1 = x[j + 1], x2 = x[j + 2], x3 = x[j + 3];
    value_t* SYMPILER_RESTRICT yp = y;
    for (index_t i = 0; i < m; ++i) {
      value_t t = yp[i];
      t -= c0[i] * x0;
      t -= c1[i] * x1;
      t -= c2[i] * x2;
      t -= c3[i] * x3;
      yp[i] = t;
    }
  }
  for (; j < n; ++j) {
    const value_t xj = x[j];
    const value_t* SYMPILER_RESTRICT col = a + j * lda;
    for (index_t i = 0; i < m; ++i) y[i] -= col[i] * xj;
  }
}

void gemv_trans_minus(index_t m, index_t n, const value_t* a, index_t lda,
                      const value_t* x, value_t* y) {
  // kNr independent accumulator chains at a time (x loaded once per group);
  // each chain accumulates ascending i then subtracts once — _ref order.
  index_t j = 0;
  for (; j + kNr <= n; j += kNr) {
    const value_t* SYMPILER_RESTRICT c0 = a + j * lda;
    const value_t* SYMPILER_RESTRICT c1 = a + (j + 1) * lda;
    const value_t* SYMPILER_RESTRICT c2 = a + (j + 2) * lda;
    const value_t* SYMPILER_RESTRICT c3 = a + (j + 3) * lda;
    value_t s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
    for (index_t i = 0; i < m; ++i) {
      const value_t xi = x[i];
      s0 += c0[i] * xi;
      s1 += c1[i] * xi;
      s2 += c2[i] * xi;
      s3 += c3[i] * xi;
    }
    y[j] -= s0;
    y[j + 1] -= s1;
    y[j + 2] -= s2;
    y[j + 3] -= s3;
  }
  for (; j < n; ++j) {
    const value_t* col = a + j * lda;
    value_t s = 0.0;
    for (index_t i = 0; i < m; ++i) s += col[i] * x[i];
    y[j] -= s;
  }
}

// -------------------------------------------------------------- multi-RHS
//
// Narrow RHS chunks (the at most kRhsLanes for_rhs_chunks hands out) carry
// too little independent work to hide the sub latency when their chain
// runs along a panel, so their kernels keep chains short and many: the
// triangular kernels hold each column's x_j lanes or accumulators in
// registers, gemm_minus_multi streams panel columns in groups of kNr
// (every row of Y an independent chain, as in gemv_minus), and
// gemm_trans_minus_multi runs kNr columns' accumulators at once (as in
// gemv_trans_minus). Full 32-wide chunks keep one Y row in registers
// across the whole reduction. No variant reorders any (element, RHS)
// sequence.

void trsm_lower_multi(index_t n, index_t nrhs, const value_t* l, index_t lda,
                      value_t* x, index_t ldx) {
  for (index_t j = 0; j < n; ++j) {
    const value_t piv = l[j + j * lda];
    if (piv == 0.0) throw numerical_error("trsm_lower_multi: zero diagonal");
    const value_t* col = l + j * lda;
    for_rhs_chunks(nrhs, [&](auto width, index_t r0) {
      constexpr int W = decltype(width)::value;
      const rhs_lanes<W> v = *lanes_at<W>(x + j * ldx + r0) / piv;
      *lanes_at<W>(x + j * ldx + r0) = v;
      for (index_t i = j + 1; i < n; ++i)
        *lanes_at<W>(x + i * ldx + r0) -= col[i] * v;
    });
  }
}

void trsm_lower_transpose_multi(index_t n, index_t nrhs, const value_t* l,
                                index_t lda, value_t* x, index_t ldx) {
  for (index_t j = n - 1; j >= 0; --j) {
    const value_t* col = l + j * lda;
    // trsv_lower_transpose tests the pivot after its accumulation, which
    // writes nothing but locals: testing first leaves the same state.
    const value_t piv = col[j];
    if (piv == 0.0)
      throw numerical_error("trsm_lower_transpose_multi: zero diagonal");
    for_rhs_chunks(nrhs, [&](auto width, index_t r0) {
      constexpr int W = decltype(width)::value;
      rhs_lanes<W> s = *lanes_at<W>(x + j * ldx + r0);
      for (index_t i = j + 1; i < n; ++i)
        s -= col[i] * *lanes_at<W>(x + i * ldx + r0);
      *lanes_at<W>(x + j * ldx + r0) = s / piv;
    });
  }
}

namespace {

// Y(i, r0..r0+RV) -= sum_j A(i,j) X(j, r0..r0+RV): a register chunk of Y's
// row rides across the whole j sweep; per (i, r) the terms apply in
// ascending j, matching gemv_minus on that RHS column.
template <int RV>
void gemm_minus_multi_chunk(index_t m, index_t n, const value_t* a,
                            index_t lda, const value_t* SYMPILER_RESTRICT x,
                            index_t ldx, value_t* SYMPILER_RESTRICT y,
                            index_t ldy) {
  for (index_t i = 0; i < m; ++i) {
    value_t* SYMPILER_RESTRICT yi = y + i * ldy;
    const value_t* SYMPILER_RESTRICT ai = a + i;
    value_t acc[RV];
    for (int t = 0; t < RV; ++t) acc[t] = yi[t];
    for (index_t j = 0; j < n; ++j) {
      const value_t av = ai[j * lda];
      const value_t* SYMPILER_RESTRICT xj = x + j * ldx;
      for (int t = 0; t < RV; ++t) acc[t] -= av * xj[t];
    }
    for (int t = 0; t < RV; ++t) yi[t] = acc[t];
  }
}

// The same update streaming A by columns for a narrow chunk: NC <= kNr
// columns share one pass over Y with their X lanes in registers; per
// (i, r) the terms still apply in ascending j.
template <int W, int NC>
void gemm_minus_multi_cols(index_t m, const value_t* a, index_t lda,
                           const value_t* x, index_t ldx, value_t* y,
                           index_t ldy) {
  using V = rhs_lanes<W>;
  const value_t* SYMPILER_RESTRICT c[NC];
  V xv[NC];
  for (int q = 0; q < NC; ++q) {
    c[q] = a + q * lda;
    xv[q] = *lanes_at<W>(x + q * ldx);
  }
  for (index_t i = 0; i < m; ++i) {
    V* yi = lanes_at<W>(y + i * ldy);
    V t = *yi;
    for (int q = 0; q < NC; ++q) t -= c[q][i] * xv[q];
    *yi = t;
  }
}

// Y(j, r0..r0+RV) -= sum_i A(i,j) X(i, r0..r0+RV): per (j, r) an
// accumulator over ascending i then one subtraction, matching
// gemv_trans_minus on that RHS column.
template <int RV>
void gemm_trans_minus_multi_chunk(index_t m, index_t n, const value_t* a,
                                  index_t lda,
                                  const value_t* SYMPILER_RESTRICT x,
                                  index_t ldx, value_t* SYMPILER_RESTRICT y,
                                  index_t ldy) {
  for (index_t j = 0; j < n; ++j) {
    const value_t* SYMPILER_RESTRICT col = a + j * lda;
    value_t* SYMPILER_RESTRICT yj = y + j * ldy;
    value_t acc[RV] = {};
    for (index_t i = 0; i < m; ++i) {
      const value_t av = col[i];
      const value_t* SYMPILER_RESTRICT xi = x + i * ldx;
      for (int t = 0; t < RV; ++t) acc[t] += av * xi[t];
    }
    for (int t = 0; t < RV; ++t) yj[t] -= acc[t];
  }
}

// The same reduction for a narrow chunk, NC <= kNr columns at a time: NC
// independent accumulator chains per lane, each X row loaded once per
// group.
template <int W, int NC>
void gemm_trans_minus_multi_cols(index_t m, const value_t* a, index_t lda,
                                 const value_t* x, index_t ldx, value_t* y,
                                 index_t ldy) {
  using V = rhs_lanes<W>;
  const value_t* SYMPILER_RESTRICT c[NC];
  V s[NC];
  for (int q = 0; q < NC; ++q) {
    c[q] = a + q * lda;
    s[q] = V{};
  }
  for (index_t i = 0; i < m; ++i) {
    const V xi = *lanes_at<W>(x + i * ldx);
    for (int q = 0; q < NC; ++q) s[q] += c[q][i] * xi;
  }
  for (int q = 0; q < NC; ++q) *lanes_at<W>(y + q * ldy) -= s[q];
}

// Sweep the n panel columns in groups of kNr, then one group of the
// remaining 1-3: kernel<W, NC>(a + j * lda, x row j, y row j).
template <class Group>
void for_column_groups(index_t n, Group&& group) {
  index_t j = 0;
  for (; j + kNr <= n; j += kNr) group(std::integral_constant<int, kNr>{}, j);
  switch (n - j) {
    case 3: return group(std::integral_constant<int, 3>{}, j);
    case 2: return group(std::integral_constant<int, 2>{}, j);
    case 1: return group(std::integral_constant<int, 1>{}, j);
    default: return;
  }
}

}  // namespace

void gemm_minus_multi(index_t m, index_t n, index_t nrhs, const value_t* a,
                      index_t lda, const value_t* x, index_t ldx, value_t* y,
                      index_t ldy) {
  index_t r0 = 0;
  for (; r0 + kRhsBlockMax <= nrhs; r0 += kRhsBlockMax)
    gemm_minus_multi_chunk<kRhsBlockMax>(m, n, a, lda, x + r0, ldx, y + r0,
                                         ldy);
  for_rhs_chunks(nrhs - r0, [&](auto width, index_t r) {
    constexpr int W = decltype(width)::value;
    for_column_groups(n, [&](auto group, index_t j) {
      gemm_minus_multi_cols<W, decltype(group)::value>(
          m, a + j * lda, lda, x + j * ldx + r0 + r, ldx, y + r0 + r, ldy);
    });
  });
}

void gemm_trans_minus_multi(index_t m, index_t n, index_t nrhs,
                            const value_t* a, index_t lda, const value_t* x,
                            index_t ldx, value_t* y, index_t ldy) {
  index_t r0 = 0;
  for (; r0 + kRhsBlockMax <= nrhs; r0 += kRhsBlockMax)
    gemm_trans_minus_multi_chunk<kRhsBlockMax>(m, n, a, lda, x + r0, ldx,
                                               y + r0, ldy);
  for_rhs_chunks(nrhs - r0, [&](auto width, index_t r) {
    constexpr int W = decltype(width)::value;
    for_column_groups(n, [&](auto group, index_t j) {
      gemm_trans_minus_multi_cols<W, decltype(group)::value>(
          m, a + j * lda, lda, x + r0 + r, ldx, y + j * ldy + r0 + r, ldy);
    });
  });
}

void pack_rhs(index_t n, index_t nrhs, const value_t* x, index_t col_stride,
              value_t* xp, index_t ldp) {
  for (index_t r = 0; r < nrhs; ++r) {
    const value_t* SYMPILER_RESTRICT xc = x + r * col_stride;
    value_t* SYMPILER_RESTRICT dst = xp + r;
    for (index_t i = 0; i < n; ++i) dst[i * ldp] = xc[i];
  }
}

void unpack_rhs(index_t n, index_t nrhs, const value_t* xp, index_t ldp,
                value_t* x, index_t col_stride) {
  for (index_t r = 0; r < nrhs; ++r) {
    const value_t* SYMPILER_RESTRICT src = xp + r;
    value_t* SYMPILER_RESTRICT xc = x + r * col_stride;
    for (index_t i = 0; i < n; ++i) xc[i] = src[i * ldp];
  }
}

}  // namespace sympiler::blas
