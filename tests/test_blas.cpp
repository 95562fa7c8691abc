// Tests for the mini-BLAS kernels against straightforward dense references.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <span>
#include <utility>
#include <vector>

#include "blas/bundle.h"
#include "blas/kernels.h"
#include "sparse/dense.h"
#include "util/common.h"

namespace sympiler {
namespace {

/// Random SPD dense matrix: A = B B^T + n * I (column-major, lda = n).
std::vector<value_t> random_spd_dense(index_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<value_t> dist(-1.0, 1.0);
  std::vector<value_t> b(static_cast<std::size_t>(n) * n);
  for (auto& v : b) v = dist(rng);
  std::vector<value_t> a(static_cast<std::size_t>(n) * n, 0.0);
  for (index_t i = 0; i < n; ++i)
    for (index_t j = 0; j < n; ++j) {
      value_t s = 0.0;
      for (index_t k = 0; k < n; ++k) s += b[i + k * n] * b[j + k * n];
      a[i + j * n] = s + (i == j ? n : 0.0);
    }
  return a;
}

std::vector<value_t> random_vec(index_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<value_t> dist(-1.0, 1.0);
  std::vector<value_t> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = dist(rng);
  return v;
}

class PotrfTest : public ::testing::TestWithParam<index_t> {};

TEST_P(PotrfTest, FactorReconstructsMatrix) {
  const index_t n = GetParam();
  const std::vector<value_t> a = random_spd_dense(n, 100 + n);
  std::vector<value_t> l = a;
  blas::potrf_lower(n, l.data(), n);
  // Check L L^T == A on the lower triangle.
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = 0; j <= i; ++j) {
      value_t s = 0.0;
      for (index_t k = 0; k <= j; ++k) s += l[i + k * n] * l[j + k * n];
      EXPECT_NEAR(s, a[i + j * n], 1e-9 * n) << "(" << i << "," << j << ")";
    }
  }
}

TEST_P(PotrfTest, SmallDispatchMatchesGeneric) {
  const index_t n = GetParam();
  const std::vector<value_t> a = random_spd_dense(n, 200 + n);
  std::vector<value_t> l1 = a, l2 = a;
  blas::potrf_lower(n, l1.data(), n);
  blas::potrf_lower_small(n, l2.data(), n);
  for (index_t j = 0; j < n; ++j)
    for (index_t i = j; i < n; ++i)
      EXPECT_NEAR(l1[i + j * n], l2[i + j * n], 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Sizes, PotrfTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 13, 32,
                                           100));

TEST(Potrf, ThrowsOnNonSpd) {
  std::vector<value_t> a = {1.0, 2.0, 2.0, 1.0};  // indefinite 2x2
  EXPECT_THROW(blas::potrf_lower(2, a.data(), 2), numerical_error);
  std::vector<value_t> z = {0.0};
  EXPECT_THROW(blas::potrf_lower(1, z.data(), 1), numerical_error);
}

class TrsvTest : public ::testing::TestWithParam<index_t> {};

TEST_P(TrsvTest, SolvesLowerSystem) {
  const index_t n = GetParam();
  std::vector<value_t> l = random_spd_dense(n, 300 + n);
  blas::potrf_lower(n, l.data(), n);
  const std::vector<value_t> xref = random_vec(n, 301);
  // b = L xref
  std::vector<value_t> b(static_cast<std::size_t>(n), 0.0);
  for (index_t i = 0; i < n; ++i)
    for (index_t j = 0; j <= i; ++j) b[i] += l[i + j * n] * xref[j];
  blas::trsv_lower(n, l.data(), n, b.data());
  for (index_t i = 0; i < n; ++i) EXPECT_NEAR(b[i], xref[i], 1e-9 * n);
}

TEST_P(TrsvTest, SmallDispatchMatchesGeneric) {
  const index_t n = GetParam();
  std::vector<value_t> l = random_spd_dense(n, 400 + n);
  blas::potrf_lower(n, l.data(), n);
  std::vector<value_t> x1 = random_vec(n, 401);
  std::vector<value_t> x2 = x1;
  blas::trsv_lower(n, l.data(), n, x1.data());
  blas::trsv_lower_small(n, l.data(), n, x2.data());
  for (index_t i = 0; i < n; ++i) EXPECT_NEAR(x1[i], x2[i], 1e-12);
}

TEST_P(TrsvTest, TransposeSolveInvertsTransposeProduct) {
  const index_t n = GetParam();
  std::vector<value_t> l = random_spd_dense(n, 500 + n);
  blas::potrf_lower(n, l.data(), n);
  const std::vector<value_t> xref = random_vec(n, 501);
  // b = L^T xref
  std::vector<value_t> b(static_cast<std::size_t>(n), 0.0);
  for (index_t i = 0; i < n; ++i)
    for (index_t j = i; j < n; ++j) b[i] += l[j + i * n] * xref[j];
  blas::trsv_lower_transpose(n, l.data(), n, b.data());
  for (index_t i = 0; i < n; ++i) EXPECT_NEAR(b[i], xref[i], 1e-9 * n);
}

INSTANTIATE_TEST_SUITE_P(Sizes, TrsvTest,
                         ::testing::Values(1, 2, 4, 7, 8, 9, 20, 64));

TEST(Trsm, RightLowerTransposeMatchesPerRowTrsv) {
  const index_t n = 9, m = 14;
  std::vector<value_t> l = random_spd_dense(n, 600);
  blas::potrf_lower(n, l.data(), n);
  std::vector<value_t> b = random_vec(m * n, 601);
  std::vector<value_t> x = b;
  blas::trsm_right_lower_trans(m, n, l.data(), n, x.data(), m);
  // Row i of X solves L X(i,:)^T = B(i,:)^T  (since X L^T = B).
  for (index_t i = 0; i < m; ++i) {
    std::vector<value_t> row(static_cast<std::size_t>(n));
    for (index_t j = 0; j < n; ++j) row[j] = b[i + j * m];
    blas::trsv_lower(n, l.data(), n, row.data());
    for (index_t j = 0; j < n; ++j)
      EXPECT_NEAR(x[i + j * m], row[j], 1e-9 * n) << i << "," << j;
  }
}

TEST(Gemm, NtMinusMatchesReference) {
  const index_t m = 11, n = 7, k = 5;
  const std::vector<value_t> a = random_vec(m * k, 700);
  const std::vector<value_t> b = random_vec(n * k, 701);
  std::vector<value_t> c = random_vec(m * n, 702);
  std::vector<value_t> cref = c;
  blas::gemm_nt_minus(m, n, k, a.data(), m, b.data(), n, c.data(), m);
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < m; ++i) {
      value_t s = 0.0;
      for (index_t p = 0; p < k; ++p) s += a[i + p * m] * b[j + p * n];
      cref[i + j * m] -= s;
    }
  for (std::size_t t = 0; t < c.size(); ++t)
    EXPECT_NEAR(c[t], cref[t], 1e-12);
}

TEST(Gemm, HandlesDegenerateShapes) {
  std::vector<value_t> c = {1.0, 1.0, 1.0, 1.0};
  blas::gemm_nt_minus(0, 0, 0, nullptr, 1, nullptr, 1, c.data(), 1);
  EXPECT_DOUBLE_EQ(c[0], 1.0);
  // k = 0: no-op on C.
  const std::vector<value_t> a(4, 2.0);
  blas::gemm_nt_minus(2, 2, 0, a.data(), 2, a.data(), 2, c.data(), 2);
  for (const value_t v : c) EXPECT_DOUBLE_EQ(v, 1.0);
}

TEST(Syrk, LowerMinusMatchesGemmOnLowerTriangle) {
  const index_t n = 8, k = 6;
  const std::vector<value_t> a = random_vec(n * k, 800);
  std::vector<value_t> c1 = random_vec(n * n, 801);
  std::vector<value_t> c2 = c1;
  blas::syrk_lower_minus(n, k, a.data(), n, c1.data(), n);
  blas::gemm_nt_minus(n, n, k, a.data(), n, a.data(), n, c2.data(), n);
  for (index_t j = 0; j < n; ++j)
    for (index_t i = j; i < n; ++i)
      EXPECT_NEAR(c1[i + j * n], c2[i + j * n], 1e-12);
}

TEST(Gemv, MinusAndTransposeMinus) {
  const index_t m = 10, n = 6;
  const std::vector<value_t> a = random_vec(m * n, 900);
  const std::vector<value_t> x = random_vec(n, 901);
  std::vector<value_t> y = random_vec(m, 902);
  std::vector<value_t> yref = y;
  blas::gemv_minus(m, n, a.data(), m, x.data(), y.data());
  for (index_t i = 0; i < m; ++i) {
    value_t s = 0.0;
    for (index_t j = 0; j < n; ++j) s += a[i + j * m] * x[j];
    yref[i] -= s;
  }
  for (index_t i = 0; i < m; ++i) EXPECT_NEAR(y[i], yref[i], 1e-12);

  const std::vector<value_t> xt = random_vec(m, 903);
  std::vector<value_t> z = random_vec(n, 904);
  std::vector<value_t> zref = z;
  blas::gemv_trans_minus(m, n, a.data(), m, xt.data(), z.data());
  for (index_t j = 0; j < n; ++j) {
    value_t s = 0.0;
    for (index_t i = 0; i < m; ++i) s += a[i + j * m] * xt[i];
    zref[j] -= s;
  }
  for (index_t j = 0; j < n; ++j) EXPECT_NEAR(z[j], zref[j], 1e-12);
}

// ---------------------------------------------------------------------------
// Bit-identity: the register-blocked kernels must reproduce the _ref scalar
// kernels exactly (same per-element operation sequence), for every shape
// 1..64 and with ragged leading dimensions. EXPECT_EQ on doubles is exact.
// ---------------------------------------------------------------------------

/// Random buffer with a ragged leading dimension: rows*cols values live in
/// an lda-strided buffer, padding poisoned with NaN to catch overreads.
std::vector<value_t> ragged(index_t rows, index_t lda, index_t cols,
                            std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<value_t> dist(-1.0, 1.0);
  std::vector<value_t> a(static_cast<std::size_t>(lda) * cols,
                         std::numeric_limits<value_t>::quiet_NaN());
  for (index_t j = 0; j < cols; ++j)
    for (index_t i = 0; i < rows; ++i) a[i + j * lda] = dist(rng);
  return a;
}

void expect_bits_equal(std::span<const value_t> a, std::span<const value_t> b,
                       const char* what) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t t = 0; t < a.size(); ++t) {
    if (std::isnan(a[t]) && std::isnan(b[t])) continue;  // padding
    ASSERT_EQ(a[t], b[t]) << what << " differs at flat index " << t;
  }
}

TEST(BitIdentity, GemmAllShapes) {
  for (const index_t k : {1, 2, 5, 16}) {
    for (index_t m = 1; m <= 64; m += (m < 12 ? 1 : 7)) {
      for (index_t n = 1; n <= 64; n += (n < 12 ? 1 : 7)) {
        const index_t lda = m + 3, ldb = n + 1, ldc = m + 5;
        const std::vector<value_t> a = ragged(m, lda, k, 1000 + m + n + k);
        const std::vector<value_t> b = ragged(n, ldb, k, 2000 + m + n + k);
        std::vector<value_t> c1 = ragged(m, ldc, n, 3000 + m + n + k);
        std::vector<value_t> c2 = c1;
        blas::gemm_nt_minus_ref(m, n, k, a.data(), lda, b.data(), ldb,
                                c1.data(), ldc);
        blas::gemm_nt_minus(m, n, k, a.data(), lda, b.data(), ldb, c2.data(),
                            ldc);
        expect_bits_equal(c1, c2, "gemm");
      }
    }
  }
}

TEST(BitIdentity, SyrkAllShapes) {
  for (const index_t k : {1, 3, 9}) {
    for (index_t n = 1; n <= 64; ++n) {
      const index_t lda = n + 2, ldc = n + 4;
      const std::vector<value_t> a = ragged(n, lda, k, 4000 + n + k);
      std::vector<value_t> c1 = ragged(n, ldc, n, 5000 + n + k);
      std::vector<value_t> c2 = c1;
      blas::syrk_lower_minus_ref(n, k, a.data(), lda, c1.data(), ldc);
      blas::syrk_lower_minus(n, k, a.data(), lda, c2.data(), ldc);
      expect_bits_equal(c1, c2, "syrk");
    }
  }
}

TEST(BitIdentity, PotrfAllSizes) {
  for (index_t n = 1; n <= 64; ++n) {
    const index_t lda = n + (n % 3);
    std::vector<value_t> a(static_cast<std::size_t>(lda) * n,
                           std::numeric_limits<value_t>::quiet_NaN());
    const std::vector<value_t> spd = random_spd_dense(n, 6000 + n);
    for (index_t j = 0; j < n; ++j)
      for (index_t i = 0; i < n; ++i) a[i + j * lda] = spd[i + j * n];
    std::vector<value_t> l1 = a, l2 = a;
    blas::potrf_lower_ref(n, l1.data(), lda);
    blas::potrf_lower(n, l2.data(), lda);
    expect_bits_equal(l1, l2, "potrf");
  }
}

TEST(BitIdentity, TrsvAndTransposeAllSizes) {
  for (index_t n = 1; n <= 64; ++n) {
    const index_t lda = n + (n % 5);
    std::vector<value_t> l(static_cast<std::size_t>(lda) * n, 0.0);
    const std::vector<value_t> spd = random_spd_dense(n, 7000 + n);
    for (index_t j = 0; j < n; ++j)
      for (index_t i = 0; i < n; ++i) l[i + j * lda] = spd[i + j * n];
    blas::potrf_lower(n, l.data(), lda);
    std::vector<value_t> x1 = random_vec(n, 7100 + n);
    std::vector<value_t> x2 = x1;
    blas::trsv_lower_ref(n, l.data(), lda, x1.data());
    blas::trsv_lower(n, l.data(), lda, x2.data());
    expect_bits_equal(x1, x2, "trsv");
    blas::trsv_lower_transpose_ref(n, l.data(), lda, x1.data());
    blas::trsv_lower_transpose(n, l.data(), lda, x2.data());
    expect_bits_equal(x1, x2, "trsv^T");
  }
}

TEST(BitIdentity, TrsmAllShapes) {
  for (index_t n = 1; n <= 24; ++n) {
    for (const index_t m : {1, 2, 7, 16, 33, 64}) {
      const index_t ldl = n + 1, ldb = m + 2;
      std::vector<value_t> l(static_cast<std::size_t>(ldl) * n, 0.0);
      const std::vector<value_t> spd = random_spd_dense(n, 8000 + n + m);
      for (index_t j = 0; j < n; ++j)
        for (index_t i = 0; i < n; ++i) l[i + j * ldl] = spd[i + j * n];
      blas::potrf_lower(n, l.data(), ldl);
      std::vector<value_t> b1 = ragged(m, ldb, n, 8100 + n + m);
      std::vector<value_t> b2 = b1;
      blas::trsm_right_lower_trans_ref(m, n, l.data(), ldl, b1.data(), ldb);
      blas::trsm_right_lower_trans(m, n, l.data(), ldl, b2.data(), ldb);
      expect_bits_equal(b1, b2, "trsm");
    }
  }
}

TEST(BitIdentity, GemvAllShapes) {
  for (index_t m = 1; m <= 64; m += (m < 12 ? 1 : 5)) {
    for (index_t n = 1; n <= 17; ++n) {
      const index_t lda = m + 1;
      const std::vector<value_t> a = ragged(m, lda, n, 9000 + m + n);
      const std::vector<value_t> x = random_vec(std::max(m, n), 9100 + m + n);
      std::vector<value_t> y1 = random_vec(std::max(m, n), 9200 + m + n);
      std::vector<value_t> y2 = y1;
      blas::gemv_minus_ref(m, n, a.data(), lda, x.data(), y1.data());
      blas::gemv_minus(m, n, a.data(), lda, x.data(), y2.data());
      expect_bits_equal(y1, y2, "gemv");
      blas::gemv_trans_minus_ref(m, n, a.data(), lda, x.data(), y1.data());
      blas::gemv_trans_minus(m, n, a.data(), lda, x.data(), y2.data());
      expect_bits_equal(y1, y2, "gemv^T");
    }
  }
}

// ---------------------------------------------------------------------------
// Multi-RHS kernels: per RHS column, bit-identical to the single-RHS kernel.
// ---------------------------------------------------------------------------

TEST(MultiRhs, PackRoundTripAndKernelsMatchLoopedSingle) {
  // Every register-chunk width (8/4/2/1 and their remainders) and the
  // 32-wide full chunk with its remainders.
  for (const index_t n : {1, 5, 16, 40}) {
    for (const index_t nrhs :
         {1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 31, 32, 33}) {
      std::vector<value_t> l = random_spd_dense(n, 10000 + n + nrhs);
      blas::potrf_lower(n, l.data(), n);
      // Column-major batch, packed copy, and the ragged pack stride.
      const index_t ldp = nrhs + 1;
      const std::vector<value_t> base =
          random_vec(n * nrhs, 10100 + n + nrhs);
      std::vector<value_t> cols = base;
      std::vector<value_t> packed(static_cast<std::size_t>(n) * ldp, -7.0);
      blas::pack_rhs(n, nrhs, cols.data(), n, packed.data(), ldp);
      std::vector<value_t> round(cols.size(), 0.0);
      blas::unpack_rhs(n, nrhs, packed.data(), ldp, round.data(), n);
      expect_bits_equal(cols, round, "pack/unpack");

      // trsm_lower_multi vs per-column trsv_lower.
      blas::trsm_lower_multi(n, nrhs, l.data(), n, packed.data(), ldp);
      for (index_t r = 0; r < nrhs; ++r)
        blas::trsv_lower(n, l.data(), n, cols.data() + r * n);
      std::vector<value_t> unpacked(cols.size());
      blas::unpack_rhs(n, nrhs, packed.data(), ldp, unpacked.data(), n);
      expect_bits_equal(cols, unpacked, "trsm_lower_multi");

      // trsm_lower_transpose_multi vs per-column trsv_lower_transpose.
      blas::trsm_lower_transpose_multi(n, nrhs, l.data(), n, packed.data(),
                                       ldp);
      for (index_t r = 0; r < nrhs; ++r)
        blas::trsv_lower_transpose(n, l.data(), n, cols.data() + r * n);
      blas::unpack_rhs(n, nrhs, packed.data(), ldp, unpacked.data(), n);
      expect_bits_equal(cols, unpacked, "trsm_lower_transpose_multi");

      // gemm_minus_multi vs per-column gemv_minus (m x n panel).
      const index_t m = n + 3;
      const std::vector<value_t> a = ragged(m, m, n, 10200 + n + nrhs);
      std::vector<value_t> ycols = random_vec(m * nrhs, 10300 + n + nrhs);
      std::vector<value_t> ypacked(static_cast<std::size_t>(m) * ldp, 0.0);
      blas::pack_rhs(m, nrhs, ycols.data(), m, ypacked.data(), ldp);
      blas::gemm_minus_multi(m, n, nrhs, a.data(), m, packed.data(), ldp,
                             ypacked.data(), ldp);
      for (index_t r = 0; r < nrhs; ++r)
        blas::gemv_minus(m, n, a.data(), m, cols.data() + r * n,
                         ycols.data() + r * m);
      std::vector<value_t> yunpacked(ycols.size());
      blas::unpack_rhs(m, nrhs, ypacked.data(), ldp, yunpacked.data(), m);
      expect_bits_equal(ycols, yunpacked, "gemm_minus_multi");

      // gemm_trans_minus_multi vs per-column gemv_trans_minus.
      blas::gemm_trans_minus_multi(m, n, nrhs, a.data(), m, ypacked.data(),
                                   ldp, packed.data(), ldp);
      for (index_t r = 0; r < nrhs; ++r)
        blas::gemv_trans_minus(m, n, a.data(), m, ycols.data() + r * m,
                               cols.data() + r * n);
      blas::unpack_rhs(n, nrhs, packed.data(), ldp, unpacked.data(), n);
      expect_bits_equal(cols, unpacked, "gemm_trans_minus_multi");
    }
  }
}

// ------------------------------------- cpuid tier probe (blas/bundle.h)

TEST(IsaProbe, TierNamesAreStable) {
  // Benchmark records key on these names.
  EXPECT_STREQ(blas::to_string(blas::BundleIsa::kScalar), "scalar");
  EXPECT_STREQ(blas::to_string(blas::BundleIsa::kAvx2), "avx2");
  EXPECT_STREQ(blas::to_string(blas::BundleIsa::kAvx512), "avx512");
}

TEST(Trsv, ZeroDiagonalThrows) {
  std::vector<value_t> l = {0.0, 1.0, 0.0, 1.0};
  std::vector<value_t> x = {1.0, 1.0};
  EXPECT_THROW(blas::trsv_lower(2, l.data(), 2, x.data()), numerical_error);
  EXPECT_THROW(blas::trsm_right_lower_trans(1, 2, l.data(), 2, x.data(), 1),
               numerical_error);
}

}  // namespace
}  // namespace sympiler
