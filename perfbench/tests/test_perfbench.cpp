// Unit tests of the benchmark's own machinery: drift normalization, the
// tail rule, seed determinism, span self time and the residual oracle.
#include <gtest/gtest.h>

#include <vector>

#include "calib.h"
#include "core/planner.h"
#include "inputs.h"
#include "oracle.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {
namespace {

TEST(Normalization, UniformSlowdownLeavesValueUnchanged) {
  // Slices every 20 ms around a 12 ms sample at t = [100, 112).
  std::vector<double> start, ms;
  for (int i = 0; i < 12; ++i) {
    start.push_back(20.0 * i);
    ms.push_back(0.6 + 0.01 * (i % 3));
  }
  const double raw = 12.0;
  const std::vector<double> b = bracketing_slices(start, ms, 100.0, 112.0, 2);
  const double base = normalize(raw, b, 0.6);
  for (const double k : {1.3, 1.9, 0.7}) {
    std::vector<double> start_k, ms_k;
    for (std::size_t i = 0; i < start.size(); ++i) {
      start_k.push_back(start[i] * k);
      ms_k.push_back(ms[i] * k);
    }
    const std::vector<double> bk =
        bracketing_slices(start_k, ms_k, 100.0 * k, 112.0 * k, 2);
    EXPECT_NEAR(normalize(raw * k, bk, 0.6), base, 1e-12 * base) << "slowdown " << k;
  }
}

TEST(Normalization, BracketTakesNeighboursOnEachSide) {
  const std::vector<double> start = {0, 10, 20, 30, 40, 50};
  const std::vector<double> ms = {1, 2, 3, 4, 5, 6};
  // Sample [22, 29): slices ending before 22 are #0 and #1, slices
  // starting after 29 are #3 and #4.
  const std::vector<double> b = bracketing_slices(start, ms, 24.0, 29.0, 2);
  EXPECT_EQ(b, (std::vector<double>{3, 2, 4, 5}));
  EXPECT_DOUBLE_EQ(normalize(10.0, b, 7.0), 10.0 * 7.0 / 3.5);
  EXPECT_DOUBLE_EQ(normalize(10.0, {}, 7.0), 10.0);
}

TEST(Normalization, CalibratorScaleUsesTheBracketingSlices) {
  Calibrator cal;
  cal.slice();
  cal.slice();
  const double t0 = now_ms(), t1 = t0 + 1.0;
  while (now_ms() < t1) {
  }
  cal.slice();
  cal.slice();
  const std::vector<double>& ms = cal.durations();
  EXPECT_DOUBLE_EQ(cal.scale(t0, t1), Calibrator::kRefSliceMs / median(ms));
  EXPECT_DOUBLE_EQ(cal.scale(t0, t1) * 3.0,
                   normalize(3.0, bracketing_slices(cal.starts(), ms, t0, t1, 2),
                             Calibrator::kRefSliceMs));
}

TEST(Stats, TailLeavesTenSamplesAbove) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  const Tail t = tail(v);
  EXPECT_TRUE(t.resolved);
  EXPECT_DOUBLE_EQ(t.value, 90.0);
  EXPECT_DOUBLE_EQ(t.percentile, 90.0);
  EXPECT_EQ(t.samples, 100u);

  const Tail eleven = tail({5, 1, 4, 2, 3, 6, 7, 8, 9, 10, 11});
  EXPECT_TRUE(eleven.resolved);
  EXPECT_DOUBLE_EQ(eleven.value, 1.0);

  const Tail few = tail({3, 1, 2});
  EXPECT_FALSE(few.resolved);
  EXPECT_DOUBLE_EQ(few.value, 3.0);
  EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
}

std::vector<std::size_t> draw(std::uint64_t seed, std::size_t n, std::size_t universe) {
  ZipfStream s(seed, universe);
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < n; ++i) out.push_back(s.next());
  return out;
}

TEST(Seeds, SameSeedSameStreamAndKeys) {
  const std::vector<Problem> u1 = churn_universe(11);
  const std::vector<Problem> u2 = churn_universe(11);
  ASSERT_EQ(u1.size(), u2.size());
  const sympiler::core::Planner planner;
  for (std::size_t i = 0; i < u1.size(); ++i) {
    EXPECT_TRUE(planner.cholesky_key(u1[i].a) == planner.cholesky_key(u2[i].a)) << u1[i].name;
    EXPECT_TRUE(u1[i].a.equals(u2[i].a)) << u1[i].name;
    EXPECT_EQ(u1[i].beta, u2[i].beta);
  }
  EXPECT_EQ(draw(11, 500, u1.size()), draw(11, 500, u1.size()));

  CscMatrix v1, v2;
  perturb_values(u1[0].a, 5, v1);
  perturb_values(u1[0].a, 5, v2);
  EXPECT_TRUE(v1.equals(v2));
}

TEST(Seeds, DifferentSeedDifferentStream) {
  const std::vector<Problem> u1 = churn_universe(11);
  const std::vector<Problem> u2 = churn_universe(12);
  EXPECT_NE(draw(11, 500, u1.size()), draw(12, 500, u1.size()));
  // Patterns are the same for every seed (so every seed does the same
  // work); the values are not.
  const sympiler::core::Planner planner;
  bool any_values_differ = false;
  for (std::size_t i = 0; i < u1.size(); ++i) {
    EXPECT_TRUE(planner.cholesky_key(u1[i].a) == planner.cholesky_key(u2[i].a)) << u1[i].name;
    any_values_differ |= !u1[i].a.equals(u2[i].a);
  }
  EXPECT_TRUE(any_values_differ);
  // The stream is skewed: the hottest pattern recurs most.
  std::vector<int> count(u1.size());
  for (const std::size_t r : draw(3, 5000, u1.size())) ++count[r];
  EXPECT_GT(count[0], count[u1.size() - 1] * 5);
}

TEST(Trace, SelfTimeSubtractsDirectChildren) {
  const std::vector<Span> spans = {
      {"unit", 0.0, 10.0, -1, 1},
      {"api.factor", 1.0, 8.0, 0, 1},
      {"core.plan", 2.0, 5.0, 1, 1},
      {"core.plan", 6.0, 7.0, 1, 1},
  };
  const std::vector<double> self = self_times(spans);
  EXPECT_DOUBLE_EQ(self[0], 3.0);
  EXPECT_DOUBLE_EQ(self[1], 3.0);
  EXPECT_DOUBLE_EQ(self[2], 3.0);
}

TEST(Oracle, ResidualSeparatesRightFromWrong) {
  // A = [[4, 1], [1, 3]] (lower stored), x = [1, 2] -> b = [6, 7].
  CscMatrix a(2, 2, 3);
  a.colptr = {0, 2, 3};
  a.rowind = {0, 1, 1};
  a.values = {4.0, 1.0, 3.0};
  const std::vector<double> x = {1.0, 2.0}, b = {6.0, 7.0}, bad = {1.0, 2.1};
  EXPECT_LE(sym_residual(a, x, b), kResidualBound);
  EXPECT_GT(sym_residual(a, bad, b), kResidualBound);
  // L = [[2, 0], [1, 1]]: L x = [2, 3].
  CscMatrix l(2, 2, 3);
  l.colptr = {0, 2, 3};
  l.rowind = {0, 1, 1};
  l.values = {2.0, 1.0, 1.0};
  EXPECT_LE(lower_residual(l, x, std::vector<double>{2.0, 3.0}), kResidualBound);
  EXPECT_GT(lower_residual(l, x, std::vector<double>{2.0, 3.5}), kResidualBound);
}

}  // namespace
}  // namespace perfbench
