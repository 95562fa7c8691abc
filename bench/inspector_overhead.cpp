// Section 4.3 reproduction: symbolic-inspection and code-generation cost.
// Paper claims: trisolve codegen+compilation costs 6-197x one numeric
// solve (amortized across the thousands of solves of an iterative
// method); Cholesky codegen+compilation adds at most 0.3x the numeric
// factorization. Code generation here is PlanCompiler::emit plus the host
// compile of the very plans the facades committed; a plan whose emitted
// source exceeds its jit_max_source_kb cap is reported as "capped" (the
// facades would never compile it).
//
// Inspection enters through the api::Solver facade: the "cold" columns
// pay the inspector (cache miss), the "warm" columns re-request the same
// pattern and are served from the SymbolicCache — the amortized regime
// every repeated-pattern workload lives in.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>

#include "api/solver.h"
#include "bench/common.h"
#include "core/jit.h"
#include "core/plan_compiler.h"
#include "gen/generators.h"
#include "gen/suite.h"
#include "util/timer.h"

using namespace sympiler;

namespace {

/// Wall time of PlanCompiler::emit plus the host compile of one plan.
struct JitCost {
  double emit_s = 0.0;
  double compile_s = 0.0;
  bool capped = false;  ///< source over the plan's jit_max_source_kb
  bool failed = false;  ///< compiler or loader error
  [[nodiscard]] double total() const { return emit_s + compile_s; }
};

/// Emit + compile a committed plan (`l...` is the factor a trisolve plan
/// bakes). Publishes the kernel into the plan, so call it only after the
/// numeric timings: executors adopt a published kernel.
template <class Plan, class... Factor>
JitCost jit_cost(const Plan& plan, const Factor&... l) {
  const index_t cap_kb = plan.options.jit_max_source_kb;
  const std::size_t cap =
      cap_kb > 0 ? static_cast<std::size_t>(cap_kb) * 1024 : 0;
  JitCost cost;
  Timer t;
  const std::string source = core::PlanCompiler::emit(plan, l...);
  cost.emit_s = t.seconds();
  if (cap > 0 && source.size() > cap) {
    cost.capped = true;
    return cost;
  }
  const auto kernel = core::PlanCompiler::compile(plan, l..., cap);
  if (kernel == nullptr) {
    std::fprintf(stderr, "compile failed: %s\n",
                 plan.jit->failure().c_str());
    cost.failed = true;
    return cost;
  }
  cost.compile_s = kernel->compile_seconds;
  return cost;
}

/// One right-aligned cell: `value`, or why there is none.
std::string cell(const JitCost& cost, double value, const char* fmt) {
  if (cost.capped) return "capped";
  if (cost.failed) return "failed";
  char buf[32];
  std::snprintf(buf, sizeof(buf), fmt, value);
  return buf;
}

}  // namespace

int main() {
  std::printf("Section 4.3: inspection and code generation overheads\n");
  bench::print_rule(160);
  std::printf(
      "%2s %-14s | %10s %10s | %10s %10s | %10s %10s %10s %10s | %10s %10s "
      "%10s\n",
      "id", "name", "ts-cold(s)", "ts-warm(s)", "ch-cold(s)", "ch-warm(s)",
      "ts-gen(s)", "ts-cc(s)", "ts-num(s)", "ts-jit/num", "ch-jit(s)",
      "ch-num(s)", "ch-jit/num");
  bench::print_rule(160);

  const bool jit = core::JitModule::compiler_available();
  bool failed = false;
  for (const auto& spec : gen::suite()) {
    const CscMatrix a = spec.make();

    // Cold Cholesky factor through the facade (fresh context), then a
    // same-pattern refactor to isolate the numeric-only time: the symbolic
    // columns below are factor-total minus that numeric pass.
    auto context = std::make_shared<api::SymbolicContext>();
    api::Solver chol({}, context);
    Timer tc;
    chol.factor(a);
    const double t_ch_cold_total = tc.seconds();
    Timer tn;
    chol.factor(a);
    const double t_ch_numeric = tn.seconds();
    const double t_ch_cold =
        std::max(t_ch_cold_total - t_ch_numeric, 0.0);
    const CscMatrix l = chol.factor_csc();

    // Warm: a second solver over the same pattern — symbolic is a lookup.
    api::Solver chol_warm({}, context);
    Timer tcw;
    chol_warm.factor(a);
    const double t_ch_warm =
        std::max(tcw.seconds() - t_ch_numeric, 0.0);

    const index_t n = l.cols();
    const std::vector<value_t> b =
        gen::rhs_from_column(a, (2 * n) / 3, 4000 + spec.id);
    std::vector<index_t> beta;
    for (index_t i = 0; i < n; ++i)
      if (b[i] != 0.0) beta.push_back(i);

    // Trisolve inspection, cold then warm (same L and injection pattern).
    Timer ti;
    api::TriangularSolver exec(l, beta, {}, context);
    const double t_ts_cold = ti.seconds();
    Timer tiw;
    api::TriangularSolver exec_warm(l, beta, {}, context);
    const double t_ts_warm = tiw.seconds();

    // Numeric solve time (what the overhead amortizes against).
    std::vector<value_t> x(static_cast<std::size_t>(n));
    const double t_numeric = bench::bench_seconds([&] {
      std::copy(b.begin(), b.end(), x.begin());
      exec.solve(x);
    });

    // Code generation + compilation of the committed plans, after every
    // numeric timing above (paper: trisolve 6-197x one solve, Cholesky
    // <= 0.3x one factor).
    JitCost ts_cost, ch_cost;
    if (jit) {
      ts_cost = jit_cost(*exec.plan(), l);
      ch_cost = jit_cost(*chol.plan());
      failed = failed || ts_cost.failed || ch_cost.failed;
    }
    std::printf(
        "%2d %-14s | %10.4f %10.6f | %10.4f %10.6f | %10s %10s %10.6f %10s | "
        "%10s %10.4f %10s\n",
        spec.id, spec.paper_name.c_str(), t_ts_cold, t_ts_warm, t_ch_cold,
        t_ch_warm, cell(ts_cost, ts_cost.emit_s, "%.4f").c_str(),
        cell(ts_cost, ts_cost.compile_s, "%.4f").c_str(), t_numeric,
        cell(ts_cost, ts_cost.total() / t_numeric, "%.0fx").c_str(),
        cell(ch_cost, ch_cost.total(), "%.4f").c_str(), t_ch_numeric,
        cell(ch_cost, ch_cost.total() / t_ch_numeric, "%.2fx").c_str());
    std::fflush(stdout);
  }
  bench::print_rule(160);
  std::printf(
      "paper: trisolve codegen+compile costs 6-197x one numeric solve and "
      "amortizes over repeated solves; Cholesky codegen+compile <= 0.3x one "
      "numeric factor;%s\n",
      jit ? "" : " (JIT skipped: no host compiler)");
  std::printf(
      "note: ch-cold/ch-warm are symbolic-only (factor total minus a "
      "numeric-only refactor); the warm path runs no inspection — its cost "
      "is key hashing, the cache hit, and executor setup (allocation).\n");
  return failed ? 1 : 0;
}
