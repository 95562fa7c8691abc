// Code-generation explorer: plans one small sparse triangular solve in each
// of the four shapes the PlanCompiler emits — naive, pruned (the reach-set
// unrolled into straight-line code with literal indices, paper Figure 1e),
// VS-Block blocked, and blocked + pruned — prints each translation unit,
// JIT-compiles it, and checks the compiled kernel against the interpreting
// TriSolveExecutor on the same plan. Exits non-zero unless every compiled
// result is bitwise equal to the interpreter's.
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/jit.h"
#include "core/plan_compiler.h"
#include "core/planner.h"
#include "core/trisolve_executor.h"
#include "gen/generators.h"
#include "solvers/simplicial.h"
#include "sparse/ops.h"

using namespace sympiler;

int main() {
  // Small factor so the generated code stays readable.
  const CscMatrix a = gen::grid2d_laplacian(5, 5);
  solvers::SimplicialCholesky chol(a);
  chol.factorize(a);
  const CscMatrix l = chol.factor();
  const std::vector<value_t> b = gen::sparse_rhs(l.cols(), 2, 3);
  std::vector<index_t> beta;
  for (index_t i = 0; i < l.cols(); ++i)
    if (b[i] != 0.0) beta.push_back(i);

  struct Shape {
    const char* name;
    bool vi_prune;
    bool vs_block;
  };
  const Shape shapes[] = {{"naive", false, false},
                          {"pruned (Figure 1e)", true, false},
                          {"blocked", false, true},
                          {"blocked + pruned", true, true}};

  const bool jit = core::JitModule::compiler_available();
  int mismatches = 0;
  for (const Shape& shape : shapes) {
    core::PlannerConfig config;
    config.enable_parallel = false;
    config.options.vi_prune = shape.vi_prune;
    config.options.vs_block = shape.vs_block;
    config.options.vsblock_min_avg_size = 0.0;  // VS-Block on when asked
    config.options.vsblock_min_avg_width = 0.0;
    const auto plan = std::make_shared<const core::TriSolvePlan>(
        core::Planner(config).plan_trisolve(l, beta));

    const std::string source = core::PlanCompiler::emit(*plan, l);
    std::printf("=== %s: %s plan, %zu bytes of C ===\n%s\n", shape.name,
                core::to_string(plan->path), source.size(), source.c_str());
    if (shape.vs_block !=
        (plan->path == core::ExecutionPath::BlockedTriSolve)) {
      std::printf("%s: planned the wrong shape\n", shape.name);
      ++mismatches;
    }
    if (!jit) continue;

    // Interpret first; the executor adopts the kernel once it is published.
    const core::TriSolveExecutor exec(plan, l);
    std::vector<value_t> x_interp(b);
    exec.solve(x_interp);
    const auto kernel = core::PlanCompiler::compile(*plan, l);
    if (kernel == nullptr) {
      std::printf("%s: compile failed: %s\n", shape.name,
                  plan->jit->failure().c_str());
      ++mismatches;
      continue;
    }
    std::vector<value_t> x_jit(b);
    exec.solve(x_jit);
    const bool same = std::memcmp(x_jit.data(), x_interp.data(),
                                  x_jit.size() * sizeof(value_t)) == 0;
    mismatches += same ? 0 : 1;
    std::printf(
        "%s: JIT compiled in %.0f ms; ||Lx-b||_inf = %.3e; %s the "
        "interpreter\n\n",
        shape.name, kernel->compile_seconds * 1e3,
        residual_inf_norm(l, x_jit, b),
        same ? "bitwise equal to" : "DIFFERS from");
  }
  if (!jit) std::printf("(host compiler unavailable: JIT step skipped)\n");
  return mismatches == 0 ? 0 : 1;
}
