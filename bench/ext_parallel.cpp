// Extension bench: level-set (wavefront) parallel executors — the paper's
// stated extension to shared memory (realized by the ParSy follow-on).
// Compares the sequential executors against the parallel plans the
// Planner commits (chain-fused aggregate schedules, gates held open) —
// exactly what the facades run on the ParallelSupernodal /
// ParallelTriSolve paths.
#include <cstdio>
#include <memory>
#include <numeric>
#include <vector>

#ifdef SYMPILER_HAS_OPENMP
#include <omp.h>
#endif

#include "bench/common.h"
#include "core/cholesky_executor.h"
#include "core/planner.h"
#include "core/trisolve_executor.h"
#include "core/workspace.h"
#include "gen/suite.h"
#include "parallel/levelset.h"

using namespace sympiler;

int main() {
  if (!core::Planner::parallel_enabled()) {
    std::printf("Extension: level-set executors (skipped: built without "
                "OpenMP — the Planner commits no parallel plan)\n");
    return 0;
  }
#ifdef SYMPILER_HAS_OPENMP
  std::printf("Extension: level-set parallel executors (%d threads)\n",
              omp_get_max_threads());
#endif
  bench::print_rule(124);
  std::printf("%2s %-14s | %8s %8s %11s %11s %8s | %11s %11s %8s\n", "id",
              "name", "levels", "agg-lvls", "seq-tri(s)", "par-tri(s)",
              "speedup", "seq-chol(s)", "par-chol(s)", "speedup");
  bench::print_rule(124);

  // Gates held open so every problem plans the parallel paths; the
  // schedules are the ones the Planner builds for any config.
  core::PlannerConfig chol_pc;
  chol_pc.options.vsblock_min_avg_size = 0.0;
  chol_pc.options.vsblock_min_avg_width = 0.0;  // supernodal path for all
  chol_pc.parallel_min_supernodes = 1;
  chol_pc.parallel_min_avg_level_width = 0.0;
  core::PlannerConfig tri_pc = chol_pc;
  tri_pc.options.vsblock_min_avg_size = 1e9;  // column-level solve

  for (const int id : {2, 8, 10, 11}) {
    const auto& spec = gen::suite_problem(id);
    const CscMatrix a = spec.make();

    const core::CholeskyPlan plan =
        core::Planner(chol_pc).plan_cholesky(a, /*with_key=*/false);
    core::CholeskyExecutor exec(a, chol_pc.options);
    const double t_seq_chol = bench::bench_seconds([&] { exec.factorize(a); });
    std::vector<value_t> panels(
        static_cast<std::size_t>(plan.sets.layout.total_values()));
    const double t_par_chol = bench::bench_seconds(
        [&] { parallel::parallel_cholesky(plan, a, panels); });

    const CscMatrix l = panels_to_csc(plan.sets.layout, panels);
    std::vector<index_t> beta(static_cast<std::size_t>(l.cols()));
    std::iota(beta.begin(), beta.end(), 0);
    const auto tplan = std::make_shared<const core::TriSolvePlan>(
        core::Planner(tri_pc).plan_trisolve(l, beta, nullptr,
                                            /*with_key=*/false));
    core::TriSolveExecutor serial(tplan, l);
    core::Workspace ws;
    const std::vector<value_t> b(static_cast<std::size_t>(l.cols()), 1.0);
    std::vector<value_t> x(b);
    const double t_seq_tri = bench::bench_seconds([&] {
      std::copy(b.begin(), b.end(), x.begin());
      serial.solve(x);
    });
    const double t_par_tri = bench::bench_seconds([&] {
      std::copy(b.begin(), b.end(), x.begin());
      parallel::parallel_trisolve(l, *tplan, x, ws);
    });

    std::printf(
        "%2d %-14s | %8d %8d %11.5f %11.5f %7.2fx | %11.4f %11.4f %7.2fx\n",
        spec.id, spec.paper_name.c_str(), tplan->schedule.levels(),
        tplan->agg.levels(), t_seq_tri, t_par_tri, t_seq_tri / t_par_tri,
        t_seq_chol, t_par_chol, t_seq_chol / t_par_chol);
    std::fflush(stdout);
  }
  bench::print_rule(124);
  std::printf(
      "note: levels/agg-lvls are the trisolve's flat and chain-fused "
      "barrier counts; the wavefront trisolve pays barriers + slot traffic "
      "(level-private, deterministic — no atomics) and wins only when "
      "levels are wide relative to the core count.\n");
  return 0;
}
