#include "core/workspace.h"

#include <algorithm>

#include "solvers/trisolve.h"

#ifdef SYMPILER_HAS_OPENMP
#include <omp.h>
#endif

namespace sympiler::core {

index_t rhs_block_width(index_t plan_block, index_t nrhs,
                        index_t parallel_lanes) {
  index_t bw = std::min<index_t>(plan_block > 0 ? plan_block : kRhsBlockWidth,
                                 blas::kRhsBlockMax);
  // Narrow the blocks when a full-width tiling would leave parallel lanes
  // idle (e.g. 64 RHS on 8 lanes: 8 blocks of 8 beat 2 blocks of 32; 4 RHS
  // on 4 lanes: four 1-wide blocks). Each block streams the factor once,
  // but on a lane that would otherwise wait.
  if (parallel_lanes > 1 && nrhs > 0) {
    const index_t per_lane = (nrhs + parallel_lanes - 1) / parallel_lanes;
    bw = std::min(bw, per_lane);
  }
  return bw;
}

WorkspaceDims cholesky_workspace_dims(const solvers::SupernodalLayout& layout) {
  WorkspaceDims dims;
  dims.n = layout.n;
  for (index_t s = 0; s < layout.nsuper(); ++s) {
    dims.max_panel_rows = std::max(dims.max_panel_rows, layout.nrows(s));
    dims.max_panel_width = std::max(dims.max_panel_width, layout.width(s));
  }
  dims.max_tail = solvers::max_tail_rows(layout);
  return dims;
}

void BatchFactor::solve_block(value_t* xp, index_t nrhs,
                              value_t* tail) const {
  if (csc_ != nullptr) {
    solvers::trisolve_naive_multi(*csc_, xp, nrhs, nrhs);
    solvers::trisolve_transpose_multi(*csc_, xp, nrhs, nrhs);
  } else {
    solvers::panel_forward_solve_multi(*layout_, panels_, xp, nrhs, nrhs,
                                       tail);
    solvers::panel_backward_solve_multi(*layout_, panels_, xp, nrhs, nrhs,
                                        tail);
  }
}

void packed_solve_batch(const BatchFactor& factor, const WorkspaceDims& dims,
                        std::span<value_t> bx, index_t nrhs) {
  if (nrhs <= 0) return;
  const index_t n = factor.n();
#ifdef SYMPILER_HAS_OPENMP
  const index_t lanes = static_cast<index_t>(omp_get_max_threads());
#else
  const index_t lanes = 1;
#endif
  const index_t bw = rhs_block_width(dims.rhs_block, nrhs, lanes);
  // Workspaces grow to the batch actually requested, not the maximum block
  // width a plan allows — a 2-RHS batch must not pin an n x 32 buffer. The
  // per-thread workspaces touch only the packed RHS and tail buffers.
  WorkspaceDims sized = dims;
  sized.rhs_block = std::min(bw, nrhs);
  sized.max_panel_rows = 0;
  sized.max_panel_width = 0;
  sized.update_slots = 0;
  sized.need_map = false;
  sized.need_dense = false;
  const index_t nblocks = (nrhs + bw - 1) / bw;
  // Blocks are independent and uniform; each packs its RHS columns into a
  // thread's grow-only workspace, so a warm steady state allocates
  // nothing. The static schedule keeps the block -> thread mapping
  // reproducible, so a warm-up batch warms exactly the workspaces a later
  // identical batch touches.
#ifdef SYMPILER_HAS_OPENMP
#pragma omp parallel for schedule(static)
#endif
  for (index_t blk = 0; blk < nblocks; ++blk) {
    static thread_local Workspace ws;
    ws.ensure(sized);
    const index_t r0 = blk * bw;
    const index_t nb = std::min(bw, nrhs - r0);
    value_t* xp = ws.rhs_block();
    value_t* bx0 = bx.data() + static_cast<std::size_t>(r0) * n;
    blas::pack_rhs(n, nb, bx0, n, xp, nb);
    factor.solve_block(xp, nb, ws.tail().data());
    blas::unpack_rhs(n, nb, xp, nb, bx0, n);
  }
}

}  // namespace sympiler::core
