// Corruption seeding for the verifier's mutation-kill matrix. Every
// branch simulates a specific bug class at the data-structure level the
// real component owns: a scheduler that mis-levels an item, a slot-map
// builder that aliases two producers, a Planner that trims a workspace
// field the executor still touches. See mutate.h for the taxonomy.
#include "verify/mutate.h"

#include <algorithm>

namespace sympiler::verify {

namespace {

using core::ExecutionPath;

/// Swap one item between the first and last levels of a flat schedule.
/// Any item at the last level of a longest-path levelling has an incoming
/// dependence, so pulling it to level 0 always breaks an edge.
bool swap_flat_levels(parallel::LevelSchedule& schedule) {
  if (schedule.levels() < 2 || schedule.items.empty()) return false;
  const index_t last = schedule.level_ptr[schedule.levels() - 1];
  std::swap(schedule.items[0], schedule.items[last]);
  return true;
}

/// Same exchange across the coarsened schedule's level groups.
bool swap_agg_levels(parallel::AggregateSchedule& agg) {
  if (agg.levels() < 2 || agg.items.empty()) return false;
  const index_t q1 = agg.task_ptr[agg.level_ptr[0]];
  const index_t q2 = agg.task_ptr[agg.level_ptr[agg.levels() - 1]];
  if (q1 == q2) return false;
  std::swap(agg.items[q1], agg.items[q2]);
  return true;
}

/// Alias the second slot of the terms buffer onto the first: two
/// producers now write one cell — the cross-task race the map prevents.
bool alias_slots(parallel::UpdateSlotMap& m) {
  if (m.slot.size() < 2) return false;
  m.slot[1] = m.slot[0];
  return true;
}

/// Swap the slot ids of the first two producers feeding one row: both
/// still land inside the row's run (no alias), but the consumer's
/// ascending fold now applies them in the wrong serial order.
bool reorder_fold(parallel::UpdateSlotMap& m) {
  const index_t nrows = static_cast<index_t>(m.row_ptr.size()) - 1;
  for (index_t r = 0; r < nrows; ++r) {
    if (m.row_ptr[r + 1] - m.row_ptr[r] < 2) continue;
    index_t first = -1;
    for (std::size_t ci = 0; ci < m.slot.size(); ++ci) {
      if (m.slot[ci] < m.row_ptr[r] || m.slot[ci] >= m.row_ptr[r + 1])
        continue;
      if (first < 0) {
        first = static_cast<index_t>(ci);
      } else {
        std::swap(m.slot[first], m.slot[ci]);
        return true;
      }
    }
  }
  return false;
}

/// Swap two adjacent members inside a multi-item chain task: the chain's
/// sequential execution now runs a consumer before the producer it was
/// fused with (the coarsener bug class races.chain-order diagnoses).
bool reorder_chain(parallel::AggregateSchedule& agg) {
  for (index_t t = 0; t < agg.tasks(); ++t) {
    if (agg.task_ptr[t + 1] - agg.task_ptr[t] >= 2) {
      std::swap(agg.items[agg.task_ptr[t]], agg.items[agg.task_ptr[t] + 1]);
      return true;
    }
  }
  return false;
}

/// Empty the aggregate schedule, as a planner that forgot to coarsen would:
/// the executors interpret nothing else, so the plan has no runnable
/// schedule left.
bool drop_aggregate(parallel::AggregateSchedule& agg) {
  if (agg.empty()) return false;
  agg = parallel::AggregateSchedule{};
  return true;
}

/// Drop the last scheduled item: the schedule still looks well-formed but
/// silently loses work.
bool drop_schedule_item(parallel::LevelSchedule& schedule) {
  if (schedule.items.empty()) return false;
  schedule.items.pop_back();
  schedule.level_ptr.back() -= 1;
  return true;
}

}  // namespace

const char* to_string(Corruption c) {
  switch (c) {
    case Corruption::kDepViolation:
      return "dep-violation";
    case Corruption::kAliasedSlot:
      return "aliased-slot";
    case Corruption::kReorderedFold:
      return "reordered-fold";
    case Corruption::kOutOfBoundsIndex:
      return "out-of-bounds-index";
    case Corruption::kWorkspaceTrim:
      return "workspace-trim";
    case Corruption::kScheduleGap:
      return "schedule-gap";
    case Corruption::kChainReorder:
      return "chain-reorder";
    case Corruption::kDroppedAggregate:
      return "dropped-aggregate";
  }
  return "?";
}

// ---------------------------------------------------------------- Cholesky

bool PlanMutator::apply(core::CholeskyPlan& plan, Corruption c) {
  auto& sets = plan.sets;
  const index_t n = sets.sym.l_pattern.cols();
  const bool has_layout = sets.layout.n != 0;

  switch (c) {
    case Corruption::kDepViolation: {
      if (swap_agg_levels(plan.agg)) return true;
      if (swap_flat_levels(plan.schedule)) return true;
      if (!sets.rowpat.empty()) {
        // Sequential simplicial: claim row i is updated by itself — a
        // dependence no elimination order can satisfy.
        for (index_t i = 0; i < n; ++i) {
          if (sets.rowpat_ptr[i + 1] > sets.rowpat_ptr[i]) {
            sets.rowpat[sets.rowpat_ptr[i]] = i;
            return true;
          }
        }
      }
      if (has_layout && !sets.updates.refs.empty()) {
        // Sequential supernodal: make a target its own descendant.
        for (index_t s = 0; s < sets.layout.nsuper(); ++s) {
          if (sets.updates.ptr[s + 1] > sets.updates.ptr[s]) {
            sets.updates.refs[sets.updates.ptr[s]].d = s;
            return true;
          }
        }
      }
      return false;
    }
    case Corruption::kAliasedSlot: {
      if (alias_slots(plan.solve_update_map)) return true;
      if (!sets.rowpat.empty()) {
        // Duplicate one updating column in a row pattern: the same
        // contribution would be subtracted twice.
        for (index_t i = 0; i < n; ++i) {
          if (sets.rowpat_ptr[i + 1] - sets.rowpat_ptr[i] >= 2) {
            sets.rowpat[sets.rowpat_ptr[i] + 1] =
                sets.rowpat[sets.rowpat_ptr[i]];
            return true;
          }
        }
      }
      if (has_layout) {
        // Duplicate a descendant ref in a target's update list.
        for (index_t s = 0; s < sets.layout.nsuper(); ++s) {
          if (sets.updates.ptr[s + 1] - sets.updates.ptr[s] >= 2) {
            sets.updates.refs[sets.updates.ptr[s] + 1] =
                sets.updates.refs[sets.updates.ptr[s]];
            return true;
          }
        }
      }
      return false;
    }
    case Corruption::kReorderedFold:
      return reorder_fold(plan.solve_update_map);
    case Corruption::kOutOfBoundsIndex: {
      if (has_layout && !sets.layout.srows.empty()) {
        sets.layout.srows.back() = n + 5;
        return true;
      }
      if (!sets.rowpat.empty()) {
        sets.rowpat[0] = n + 7;
        return true;
      }
      if (!sets.sym.l_pattern.rowind.empty()) {
        sets.sym.l_pattern.rowind.back() = n + 3;
        return true;
      }
      return false;
    }
    case Corruption::kWorkspaceTrim: {
      if (plan.path == ExecutionPath::ParallelSupernodal &&
          !plan.solve_update_map.empty()) {
        plan.workspace.update_slots = plan.solve_update_map.slots() - 1;
        return true;
      }
      if (plan.path != ExecutionPath::Simplicial && has_layout) {
        plan.workspace.max_panel_rows = 0;
        return true;
      }
      if (plan.path == ExecutionPath::Simplicial) {
        plan.workspace.need_dense = false;
        return true;
      }
      return false;
    }
    case Corruption::kScheduleGap:
      return drop_schedule_item(plan.schedule);
    case Corruption::kChainReorder:
      return !plan.agg.empty() && reorder_chain(plan.agg);
    case Corruption::kDroppedAggregate:
      return drop_aggregate(plan.agg);
  }
  return false;
}

// ---------------------------------------------------------------- TriSolve

bool PlanMutator::apply(core::TriSolvePlan& plan, const CscMatrix& l,
                        Corruption c) {
  auto& sets = plan.sets;
  const index_t n = l.cols();

  switch (c) {
    case Corruption::kDepViolation: {
      if (swap_agg_levels(plan.agg)) return true;
      if (swap_flat_levels(plan.schedule)) return true;
      if (!sets.reach.empty()) {
        // Sequential pruned: place a successor before its producer in the
        // reach sequence — find any DG_L edge inside the reach and invert
        // its order.
        std::vector<index_t> pos(static_cast<std::size_t>(n), -1);
        for (index_t k = 0; k < static_cast<index_t>(sets.reach.size()); ++k)
          if (sets.reach[k] >= 0 && sets.reach[k] < n) pos[sets.reach[k]] = k;
        for (index_t k = 0; k < static_cast<index_t>(sets.reach.size()); ++k) {
          const index_t j = sets.reach[k];
          if (j < 0 || j >= n) continue;
          for (index_t p = l.col_begin(j); p < l.col_end(j); ++p) {
            const index_t i = l.rowind[p];
            if (i > j && i < n && pos[i] > k) {
              std::swap(sets.reach[k], sets.reach[pos[i]]);
              return true;
            }
          }
        }
      }
      if (sets.sn_reach.size() >= 2) {
        // Blocked pruned: break the ascending (dependence) order of the
        // supernode prune-set.
        std::swap(sets.sn_reach[0], sets.sn_reach[1]);
        std::swap(sets.sn_first_col[0], sets.sn_first_col[1]);
        return true;
      }
      return false;
    }
    case Corruption::kAliasedSlot: {
      if (alias_slots(plan.update_map)) return true;
      if (sets.reach.size() >= 2) {
        sets.reach[1] = sets.reach[0];
        return true;
      }
      if (sets.sn_reach.size() >= 2) {
        sets.sn_reach[1] = sets.sn_reach[0];
        return true;
      }
      return false;
    }
    case Corruption::kReorderedFold:
      return reorder_fold(plan.update_map);
    case Corruption::kOutOfBoundsIndex: {
      if (!sets.reach.empty()) {
        sets.reach[0] = n + 9;
        return true;
      }
      if (!sets.sn_reach.empty()) {
        sets.sn_reach[0] = sets.blocks.count() + 3;
        return true;
      }
      return false;
    }
    case Corruption::kWorkspaceTrim: {
      if (plan.path == ExecutionPath::ParallelTriSolve &&
          !plan.update_map.empty()) {
        plan.workspace.update_slots = plan.update_map.slots() - 1;
        return true;
      }
      if (plan.path == ExecutionPath::BlockedTriSolve) {
        plan.workspace.max_tail = -1;
        return true;
      }
      return false;
    }
    case Corruption::kScheduleGap: {
      if (drop_schedule_item(plan.schedule)) return true;
      if (plan.path == ExecutionPath::BlockedTriSolve &&
          plan.options.vi_prune && !sets.sn_reach.empty()) {
        sets.sn_reach.pop_back();
        sets.sn_first_col.pop_back();
        return true;
      }
      if (!sets.reach.empty()) {
        sets.reach.pop_back();
        return true;
      }
      return false;
    }
    case Corruption::kChainReorder:
      return !plan.agg.empty() && reorder_chain(plan.agg);
    case Corruption::kDroppedAggregate:
      return drop_aggregate(plan.agg);
  }
  return false;
}

}  // namespace sympiler::verify
