// Opt-in per-query traversal profile — the EXPLAIN output of the
// evaluator. Where EvalStats says how much work a query cost, the
// profile says where in the tree the work (and the pruning) happened and
// how fast the global [lb, ub] interval converged, which is exactly
// where KARL's linear-bound advantage over SOTA's constant bounds lives
// (paper §4–5).
//
// Collection is pay-as-you-go: callers pass a TraversalProfile* to
// QueryThreshold / QueryApproximate, and a null pointer (the default)
// costs one branch per query: with no other channel attached, the
// refinement loop runs its null observer and does no profile work at
// all. The struct is plain data; JSON rendering lives in the serving
// layer (server/protocol.h) so the core stays presentation-free.
//
// Reconciliation contract (tested in evaluator_test): against the
// EvalStats of the same query,
//   Σ levels[d].kernel_evals == stats.kernel_evals
//   Σ levels[d].expanded     == stats.nodes_expanded
//   iterations               == stats.iterations
//   Σ visited == Σ expanded + Σ pruned + Σ exact_leaves
// and timeline.size() == iterations + 1 unless truncated.

#ifndef KARL_CORE_TRAVERSAL_PROFILE_H_
#define KARL_CORE_TRAVERSAL_PROFILE_H_

#include <cstdint>
#include <vector>

#include "core/bounds.h"

namespace karl::core {

/// Human-readable bound family of a BoundKind: KARL's bounds are linear
/// functions of the query–pivot distance ("linear", including the
/// chord/tangent ablations), SOTA's are per-node constants ("constant").
/// Pruning in a profile is attributed to the evaluator's family.
const char* BoundFamilyName(BoundKind kind);

/// See file comment.
struct TraversalProfile {
  /// Counters for one tree depth (root = 0; Type III merges the P⁺ and
  /// P⁻ trees by depth).
  struct Level {
    uint64_t visited = 0;       ///< Nodes bounded or folded at this depth.
    uint64_t expanded = 0;      ///< Frontier nodes replaced by children.
    uint64_t pruned = 0;        ///< Frontier nodes never expanded — the
                                ///< bound was tight enough to stop.
    uint64_t exact_leaves = 0;  ///< Effective leaves folded (their
                                ///< narrow interval or exact sum).
    uint64_t kernel_evals = 0;  ///< Kernel evaluations at this depth:
                                ///< leaf scans, narrow or exact, and
                                ///< their exact retakes; a drained
                                ///< frontier's exact scan counts at 0.
  };

  /// One point of the bound-convergence timeline: the global interval
  /// and cumulative kernel evaluations after an iteration. Entry 0 is
  /// the state after the initial root admission(s).
  struct Iteration {
    double lb = 0.0;
    double ub = 0.0;
    uint64_t kernel_evals = 0;
  };

  /// Timeline cap; beyond it `timeline_truncated` is set and entries are
  /// dropped (per-level counters are never truncated).
  static constexpr size_t kMaxTimeline = 512;

  /// Bound configuration the query ran with.
  BoundKind bounds = BoundKind::kKarl;

  /// Indexed by tree depth; size = deepest touched level + 1.
  std::vector<Level> levels;

  std::vector<Iteration> timeline;
  bool timeline_truncated = false;

  /// Totals, mirroring EvalStats for the same query.
  uint64_t iterations = 0;
  uint64_t nodes_expanded = 0;
  uint64_t kernel_evals = 0;

  /// Resets to the just-constructed state (capacity retained).
  void Clear() {
    levels.clear();
    timeline.clear();
    timeline_truncated = false;
    iterations = 0;
    nodes_expanded = 0;
    kernel_evals = 0;
  }

  /// Totals over the per-level counters.
  uint64_t TotalVisited() const {
    uint64_t n = 0;
    for (const Level& l : levels) n += l.visited;
    return n;
  }
  uint64_t TotalPruned() const {
    uint64_t n = 0;
    for (const Level& l : levels) n += l.pruned;
    return n;
  }
  uint64_t TotalExactLeaves() const {
    uint64_t n = 0;
    for (const Level& l : levels) n += l.exact_leaves;
    return n;
  }
};

}  // namespace karl::core

#endif  // KARL_CORE_TRAVERSAL_PROFILE_H_
