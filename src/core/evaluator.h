// Best-first bound-refinement engine for kernel aggregation queries
// (paper §II-B Table V; shared by SOTA and KARL, which differ only in the
// plugged-in BoundFunction).
//
// The evaluator maintains global [lb, ub] on F_P(q) as the sum of
// per-entry bounds over a frontier of index nodes. Each iteration pops the
// entry with the widest bound gap and replaces it with its children's
// bounds (or the exact leaf aggregate), monotonically tightening [lb, ub]
// until the query's termination condition holds. [lb, ub] are kept as
// running sums; when the condition holds on them, the enclosure is
// re-summed from the exact leaf sums and the live frontier bounds and
// tested again, and a drained frontier answers the leaf sum exactly
// (DESIGN.md §2). The frontier is a binary max-heap of 16-byte
// {gap, admission order} keys over an append-only entry array; the first
// child admitted after a pop takes the popped root in place, and equal
// gaps pop in admission order (DESIGN.md §2).
//
// Type III weighting is handled by evaluating two positive-weight trees
// (P⁺ and P⁻, split by the caller) in one interleaved refinement: a P⁻
// node with positive-space bounds [l, u] contributes [−u, −l] to F.

#ifndef KARL_CORE_EVALUATOR_H_
#define KARL_CORE_EVALUATOR_H_

#include <array>
#include <functional>
#include <memory>
#include <span>

#include "core/bounds.h"
#include "core/kernel.h"
#include "core/traversal_profile.h"
#include "data/sparse_matrix.h"
#include "index/tree_index.h"
#include "util/status.h"

namespace karl::telemetry {
class Counter;
class Gauge;
class Registry;
class RollingHistogram;
class TraceRecorder;
}  // namespace karl::telemetry

namespace karl::core {

/// Per-query work counters.
struct EvalStats {
  size_t iterations = 0;      ///< Frontier pops.
  size_t nodes_expanded = 0;  ///< Internal nodes whose children were bounded.
  size_t kernel_evals = 0;    ///< Exact kernel evaluations at leaves.

  /// Adds another query's (or batch slot's) work.
  EvalStats& operator+=(const EvalStats& other) {
    iterations += other.iterations;
    nodes_expanded += other.nodes_expanded;
    kernel_evals += other.kernel_evals;
    return *this;
  }
};

/// Observes every refinement iteration: (iteration, lb, ub). Used by the
/// Fig. 6 convergence study.
using TraceFn = std::function<void(size_t iteration, double lb, double ub)>;

/// Kernel aggregation query evaluator over one or two trees.
class Evaluator {
 public:
  struct Options {
    BoundKind bounds = BoundKind::kKarl;
    /// Treat nodes at this depth as leaves (compute their range exactly);
    /// < 0 means no cap. Level 0 caps at the root, i.e. a full scan.
    /// Used by the in-situ tuner to simulate the top-i-levels tree T_i.
    int max_level = -1;
    /// Runtime bound-invariant auditor. When on, every query first
    /// computes the exact answer by an unrecorded full scan, every
    /// admitted node's bounds — as the serving bound path produced them,
    /// fused sibling pass included — are verified against its exact
    /// leaf-level aggregate, and every refinement iteration checks that
    /// [lb, ub] still encloses the exact answer, that lb ≤ ub, and — where
    /// monotone refinement is a theorem (kd-tree, distance kernels) — that
    /// lb never decreases and ub never increases. Any violation aborts
    /// with full diagnostics via KARL_CHECK. Orders of magnitude slower
    /// than a normal query; compile with -DKARL_AUDIT_BOUNDS (the
    /// `debug-asan` preset does) to flip the default to true everywhere.
#ifdef KARL_AUDIT_BOUNDS
    bool audit_bounds = true;
#else
    bool audit_bounds = false;
#endif
    /// Metrics registry recording per-query work: a latency histogram
    /// (karl_query_latency_usec), iteration / node-expansion /
    /// kernel-eval counters, and the prune ratio versus a full scan
    /// (karl_query_prune_ratio histogram + karl_prune_ratio gauge).
    /// Non-owning and runtime-only; must outlive the evaluator. Null
    /// disables metrics — the cost of the disabled path is one branch
    /// per query, nothing per refinement iteration.
    telemetry::Registry* metrics = nullptr;
    /// Trace recorder receiving one Chrome-trace complete event per
    /// query plus per-iteration counter events tracking lb / ub / gap
    /// and cumulative expansions / kernel evals. Non-owning and
    /// runtime-only; null disables tracing.
    telemetry::TraceRecorder* tracer = nullptr;
  };

  /// Creates an evaluator. `plus_tree` is required and must carry positive
  /// weights; `minus_tree` is optional (Type III) and carries |w_i| of the
  /// negative-weight points, in the same frame as `plus_tree` (see
  /// index::TreeIndex::frame()). Both pointers must outlive the
  /// evaluator.
  ///
  /// Every query method takes `q` in the caller's coordinates, with
  /// exactly as many values as the trees have dimensions (a KARL_CHECK),
  /// and reflects it into the trees' frame once before refinement.
  static util::Result<Evaluator> Create(const index::TreeIndex* plus_tree,
                                        const index::TreeIndex* minus_tree,
                                        const KernelParams& kernel,
                                        const Options& options);

  /// Like Create, but evaluates with the caller-supplied bound function
  /// instead of MakeBoundFunction(kernel, options.bounds), called through
  /// its vtable (Create calls the concrete class directly). The audit seam:
  /// lets tests and fuzz drivers inject deliberately broken bounds and
  /// prove the auditor fires. `options.audit_bounds` audits every node
  /// `bound_fn` bounds, exactly as it does under Create.
  static util::Result<Evaluator> CreateWithBounds(
      const index::TreeIndex* plus_tree, const index::TreeIndex* minus_tree,
      const KernelParams& kernel, const Options& options,
      std::unique_ptr<BoundFunction> bound_fn);

  Evaluator(Evaluator&&) = default;
  Evaluator& operator=(Evaluator&&) = default;

  /// TKAQ (Problem 1): returns whether F_P(q) > tau.
  ///
  /// The decision is taken on an enclosure re-summed from the live
  /// frontier, so bounds added and later subtracted leave no residue in
  /// it; what remains is the rounding of the leaf sums and of the re-sum
  /// itself, which for Type III cancellation may exceed |F_P(q) − tau|.
  /// `profile`, when non-null, is cleared and filled with the query's
  /// EXPLAIN traversal profile (see core/traversal_profile.h); null (the
  /// default) skips collection entirely.
  bool QueryThreshold(std::span<const double> q, double tau,
                      EvalStats* stats = nullptr,
                      const TraceFn* trace = nullptr,
                      TraversalProfile* profile = nullptr) const;

  /// eKAQ (Problem 2): returns F̂ with relative error at most eps
  /// (requires a finite eps > 0; specified for Type I/II weighting).
  /// Stops as soon as some F̂ meets the contract for every F in [lb, ub],
  /// that is (1−ε)·ub <= (1+ε)·lb (or its mirror for ub <= 0), and
  /// returns the harmonic mean 2·lb·ub/(lb+ub), not the paper's lb.
  /// `profile` as in QueryThreshold.
  double QueryApproximate(std::span<const double> q, double eps,
                          EvalStats* stats = nullptr,
                          const TraceFn* trace = nullptr,
                          TraversalProfile* profile = nullptr) const;

  /// Exact F_P(q) via full scan of both trees (the SCAN baseline).
  double QueryExact(std::span<const double> q,
                    EvalStats* stats = nullptr) const;

  /// Refines bounds to completion or `max_iterations`, reporting the final
  /// [lb, ub]; exposed for bound-convergence studies.
  void RefineToConvergence(std::span<const double> q, size_t max_iterations,
                           double* lb, double* ub,
                           const TraceFn* trace = nullptr) const;

  /// The options this evaluator was created with.
  const Options& options() const { return options_; }

 private:
  Evaluator() = default;

  // Metric handles resolved once at creation when Options::metrics is
  // set; all null (and instrumented_ false) otherwise, so the disabled
  // path never touches the registry.
  struct Instruments {
    telemetry::RollingHistogram* latency_usec = nullptr;
    telemetry::RollingHistogram* prune_ratio = nullptr;
    telemetry::Counter* queries_tkaq = nullptr;
    telemetry::Counter* queries_ekaq = nullptr;
    telemetry::Counter* queries_exact = nullptr;
    telemetry::Counter* iterations = nullptr;
    telemetry::Counter* nodes_expanded = nullptr;
    telemetry::Counter* kernel_evals = nullptr;
    telemetry::Counter* scan_point_evals = nullptr;
    telemetry::Gauge* overall_prune_ratio = nullptr;
  };

  // The bound family Refine calls without a virtual dispatch, resolved
  // once by Create. kVirtual goes through BoundFunction's vtable: the
  // path for CreateWithBounds' injected functions.
  enum class BoundCall : uint8_t {
    kVirtual,
    kSotaDistance,
    kKarlDistance,
    kSotaInnerProduct,
    kKarlInnerProduct,
  };

  // Observes one refinement loop: the EXPLAIN profile, the TraceFn, the
  // tracer's counter tracks and the bound audit (defined in evaluator.cc).
  class RefineObserver;

  // Runs the refinement loop until `stop(lb, ub)` holds on the re-summed
  // enclosure or the frontier drains; outputs the final bounds and returns
  // the loop's work. When `stop` holds on the running sums it is asked
  // again on the re-summed values, so a stateful `stop` must keep holding
  // once it has held, as RefineToConvergence's call cap does. Picks
  // the observer (RefineObserver only when the query has a profile, a
  // trace callback, the tracer or the auditor attached) and the concrete
  // bound class once per query, then runs RefineWith.
  template <typename Stop>
  EvalStats Refine(std::span<const double> q, Stop stop, const TraceFn* trace,
                   TraversalProfile* profile, double* lb, double* ub) const;

  template <typename Bound, typename Stop, typename Observer>
  EvalStats RefineWith(const Bound& bound, std::span<const double> q,
                       Stop stop, Observer& observer, double* lb,
                       double* ub) const;

  // Room for a query reflected into the trees' frame.
  using FrameBuffer = std::array<double, index::kMaxFrameDims>;

  // `q` in the trees' frame: `q` itself for the identity, else Tᵀq in
  // `buffer`, reflected as the trees' points were. Checks that q has the
  // trees' dimension first.
  std::span<const double> InTreeFrame(std::span<const double> q,
                                      FrameBuffer& buffer) const;

  // Exact F_P(q) by full scan of both trees, recorded nowhere; `q` is in
  // the trees' frame.
  double ScanExact(std::span<const double> q) const;

  // Points across both trees — the work a full scan would do per query.
  size_t TotalPoints() const;

  // Flushes one finished query's deltas into the metrics registry.
  void RecordQueryMetrics(telemetry::Counter* query_counter,
                          const EvalStats& work, double elapsed_usec) const;

  const index::TreeIndex* plus_tree_ = nullptr;
  const index::TreeIndex* minus_tree_ = nullptr;  // May be null.
  KernelParams kernel_;
  Options options_;
  std::unique_ptr<BoundFunction> bound_fn_;
  BoundCall bound_call_ = BoundCall::kVirtual;
  Instruments instruments_;
  bool instrumented_ = false;  // True iff options_.metrics != nullptr.
};

/// Exact F_P(q) = Σ w_i K(q, p_i) by sequential scan over raw data
/// (weights signed). The reference implementation everything is tested
/// against, and the SCAN baseline of the experiments.
double ExactAggregate(const data::Matrix& points,
                      std::span<const double> weights,
                      const KernelParams& kernel, std::span<const double> q);

/// Exact F_P(q) over CSR-stored points via sparse dot products — the
/// LIBSVM evaluation code path (dist² = ‖q‖² − 2·q·p + ‖p‖² with cached
/// row norms).
double ExactAggregateSparse(const data::SparseMatrix& points,
                            std::span<const double> weights,
                            const KernelParams& kernel,
                            std::span<const double> q);

}  // namespace karl::core

#endif  // KARL_CORE_EVALUATOR_H_
