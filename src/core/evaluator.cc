#include "core/evaluator.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <optional>
#include <type_traits>
#include <vector>

#include "core/simd/simd.h"
#include "telemetry/context.h"
#include "telemetry/metrics.h"
#include "telemetry/rolling.h"
#include "telemetry/trace.h"
#include "util/check.h"
#include "util/math_util.h"
#include "util/stopwatch.h"

namespace karl::core {

namespace {

// One frontier entry: an index node of one side (+1 / −1) with its signed
// contribution bounds to F_P(q).
struct Entry {
  double lb = 0.0;  // Signed contribution lower bound.
  double ub = 0.0;  // Signed contribution upper bound.
  index::NodeId node = index::kInvalidNode;
  int8_t side = +1;  // +1: plus tree, −1: minus tree.
};

// The best-first frontier: a binary max-heap of 16-byte keys over an
// append-only array of entries. A key packs an entry's gap (ub − lb) and
// its slot in the array, which is its admission order in the query. The
// widest gap pops first, and equal gaps pop in admission order (DESIGN.md
// §2). Sifts move a hole and pick the higher child without a branch. Pop
// leaves the popped key at the root; the next Push overwrites it and sifts
// it down, and Settle fills a root that no Push took with the last key. So
// an expansion costs one sift-down instead of a pop plus a push. Pop also
// zeroes the popped entry's bounds in the array, so that SumBounds can add
// up the live bounds in admission order without consulting the heap. Both
// arrays start with room for kInitialCapacity and double past it.
class Frontier {
 public:
  Frontier() {
    keys_.reserve(kInitialCapacity);
    entries_.reserve(kInitialCapacity);
  }

  bool empty() const { return keys_.empty(); }

  void Push(const Entry& e, double gap) {
    const Key key = MakeKey(gap, static_cast<uint32_t>(entries_.size()));
    entries_.push_back(e);
    if (root_open_) {
      root_open_ = false;
      SiftDown(key);
    } else {
      SiftUp(key);
    }
  }

  // The entry to expand next. Its key holds the root until the next Push
  // or Settle replaces it.
  Entry Pop() {
    root_open_ = true;
    Entry& slot = entries_[Slot(keys_[0])];
    const Entry top = slot;
    slot.lb = 0.0;
    slot.ub = 0.0;
    return top;
  }

  // Ends an expansion: removes the popped key if no Push replaced it.
  void Settle() {
    if (!root_open_) return;
    root_open_ = false;
    const Key last = keys_.back();
    keys_.pop_back();
    if (!keys_.empty()) SiftDown(last);
  }

  // Sets [*lb, *ub] to `base` plus every live entry's bounds, added in
  // admission order (popped entries hold [0, 0]).
  void SumBounds(double base, double* lb, double* ub) const {
    double l = base;
    double u = base;
    for (const Entry& e : entries_) {
      l += e.lb;
      u += e.ub;
    }
    *lb = l;
    *ub = u;
  }

  // Calls fn on every live entry, in heap order.
  template <typename Fn>
  void ForEach(Fn fn) const {
    for (const Key key : keys_) fn(entries_[Slot(key)]);
  }

 private:
  static constexpr size_t kInitialCapacity = 64;

  // A key compares higher iff its entry pops first, in one 128-bit
  // compare. The high word is the gap's bit pattern mapped so that
  // unsigned order is numeric order; the low word is the slot's
  // complement, so that of two equal gaps the earlier admission is higher.
  __extension__ using Key = unsigned __int128;

  static Key MakeKey(double gap, uint32_t slot) {
    // A NaN gap (from infinite bounds) counts as +∞; adding +0 turns −0
    // into +0, which it equals.
    const double g =
        std::isnan(gap) ? std::numeric_limits<double>::infinity() : gap + 0.0;
    const uint64_t bits = std::bit_cast<uint64_t>(g);
    // Flip every bit of a negative and the sign bit of a positive.
    const uint64_t flip =
        static_cast<uint64_t>(static_cast<int64_t>(bits) >> 63) |
        (uint64_t{1} << 63);
    return (static_cast<Key>(bits ^ flip) << 64) | static_cast<uint32_t>(~slot);
  }

  static uint32_t Slot(Key key) { return ~static_cast<uint32_t>(key); }

  // Places `key` by moving the hole at the root down past higher children.
  void SiftDown(Key key) {
    Key* const k = keys_.data();
    const size_t n = keys_.size();
    size_t hole = 0;
    size_t child = 1;
    while (child + 1 < n) {
      child += static_cast<size_t>(k[child + 1] > k[child]);
      if (!(k[child] > key)) break;
      k[hole] = k[child];
      hole = child;
      child = 2 * hole + 1;
    }
    if (child + 1 == n && k[child] > key) {
      k[hole] = k[child];
      hole = child;
    }
    k[hole] = key;
  }

  // Appends `key` by moving a hole up from the end past lower parents.
  void SiftUp(Key key) {
    keys_.push_back(key);
    Key* const k = keys_.data();
    size_t hole = keys_.size() - 1;
    while (hole > 0) {
      const size_t parent = (hole - 1) / 2;
      if (!(key > k[parent])) break;
      k[hole] = k[parent];
      hole = parent;
    }
    k[hole] = key;
  }

  std::vector<Key> keys_;
  std::vector<Entry> entries_;
  bool root_open_ = false;  // Pop ran; no Push or Settle since.
};

// The refinement loop's observer hooks, called in loop order: OnPush for
// every bounded node entering the frontier, OnLeaf for every effective
// leaf folded exactly, OnExpand for every popped node, OnStep after the
// root admission(s) and after every iteration, OnFinish once with what
// is left of the frontier. The empty bodies compile away, so a query
// with nothing attached runs the bare loop.
struct NullObserver {
  void OnPush(const index::TreeIndex&, const Entry&) {}
  void OnLeaf(const index::TreeIndex::Node&) {}
  void OnExpand(const index::TreeIndex::Node&) {}
  void OnStep(double, double, const EvalStats&) {}
  void OnFinish(const Frontier&, const EvalStats&) {}
};

// The harmonic mean 2·l·u/(l+u) of an enclosure [l, u] on one side of
// zero, in a form that neither underflows (l·u does below 1e-154) nor
// overflows where the mean does not. A point enclosure answers itself
// (so a drained frontier answers its exact leaf sum), and l + u == 0
// answers 0 rather than 0/0.
double HarmonicMean(double l, double u) {
  if (l == u) return l;
  if (l + u == 0.0) return 0.0;
  const bool l_nearer = std::abs(l) < std::abs(u);
  const double near = l_nearer ? l : u;
  const double far = l_nearer ? u : l;
  return near / (0.5 + 0.5 * (near / far));
}

}  // namespace

// The one concrete observer: fills the EXPLAIN profile, calls the Fig. 6
// TraceFn, streams the karl.bounds / karl.work counter tracks to the
// tracer and runs the bound-invariant audit (Options::audit_bounds).
class Evaluator::RefineObserver {
 public:
  RefineObserver(const Evaluator& ev, std::span<const double> q,
                 const TraceFn* trace, TraversalProfile* profile)
      : ev_(ev),
        q_(q),
        trace_(trace != nullptr && *trace ? trace : nullptr),
        profile_(profile),
        tracer_(ev.options_.tracer),
        audit_(ev.options_.audit_bounds) {
    if (profile_ != nullptr) {
      profile_->Clear();
      profile_->bounds = ev.options_.bounds;
    }
    if (audit_) {
      // The exact answer is the ground truth every global [lb, ub] must
      // enclose. It comes from an unrecorded scan: the audit is not a
      // user query. Monotone refinement is only a theorem for nested
      // kd-tree boxes with the pointwise interval-monotone constructions
      // on convex distance profiles (ball-tree child balls are not nested
      // in the parent, and the mixed-interval pivot line is not
      // interval-monotone).
      exact_ = ev.ScanExact(q);
      tol_ = 1e-6 * (1.0 + std::abs(exact_));
      monotone_ = !IsInnerProductKernel(ev.kernel_.type) &&
                  ev.plus_tree_->kind() == index::IndexKind::kKdTree &&
                  (ev.minus_tree_ == nullptr ||
                   ev.minus_tree_->kind() == index::IndexKind::kKdTree);
    }
  }

  void OnPush(const index::TreeIndex& tree, const Entry& e) {
    if (profile_ != nullptr) ++Level(tree.node(e.node).depth).visited;
    if (audit_) AuditNode(tree, e);
  }

  void OnLeaf(const index::TreeIndex::Node& nd) {
    if (profile_ == nullptr) return;
    TraversalProfile::Level& level = Level(nd.depth);
    ++level.visited;
    ++level.exact_leaves;
    level.kernel_evals += nd.count();
  }

  void OnExpand(const index::TreeIndex::Node& nd) {
    if (profile_ != nullptr) ++Level(nd.depth).expanded;
  }

  void OnStep(double lb, double ub, const EvalStats& work) {
    if (audit_) AuditGlobals(lb, ub, work.iterations);
    if (trace_ != nullptr) (*trace_)(work.iterations, lb, ub);
    if (profile_ != nullptr) {
      if (profile_->timeline.size() < TraversalProfile::kMaxTimeline) {
        profile_->timeline.push_back({lb, ub, work.kernel_evals});
      } else {
        profile_->timeline_truncated = true;
      }
    }
    if (tracer_ != nullptr) {
      const uint64_t now = telemetry::MonotonicMicros();
      tracer_->CounterEvent("karl.bounds", now,
                            {{"lb", lb}, {"ub", ub}, {"gap", ub - lb}});
      tracer_->CounterEvent(
          "karl.work", now,
          {{"iteration", static_cast<double>(work.iterations)},
           {"nodes_expanded", static_cast<double>(work.nodes_expanded)},
           {"kernel_evals", static_cast<double>(work.kernel_evals)}});
    }
  }

  void OnFinish(const Frontier& frontier, const EvalStats& work) {
    if (profile_ == nullptr) return;
    // Whatever is left on the frontier was never expanded: the bound was
    // tight enough to decide the query without opening these subtrees.
    frontier.ForEach([&](const Entry& rest) {
      const index::TreeIndex& tree =
          rest.side > 0 ? *ev_.plus_tree_ : *ev_.minus_tree_;
      ++Level(tree.node(rest.node).depth).pruned;
    });
    profile_->iterations = work.iterations;
    profile_->nodes_expanded = work.nodes_expanded;
    profile_->kernel_evals = work.kernel_evals;
  }

 private:
  // Grows the per-level vector on demand; depths arrive in traversal
  // order, so this amortizes to nothing.
  TraversalProfile::Level& Level(uint16_t depth) {
    if (profile_->levels.size() <= depth) {
      profile_->levels.resize(static_cast<size_t>(depth) + 1);
    }
    return profile_->levels[depth];
  }

  // Checks one node's bounds, as the serving bound path produced them,
  // against its exact aggregate. The checks run on the bound function's
  // positive-space interval; a P⁻ entry holds its exact negation, so
  // they are the signed-space checks too.
  void AuditNode(const index::TreeIndex& tree, const Entry& e) const {
    const double lb = e.side > 0 ? e.lb : -e.ub;
    const double ub = e.side > 0 ? e.ub : -e.lb;
    const KernelParams& kernel = ev_.kernel_;
    const double exact = ExactNodeAggregate(kernel, tree, e.node, q_);
    const double tol = 1e-7 * (1.0 + std::abs(exact));
    const auto& nd = tree.node(e.node);
    KARL_CHECK(lb <= ub + tol)
        << ": inverted node bounds; kernel=" << KernelTypeToString(kernel.type)
        << " side=" << static_cast<int>(e.side) << " node=" << e.node
        << " range=[" << nd.begin << "," << nd.end << ") lb=" << lb
        << " ub=" << ub;
    KARL_CHECK(lb <= exact + tol && ub >= exact - tol)
        << ": node bounds exclude the exact aggregate; kernel="
        << KernelTypeToString(kernel.type) << " gamma=" << kernel.gamma
        << " side=" << static_cast<int>(e.side) << " node=" << e.node
        << " range=[" << nd.begin << "," << nd.end << ") lb=" << lb
        << " exact=" << exact << " ub=" << ub;
  }

  // Global invariants, checked at every step (bounds move transiently
  // inside one iteration).
  void AuditGlobals(double lb, double ub, size_t iteration) {
    KARL_CHECK(lb <= ub + tol_)
        << ": global bounds inverted at iteration " << iteration
        << "; lb=" << lb << " ub=" << ub;
    KARL_CHECK(lb <= exact_ + tol_ && ub >= exact_ - tol_)
        << ": global bounds exclude the exact answer at iteration "
        << iteration << "; lb=" << lb << " exact=" << exact_ << " ub=" << ub;
    if (monotone_) {
      const double slack = 1e-7 * (1.0 + std::abs(lb) + std::abs(ub));
      KARL_CHECK(lb >= prev_lb_ - slack && ub <= prev_ub_ + slack)
          << ": refinement not monotone at iteration " << iteration
          << "; lb " << prev_lb_ << " -> " << lb << ", ub " << prev_ub_
          << " -> " << ub;
    }
    prev_lb_ = lb;
    prev_ub_ = ub;
  }

  const Evaluator& ev_;
  std::span<const double> q_;
  const TraceFn* trace_;  // Null unless callable.
  TraversalProfile* profile_;
  telemetry::TraceRecorder* tracer_;
  bool audit_;
  double exact_ = 0.0;
  double tol_ = 0.0;
  bool monotone_ = false;
  double prev_lb_ = -std::numeric_limits<double>::infinity();
  double prev_ub_ = std::numeric_limits<double>::infinity();
};

const char* BoundFamilyName(BoundKind kind) {
  switch (kind) {
    case BoundKind::kSota:
      return "constant";
    case BoundKind::kKarl:
      return "linear";
    case BoundKind::kKarlChordOnly:
      return "linear(chord)";
    case BoundKind::kKarlTangentOnly:
      return "linear(tangent)";
  }
  return "unknown";
}

util::Result<Evaluator> Evaluator::Create(const index::TreeIndex* plus_tree,
                                          const index::TreeIndex* minus_tree,
                                          const KernelParams& kernel,
                                          const Options& options) {
  auto bound_fn = MakeBoundFunction(kernel, options.bounds);
  if (!bound_fn.ok()) return bound_fn.status();
  util::Result<Evaluator> ev =
      CreateWithBounds(plus_tree, minus_tree, kernel, options,
                       std::move(bound_fn).ValueOrDie());
  if (!ev.ok()) return ev;
  Evaluator& e = ev.value();
  const BoundFunction* fn = e.bound_fn_.get();
  if (dynamic_cast<const KarlDistanceBounds*>(fn) != nullptr) {
    e.bound_call_ = BoundCall::kKarlDistance;
  } else if (dynamic_cast<const SotaDistanceBounds*>(fn) != nullptr) {
    e.bound_call_ = BoundCall::kSotaDistance;
  } else if (dynamic_cast<const KarlInnerProductBounds*>(fn) != nullptr) {
    e.bound_call_ = BoundCall::kKarlInnerProduct;
  } else if (dynamic_cast<const SotaInnerProductBounds*>(fn) != nullptr) {
    e.bound_call_ = BoundCall::kSotaInnerProduct;
  }
  return ev;
}

util::Result<Evaluator> Evaluator::CreateWithBounds(
    const index::TreeIndex* plus_tree, const index::TreeIndex* minus_tree,
    const KernelParams& kernel, const Options& options,
    std::unique_ptr<BoundFunction> bound_fn) {
  if (plus_tree == nullptr) {
    return util::Status::InvalidArgument("plus tree is required");
  }
  if (bound_fn == nullptr) {
    return util::Status::InvalidArgument("bound function is required");
  }
  KARL_RETURN_NOT_OK(kernel.Validate());

  Evaluator ev;
  ev.plus_tree_ = plus_tree;
  ev.minus_tree_ = minus_tree;
  ev.kernel_ = kernel;
  ev.options_ = options;
  ev.bound_fn_ = std::move(bound_fn);
  if (options.metrics != nullptr) {
    telemetry::Registry& reg = *options.metrics;
    ev.instruments_.latency_usec =
        reg.GetRollingHistogram("karl_query_latency_usec");
    ev.instruments_.prune_ratio =
        reg.GetRollingHistogram("karl_query_prune_ratio");
    ev.instruments_.queries_tkaq = reg.GetCounter("karl_tkaq_queries_total");
    ev.instruments_.queries_ekaq = reg.GetCounter("karl_ekaq_queries_total");
    ev.instruments_.queries_exact = reg.GetCounter("karl_exact_queries_total");
    ev.instruments_.iterations = reg.GetCounter("karl_refine_iterations_total");
    ev.instruments_.nodes_expanded =
        reg.GetCounter("karl_nodes_expanded_total");
    ev.instruments_.kernel_evals = reg.GetCounter("karl_kernel_evals_total");
    ev.instruments_.scan_point_evals =
        reg.GetCounter("karl_scan_point_evals_total");
    ev.instruments_.overall_prune_ratio = reg.GetGauge("karl_prune_ratio");
    ev.instrumented_ = true;
  }
  return ev;
}

size_t Evaluator::TotalPoints() const {
  size_t total = plus_tree_->points().rows();
  if (minus_tree_ != nullptr) total += minus_tree_->points().rows();
  return total;
}

void Evaluator::RecordQueryMetrics(telemetry::Counter* query_counter,
                                   const EvalStats& work,
                                   double elapsed_usec) const {
  query_counter->Increment();
  instruments_.iterations->Add(work.iterations);
  instruments_.nodes_expanded->Add(work.nodes_expanded);
  instruments_.kernel_evals->Add(work.kernel_evals);
  const size_t total = TotalPoints();
  instruments_.scan_point_evals->Add(total);
  instruments_.latency_usec->Record(elapsed_usec);
  if (total > 0) {
    const double per_query =
        1.0 - static_cast<double>(work.kernel_evals) /
                  static_cast<double>(total);
    instruments_.prune_ratio->Record(std::clamp(per_query, 0.0, 1.0));
    const double scanned =
        static_cast<double>(instruments_.scan_point_evals->value());
    const double evaluated =
        static_cast<double>(instruments_.kernel_evals->value());
    instruments_.overall_prune_ratio->Set(
        std::clamp(1.0 - evaluated / scanned, 0.0, 1.0));
  }
}

template <typename Stop>
EvalStats Evaluator::Refine(std::span<const double> q, Stop stop,
                            const TraceFn* trace, TraversalProfile* profile,
                            double* lb, double* ub) const {
  const auto run = [&](auto& observer) {
    const BoundFunction& fn = *bound_fn_;
    switch (bound_call_) {
      case BoundCall::kSotaDistance:
        return RefineWith(static_cast<const SotaDistanceBounds&>(fn), q, stop,
                          observer, lb, ub);
      case BoundCall::kKarlDistance:
        return RefineWith(static_cast<const KarlDistanceBounds&>(fn), q, stop,
                          observer, lb, ub);
      case BoundCall::kSotaInnerProduct:
        return RefineWith(static_cast<const SotaInnerProductBounds&>(fn), q,
                          stop, observer, lb, ub);
      case BoundCall::kKarlInnerProduct:
        return RefineWith(static_cast<const KarlInnerProductBounds&>(fn), q,
                          stop, observer, lb, ub);
      case BoundCall::kVirtual:
        break;
    }
    return RefineWith(fn, q, stop, observer, lb, ub);
  };
  if (profile == nullptr && (trace == nullptr || !*trace) &&
      options_.tracer == nullptr && !options_.audit_bounds) {
    NullObserver observer;
    return run(observer);
  }
  RefineObserver observer(*this, q, trace, profile);
  return run(observer);
}

template <typename Bound, typename Stop, typename Observer>
EvalStats Evaluator::RefineWith(const Bound& bound, std::span<const double> q,
                                Stop stop, Observer& observer, double* out_lb,
                                double* out_ub) const {
  const QueryContext ctx = QueryContext::Make(q);
  Frontier frontier;
  // [lb, ub] are running sums: every admission adds a node's bounds and
  // every pop subtracts them, which leaves a rounding residue of about an
  // ulp of the largest bound ever held. `leaf` sums the exact leaf values
  // alone, and only ever grows by them; with the live frontier bounds it
  // re-sums the enclosure without that residue (DESIGN.md §2).
  double lb = 0.0;
  double ub = 0.0;
  double leaf = 0.0;
  EvalStats work;

  // Treats a node as a leaf when it has no children or sits at the level
  // cap (the in-situ tuner's T_i simulation).
  const int depth_cap = options_.max_level < 0
                            ? std::numeric_limits<int>::max()
                            : static_cast<uint16_t>(options_.max_level);
  const auto is_effective_leaf = [&](const index::TreeIndex& tree,
                                     index::NodeId id) {
    const auto& nd = tree.node(id);
    return nd.is_leaf() || nd.depth >= depth_cap;
  };

  // Folds node `id`'s bounds [node.lb, node.ub] (signed by `side`) into
  // [lb, ub] and pushes its frontier entry.
  const auto push = [&](const index::TreeIndex& tree, int8_t side,
                        index::NodeId id, const simd::NodeInterval& node) {
    Entry e;
    e.node = id;
    e.side = side;
    if (side > 0) {
      e.lb = node.lb;
      e.ub = node.ub;
    } else {
      // P⁻ node: Σ w_i K ∈ [node.lb, node.ub] contributes its negation.
      e.lb = -node.ub;
      e.ub = -node.lb;
    }
    observer.OnPush(tree, e);
    lb += e.lb;
    ub += e.ub;
    frontier.Push(e, e.ub - e.lb);
  };

  // Either folds the exact leaf value of node `id` into [lb, ub], or
  // bounds the node and pushes it.
  const auto admit = [&](const index::TreeIndex& tree, int8_t side,
                         index::NodeId id) {
    if (is_effective_leaf(tree, id)) {
      const auto& nd = tree.node(id);
      const double exact =
          static_cast<double>(side) *
          simd::LeafAggregate(kernel_, tree.points(), nd.begin, nd.end, q);
      work.kernel_evals += nd.count();
      observer.OnLeaf(nd);
      leaf += exact;
      lb += exact;
      ub += exact;
      return;
    }
    simd::NodeInterval node;
    bound.NodeBounds(tree, id, ctx, &node.lb, &node.ub);
    push(tree, side, id, node);
  };

  // Admits both children of an expanded node, left then right. Two
  // bounded kd children of the full Gaussian KARL bound take one fused
  // pass; its intervals equal NodeBounds', so the frontier is the same.
  [[maybe_unused]] bool fuse_plus = false;
  [[maybe_unused]] bool fuse_minus = false;
  if constexpr (std::is_same_v<Bound, KarlDistanceBounds>) {
    fuse_plus = bound.FusesBoxes(*plus_tree_);
    fuse_minus = minus_tree_ != nullptr && bound.FusesBoxes(*minus_tree_);
  }
  const auto expand = [&](const index::TreeIndex& tree, int8_t side,
                          const index::TreeIndex::Node& nd) {
    if constexpr (std::is_same_v<Bound, KarlDistanceBounds>) {
      if ((side > 0 ? fuse_plus : fuse_minus) &&
          !is_effective_leaf(tree, nd.left) &&
          !is_effective_leaf(tree, nd.right)) {
        simd::NodeInterval both[2];
        bound.SiblingBounds(tree, nd.left, nd.right, ctx, both);
        push(tree, side, nd.left, both[0]);
        push(tree, side, nd.right, both[1]);
        return;
      }
    }
    admit(tree, side, nd.left);
    admit(tree, side, nd.right);
  };

  admit(*plus_tree_, +1, plus_tree_->root());
  if (minus_tree_ != nullptr) admit(*minus_tree_, -1, minus_tree_->root());
  observer.OnStep(lb, ub, work);

  while (!frontier.empty()) {
    // The running sums only propose a stop; the re-summed enclosure
    // confirms it, or refinement goes on from the re-summed values.
    if (stop(lb, ub)) {
      frontier.SumBounds(leaf, &lb, &ub);
      if (stop(lb, ub)) break;
    }
    const Entry top = frontier.Pop();
    ++work.iterations;
    lb -= top.lb;
    ub -= top.ub;

    const index::TreeIndex& tree =
        top.side > 0 ? *plus_tree_ : *minus_tree_;
    const auto& nd = tree.node(top.node);
    KARL_DCHECK(!nd.is_leaf())
        << ": leaf node " << top.node << " reached the frontier";
    ++work.nodes_expanded;
    observer.OnExpand(nd);
    expand(tree, top.side, nd);
    frontier.Settle();
    observer.OnStep(lb, ub, work);
  }

  observer.OnFinish(frontier, work);
  // A drained frontier leaves the exact leaf sum alone.
  if (frontier.empty()) lb = ub = leaf;
  *out_lb = lb;
  *out_ub = ub;
  return work;
}

bool Evaluator::QueryThreshold(std::span<const double> q, double tau,
                               EvalStats* stats, const TraceFn* trace,
                               TraversalProfile* profile) const {
  telemetry::TraceRecorder* const tracer = options_.tracer;
  std::optional<util::Stopwatch> timer;
  if (instrumented_) timer.emplace();
  const uint64_t trace_start =
      tracer != nullptr ? telemetry::MonotonicMicros() : 0;

  double lb = 0.0, ub = 0.0;
  const auto stop = [tau](double l, double u) { return l > tau || u <= tau; };
  const EvalStats work = Refine(q, stop, trace, profile, &lb, &ub);
  if (stats != nullptr) *stats += work;
  // Refinement ends on a decided enclosure, or on a drained frontier whose
  // lb == ub is the exact leaf sum; either way lb decides.
  const bool result = lb > tau;

  if (instrumented_) {
    RecordQueryMetrics(instruments_.queries_tkaq, work,
                       timer->ElapsedSeconds() * 1e6);
  }
  if (tracer != nullptr) {
    tracer->CompleteEvent(
        "tkaq", trace_start, telemetry::MonotonicMicros() - trace_start,
        {{"tau", tau},
         {"result", result ? 1.0 : 0.0},
         {"lb", lb},
         {"ub", ub},
         {"iterations", static_cast<double>(work.iterations)},
         {"nodes_expanded", static_cast<double>(work.nodes_expanded)},
         {"kernel_evals", static_cast<double>(work.kernel_evals)}});
  }
  return result;
}

double Evaluator::QueryApproximate(std::span<const double> q, double eps,
                                   EvalStats* stats, const TraceFn* trace,
                                   TraversalProfile* profile) const {
  KARL_CHECK(eps > 0.0 && std::isfinite(eps))
      << ": eKAQ needs a finite positive epsilon, got " << eps;
  telemetry::TraceRecorder* const tracer = options_.tracer;
  std::optional<util::Stopwatch> timer;
  if (instrumented_) timer.emplace();
  const uint64_t trace_start =
      tracer != nullptr ? telemetry::MonotonicMicros() : 0;

  double lb = 0.0, ub = 0.0;
  // The contract is (1−ε)F <= F̂ <= (1+ε)F. Given 0 <= lb <= F <= ub, some
  // F̂ meets it for every such F exactly when (1−ε)·ub <= (1+ε)·lb, and
  // the harmonic mean of lb and ub is that F̂; the mirrored clause covers
  // negative aggregates (polynomial/sigmoid kernels, even under positive
  // weights). The paper stops at ub <= (1+ε)·lb and returns lb, which
  // refines until the gap is about half of what the contract needs
  // (DESIGN.md §2). For ε >= 1 the first enclosure on one side of zero
  // suffices. The last stop clause short-circuits only when F is provably
  // (numerically) zero; any looser absolute cutoff would break the
  // relative guarantee for tiny densities.
  const auto within = [eps](double l, double u) {
    return (l >= 0.0 && (1.0 - eps) * u <= (1.0 + eps) * l) ||
           (u <= 0.0 && (1.0 - eps) * l >= (1.0 + eps) * u);
  };
  const auto stop = [&within](double l, double u) {
    return within(l, u) || (u <= 1e-300 && l >= -1e-300);
  };
  const EvalStats work = Refine(q, stop, trace, profile, &lb, &ub);
  if (stats != nullptr) *stats += work;
  const double result =
      within(lb, ub) ? HarmonicMean(lb, ub) : 0.5 * (lb + ub);

  if (instrumented_) {
    RecordQueryMetrics(instruments_.queries_ekaq, work,
                       timer->ElapsedSeconds() * 1e6);
  }
  if (tracer != nullptr) {
    tracer->CompleteEvent(
        "ekaq", trace_start, telemetry::MonotonicMicros() - trace_start,
        {{"eps", eps},
         {"value", result},
         {"iterations", static_cast<double>(work.iterations)},
         {"nodes_expanded", static_cast<double>(work.nodes_expanded)},
         {"kernel_evals", static_cast<double>(work.kernel_evals)}});
  }
  return result;
}

double Evaluator::ScanExact(std::span<const double> q) const {
  const auto full_scan = [&](const index::TreeIndex& tree) {
    return simd::LeafAggregate(kernel_, tree.points(), 0,
                               static_cast<uint32_t>(tree.points().rows()), q);
  };
  double total = full_scan(*plus_tree_);
  if (minus_tree_ != nullptr) total -= full_scan(*minus_tree_);
  return total;
}

double Evaluator::QueryExact(std::span<const double> q,
                             EvalStats* stats) const {
  telemetry::TraceRecorder* const tracer = options_.tracer;
  std::optional<util::Stopwatch> timer;
  if (instrumented_) timer.emplace();
  const uint64_t trace_start =
      tracer != nullptr ? telemetry::MonotonicMicros() : 0;

  const double total = ScanExact(q);
  const size_t evals = TotalPoints();
  if (stats != nullptr) stats->kernel_evals += evals;

  if (instrumented_) {
    EvalStats delta;
    delta.kernel_evals = evals;
    RecordQueryMetrics(instruments_.queries_exact, delta,
                       timer->ElapsedSeconds() * 1e6);
  }
  if (tracer != nullptr) {
    tracer->CompleteEvent(
        "exact", trace_start, telemetry::MonotonicMicros() - trace_start,
        {{"value", total}, {"kernel_evals", static_cast<double>(evals)}});
  }
  return total;
}

void Evaluator::RefineToConvergence(std::span<const double> q,
                                    size_t max_iterations, double* lb,
                                    double* ub, const TraceFn* trace) const {
  auto cap = [seen = size_t{0}, max_iterations](double, double) mutable {
    return seen++ >= max_iterations;
  };
  Refine(q, cap, trace, nullptr, lb, ub);
}

double ExactAggregate(const data::Matrix& points,
                      std::span<const double> weights,
                      const KernelParams& kernel, std::span<const double> q) {
  KARL_DCHECK(weights.size() == points.rows())
      << ": " << weights.size() << " weights for " << points.rows()
      << " points";
  util::KahanAccumulator acc;
  for (size_t i = 0; i < points.rows(); ++i) {
    acc.Add(weights[i] * KernelValue(kernel, q, points.Row(i)));
  }
  return acc.Total();
}

double ExactAggregateSparse(const data::SparseMatrix& points,
                            std::span<const double> weights,
                            const KernelParams& kernel,
                            std::span<const double> q) {
  KARL_DCHECK(weights.size() == points.rows())
      << ": " << weights.size() << " weights for " << points.rows()
      << " points";
  const double q_sqnorm = util::SquaredNorm(q);
  util::KahanAccumulator acc;
  const double dist_scale = DistanceArgScale(kernel);
  for (size_t i = 0; i < points.rows(); ++i) {
    const double ip = points.DotDense(i, q);
    double value;
    if (IsInnerProductKernel(kernel.type)) {
      value = KernelProfile(kernel, kernel.gamma * ip + kernel.beta);
    } else {
      const double sq_dist =
          std::max(0.0, q_sqnorm - 2.0 * ip + points.RowSquaredNorm(i));
      value = KernelProfile(kernel, dist_scale * sq_dist);
    }
    acc.Add(weights[i] * value);
  }
  return acc.Total();
}

}  // namespace karl::core
