// Lower/upper bound functions on per-node kernel aggregates — the paper's
// central contribution (§III-A, §III-B, §IV-B).
//
// For a tree node covering points {p_i} with positive weights {w_i}, a
// BoundFunction computes [lb, ub] enclosing Σ w_i·K(q, p_i) in O(d) time:
//
//  * SOTA bounds (§II-B): constant bounds w_P·f(x_hi), w_P·f(x_lo) from
//    the extreme profile arguments reachable inside the node region.
//  * KARL bounds (§III-B): linear functions E(x) = m·x + c sandwiching
//    the kernel profile f(x) on [x_lo, x_hi]; aggregating a linear
//    function needs only the node's precomputed sums (Lemma 2/5):
//        Σ w_i (m·x_i + c) = m·X + c·w_P,
//    where X = Σ w_i·x_i follows from (w_P, a_P, b_P).
//    - convex profiles: chord above (Lemma 3), optimal tangent below at
//      the weighted mean t_opt = X / w_P (Theorems 1–2);
//    - concave profiles: the mirror image;
//    - monotone single-inflection profiles (odd-degree polynomial,
//      sigmoid) on a mixed interval: the paper's "rotate" construction
//      (Fig. 8) — the tightest line through the appropriate endpoint,
//      found as the extremum of secant slopes from that pivot.

#ifndef KARL_CORE_BOUNDS_H_
#define KARL_CORE_BOUNDS_H_

#include <memory>
#include <span>

#include "core/kernel.h"
#include "core/simd/simd.h"
#include "index/tree_index.h"

namespace karl::core {

/// Which bound family to use during query evaluation.
enum class BoundKind {
  kSota,  ///< State-of-the-art constant bounds [Gray&Moore'03, Gan&Bailis'17].
  kKarl,  ///< This paper's linear bounds.
  /// Ablation variants (Gaussian kernel; inner-product kernels fall back
  /// to full KARL): only one of the two linear constructions is active,
  /// the other side uses the SOTA constant bound.
  kKarlChordOnly,    ///< Chord upper bound + SOTA lower bound.
  kKarlTangentOnly,  ///< SOTA upper bound + optimal-tangent lower bound.
};

/// Human-readable name ("SOTA" / "KARL").
std::string_view BoundKindToString(BoundKind kind);

/// A linear function m·x + c.
struct LinearFn {
  double m = 0.0;
  double c = 0.0;

  /// Evaluates the line at x.
  double At(double x) const { return m * x + c; }
};

/// Per-query precomputed state shared across node-bound evaluations.
struct QueryContext {
  std::span<const double> q;
  double q_sqnorm = 0.0;  ///< ||q||², used by the Gaussian fast path.

  /// Builds the context (computes ||q||²).
  static QueryContext Make(std::span<const double> q);
};

/// Computes [*lb, *ub] enclosing Σ_{i∈node} w_i·K(q, p_i). Requires all
/// node weights to be positive (Type III splits into two positive-weight
/// trees before reaching here).
class BoundFunction {
 public:
  virtual ~BoundFunction() = default;

  /// Bound computation for one node; O(d) time.
  virtual void NodeBounds(const index::TreeIndex& tree, index::NodeId id,
                          const QueryContext& ctx, double* lb,
                          double* ub) const = 0;
};

// ---------------------------------------------------------------------
// The bound families. Each is final, so a caller holding the concrete
// type (the evaluator resolves it once at creation) calls NodeBounds
// directly instead of through the vtable.
// ---------------------------------------------------------------------

/// Distance kernels (Gaussian, Laplacian, Cauchy), SOTA constants
/// (§II-B): w_P·f(x_hi) ≤ Σ ≤ w_P·f(x_lo), f decreasing, where
/// x = DistanceArgScale·dist² over the node region.
class SotaDistanceBounds final : public BoundFunction {
 public:
  explicit SotaDistanceBounds(const KernelParams& params);
  void NodeBounds(const index::TreeIndex& tree, index::NodeId id,
                  const QueryContext& ctx, double* lb,
                  double* ub) const override;

 private:
  KernelParams params_;
  double scale_;
};

/// Distance kernels, KARL (§III): chord upper bound + optimal-tangent
/// lower bound, each aggregated in O(d) via the node sums. The tangent
/// point at the weighted mean is optimal for ANY convex profile (Theorem
/// 1/2's proof uses only H'(t) = f''(t)·(X − t·w_P)). The constructor
/// flags disable one side (replacing it with the SOTA constant) for
/// ablation studies.
///
/// The full Gaussian bound on a kd tree is simd::KarlGaussianBoxBounds:
/// NodeBounds is its 1-box call, and SiblingBounds bounds two nodes in
/// one fused pass.
class KarlDistanceBounds final : public BoundFunction {
 public:
  KarlDistanceBounds(const KernelParams& params, bool use_chord_upper,
                     bool use_tangent_lower);
  void NodeBounds(const index::TreeIndex& tree, index::NodeId id,
                  const QueryContext& ctx, double* lb,
                  double* ub) const override;

  /// True iff `tree`'s nodes take the fused box op: a Gaussian kernel,
  /// both linear sides on, and a kd tree.
  bool FusesBoxes(const index::TreeIndex& tree) const {
    return full_gaussian_ && tree.kind() == index::IndexKind::kKdTree;
  }

  /// The bounds of nodes `left` and `right` of `tree` in one pass; needs
  /// FusesBoxes(tree). out[0] and out[1] are bit for bit what NodeBounds
  /// returns for each node alone.
  void SiblingBounds(const index::TreeIndex& tree, index::NodeId left,
                     index::NodeId right, const QueryContext& ctx,
                     simd::NodeInterval out[2]) const;

 private:
  KernelParams params_;
  double scale_;
  bool use_chord_upper_;
  bool use_tangent_lower_;
  bool full_gaussian_;  // Gaussian kernel with both linear sides on.
};

/// Inner-product kernels (polynomial, sigmoid), SOTA-style constants:
/// w_P times the min/max of the profile on [x_lo, x_hi], where
/// x = γ·(q·p) + β over the node region.
class SotaInnerProductBounds final : public BoundFunction {
 public:
  explicit SotaInnerProductBounds(const KernelParams& params);
  void NodeBounds(const index::TreeIndex& tree, index::NodeId id,
                  const QueryContext& ctx, double* lb,
                  double* ub) const override;

 private:
  KernelParams params_;
};

/// Inner-product kernels, KARL linear bounds dispatching on curvature
/// (§IV-B): chord/tangent for convex or concave intervals, the Fig. 8
/// pivot construction for mixed monotone intervals.
class KarlInnerProductBounds final : public BoundFunction {
 public:
  explicit KarlInnerProductBounds(const KernelParams& params);
  void NodeBounds(const index::TreeIndex& tree, index::NodeId id,
                  const QueryContext& ctx, double* lb,
                  double* ub) const override;

 private:
  KernelParams params_;
};

/// Creates the bound implementation for the kernel/bound-kind pair.
/// Fails for invalid kernel parameters.
util::Result<std::unique_ptr<BoundFunction>> MakeBoundFunction(
    const KernelParams& params, BoundKind kind);

// ---------------------------------------------------------------------
// Bound-invariant auditing (the KARL_AUDIT_BOUNDS correctness tooling).
// ---------------------------------------------------------------------

/// Exact Σ_{i∈node} w_i·K(q, p_i) over the node's permuted point range —
/// the ground truth the evaluator's auditor (Evaluator::Options::
/// audit_bounds) compares every admitted node's bounds against.
/// O(count·d), so audit paths only.
double ExactNodeAggregate(const KernelParams& params,
                          const index::TreeIndex& tree, index::NodeId id,
                          std::span<const double> q);

// ---------------------------------------------------------------------
// Pure bound-construction math, exposed for unit and property testing.
// ---------------------------------------------------------------------

/// Chord of exp(−x) through (lo, e^{−lo}) and (hi, e^{−hi}) — a valid
/// upper bound of exp(−x) on [lo, hi] by convexity (paper Eq. 6–7).
/// Requires hi > lo.
LinearFn ExpChord(double lo, double hi);

/// Tangent of exp(−x) at t — a valid lower bound of exp(−x) everywhere.
LinearFn ExpTangent(double t);

/// Chord of the kernel profile f through its endpoint values on [lo, hi].
/// Requires hi > lo.
LinearFn ProfileChord(const KernelParams& params, double lo, double hi);

/// Tangent of the kernel profile f at t.
LinearFn ProfileTangent(const KernelParams& params, double t);

/// The paper's Fig. 8 "rotate" construction: the tightest line through
/// the pivot endpoint (`pivot_at_right` picks hi vs lo) that bounds the
/// profile f from above (`upper` = true) or below on [lo, hi]. Valid for
/// the library's single-inflection profiles. Requires hi > lo.
LinearFn PivotLine(const KernelParams& params, double lo, double hi,
                   bool pivot_at_right, bool upper);

/// Curvature of a profile on an interval.
enum class Curvature {
  kConvex,
  kConcave,
  kMixedConcaveConvex,  ///< concave for x<=0, convex for x>=0 (odd x^deg)
  kMixedConvexConcave,  ///< convex for x<=0, concave for x>=0 (tanh)
  kLinear,
};

/// Classifies the kernel profile's curvature on [lo, hi].
Curvature ClassifyProfile(const KernelParams& params, double lo, double hi);

}  // namespace karl::core

#endif  // KARL_CORE_BOUNDS_H_
