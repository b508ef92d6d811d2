#include "core/bounds.h"

#include <algorithm>
#include <cmath>

#include "core/simd/simd.h"
#include "util/check.h"
#include "util/math_util.h"

namespace karl::core {

using simd::kDegenerateInterval;

std::string_view BoundKindToString(BoundKind kind) {
  switch (kind) {
    case BoundKind::kSota:
      return "SOTA";
    case BoundKind::kKarl:
      return "KARL";
    case BoundKind::kKarlChordOnly:
      return "KARL-chord-only";
    case BoundKind::kKarlTangentOnly:
      return "KARL-tangent-only";
  }
  return "unknown";
}

QueryContext QueryContext::Make(std::span<const double> q) {
  QueryContext ctx;
  ctx.q = q;
  // Tier-dispatched: the scalar tier is bit-identical to
  // util::SquaredNorm (see core/simd/simd.h for the contract).
  ctx.q_sqnorm = simd::SquaredNorm(q);
  return ctx;
}

LinearFn ExpChord(double lo, double hi) {
  KARL_DCHECK(hi > lo) << ": chord needs a proper interval, got [" << lo
                       << ", " << hi << "]";
  const double flo = std::exp(-lo);
  const double fhi = std::exp(-hi);
  LinearFn line;
  line.m = (fhi - flo) / (hi - lo);
  line.c = (hi * flo - lo * fhi) / (hi - lo);
  return line;
}

LinearFn ExpTangent(double t) {
  const double e = std::exp(-t);
  return LinearFn{-e, (1.0 + t) * e};
}

LinearFn ProfileChord(const KernelParams& params, double lo, double hi) {
  KARL_DCHECK(hi > lo) << ": chord needs a proper interval, got [" << lo
                       << ", " << hi << "]";
  const double flo = KernelProfile(params, lo);
  const double fhi = KernelProfile(params, hi);
  LinearFn line;
  line.m = (fhi - flo) / (hi - lo);
  line.c = flo - line.m * lo;
  return line;
}

LinearFn ProfileTangent(const KernelParams& params, double t) {
  const double f = KernelProfile(params, t);
  const double df = KernelProfileDerivative(params, t);
  return LinearFn{df, f - df * t};
}

Curvature ClassifyProfile(const KernelParams& params, double lo, double hi) {
  switch (params.type) {
    case KernelType::kGaussian:
    case KernelType::kLaplacian:
    case KernelType::kCauchy:
      // All distance profiles are convex on their domain x >= 0.
      return Curvature::kConvex;
    case KernelType::kPolynomial:
      if (params.degree == 1) return Curvature::kLinear;
      if (params.degree % 2 == 0) return Curvature::kConvex;
      // Odd degree >= 3: f'' = deg(deg−1)x^{deg−2} has the sign of x.
      if (lo >= 0.0) return Curvature::kConvex;
      if (hi <= 0.0) return Curvature::kConcave;
      return Curvature::kMixedConcaveConvex;
    case KernelType::kSigmoid:
      // tanh'' = −2·tanh·sech² has the opposite sign of x.
      if (hi <= 0.0) return Curvature::kConvex;
      if (lo >= 0.0) return Curvature::kConcave;
      return Curvature::kMixedConvexConcave;
  }
  return Curvature::kConvex;
}

LinearFn PivotLine(const KernelParams& params, double lo, double hi,
                   bool pivot_at_right, bool upper) {
  KARL_DCHECK(hi > lo) << ": pivot line needs a proper interval, got [" << lo
                       << ", " << hi << "]";
  const double px = pivot_at_right ? hi : lo;
  const double py = KernelProfile(params, px);

  // Tangency residual: tangent at t, evaluated at the pivot, minus the
  // pivot value. h(t) = 0 <=> the tangent at t passes through the pivot,
  // i.e. t is the paper's rotation contact point.
  const auto h = [&](double t) {
    return KernelProfile(params, t) +
           KernelProfileDerivative(params, t) * (px - t) - py;
  };

  // The contact point lives on the branch whose curvature matches the
  // bound side: the branch on the opposite side of the inflection (0)
  // from the pivot. A tangent at ANY branch point t̂ whose h(t̂) lies on
  // the bound's safe side (h >= 0 for upper, <= 0 for lower) is a valid
  // bound on the whole interval: on its own branch by tangency, at the
  // pivot by the sign of h, and on the remaining convex/concave segment
  // because a line that dominates a convex (or is dominated by a concave)
  // function at both segment endpoints dominates it throughout.
  double branch_lo, branch_hi;
  if (pivot_at_right) {
    branch_lo = lo;
    branch_hi = std::min(0.0, hi);
  } else {
    branch_lo = std::max(0.0, lo);
    branch_hi = hi;
  }
  const double safe_sign = upper ? +1.0 : -1.0;
  const auto is_safe = [safe_sign](double value) {
    return value * safe_sign >= 0.0;
  };

  if (branch_hi - branch_lo < kDegenerateInterval) {
    return ProfileChord(params, lo, hi);  // No opposite branch: secant.
  }

  // Closed form for the cubic (LIBSVM's default degree): the tangent from
  // the pivot (p, p^3) touches x^3 at t = -p/2 exactly
  // (2t^3 - 3pt^2 + p^3 = (t - p)^2 (2t + p)).
  if (params.type == KernelType::kPolynomial && params.degree == 3) {
    const double t_star = -0.5 * px;
    if (t_star >= branch_lo && t_star <= branch_hi) {
      return ProfileTangent(params, t_star);
    }
  }

  double a = branch_lo, b = branch_hi;
  double ha = h(a), hb = h(b);
  if (!is_safe(ha) && !is_safe(hb)) {
    // No rotation contact inside the branch: the line rotates all the way
    // to the endpoint secant (valid: it is the extremal secant slope).
    return ProfileChord(params, lo, hi);
  }
  if (is_safe(ha) && is_safe(hb)) {
    // Whole branch is safe; the tighter end is the one nearer tangency.
    return ProfileTangent(params, std::abs(ha) <= std::abs(hb) ? a : b);
  }

  // Bracketing bisection, always retaining the safe end; the returned
  // tangent is taken at the safe end, so early termination stays valid.
  const bool a_safe = is_safe(ha);
  for (int iter = 0; iter < 48; ++iter) {
    const double mid = 0.5 * (a + b);
    const double hm = h(mid);
    if (is_safe(hm) == a_safe) {
      a = mid;
      ha = hm;
    } else {
      b = mid;
      hb = hm;
    }
  }
  return ProfileTangent(params, a_safe ? a : b);
}

namespace {

// The node geometry the distance bounds need: mindist², maxdist² of the
// node region from q, and q·a_P. A kd box takes the fused tier-dispatched
// pass over its corners and a_P; a ball one centre distance plus the dot.
simd::NodeGeometry DistanceGeometry(const index::TreeIndex& tree,
                                    index::NodeId id,
                                    const QueryContext& ctx) {
  const std::span<const double> a_p = tree.weighted_point_sum(id);
  if (tree.kind() == index::IndexKind::kKdTree) {
    const size_t d = a_p.size();
    const size_t off = static_cast<size_t>(id) * d;
    return simd::BoxGeometry(tree.region_data_a().subspan(off, d),
                             tree.region_data_b().subspan(off, d), a_p,
                             ctx.q);
  }
  simd::NodeGeometry g;
  tree.DistanceBounds(id, ctx.q, &g.min_sq, &g.max_sq);
  g.q_dot_a = simd::Dot(ctx.q, a_p);
  return g;
}

// The summary of kd node `id` as simd::KarlGaussianBoxBounds reads it.
simd::KdBoxSummary KdBox(const index::TreeIndex& tree, index::NodeId id) {
  const size_t off = static_cast<size_t>(id) * tree.points().dims();
  return {tree.region_data_a().data() + off,
          tree.region_data_b().data() + off,
          tree.weighted_point_sum(id).data(), tree.weight_sum(id),
          tree.weighted_sqnorm_sum(id)};
}

// Computes the node's profile-argument interval and aggregate
// X = Σ w_i·x_i = γ·(q·a_P) + β·w_P.
struct IpNodeState {
  double x_lo = 0.0;
  double x_hi = 0.0;
  double sum_x = 0.0;
  double w = 0.0;
};

IpNodeState MakeIpState(const KernelParams& params,
                        const index::TreeIndex& tree, index::NodeId id,
                        const QueryContext& ctx) {
  IpNodeState st;
  double ip_min = 0.0, ip_max = 0.0;
  tree.InnerProductBounds(id, ctx.q, &ip_min, &ip_max);
  st.x_lo = params.gamma * ip_min + params.beta;
  st.x_hi = params.gamma * ip_max + params.beta;
  st.w = tree.weight_sum(id);
  st.sum_x = util::Clamp(
      params.gamma * simd::Dot(ctx.q, tree.weighted_point_sum(id)) +
          params.beta * st.w,
      st.w * st.x_lo, st.w * st.x_hi);
  return st;
}

}  // namespace

// ---------------------------------------------------------------------
// Distance-kernel bounds (Gaussian, Laplacian, Cauchy). Profile
// argument: x = DistanceArgScale·dist(q,p)², on which every distance
// profile is convex decreasing.
// ---------------------------------------------------------------------

SotaDistanceBounds::SotaDistanceBounds(const KernelParams& params)
    : params_(params), scale_(DistanceArgScale(params)) {}

void SotaDistanceBounds::NodeBounds(const index::TreeIndex& tree,
                                    index::NodeId id, const QueryContext& ctx,
                                    double* lb, double* ub) const {
  const simd::NodeGeometry g = DistanceGeometry(tree, id, ctx);
  const double w = tree.weight_sum(id);
  *lb = w * KernelProfile(params_, scale_ * g.max_sq);
  *ub = w * KernelProfile(params_, scale_ * g.min_sq);
}

KarlDistanceBounds::KarlDistanceBounds(const KernelParams& params,
                                       bool use_chord_upper,
                                       bool use_tangent_lower)
    : params_(params),
      scale_(DistanceArgScale(params)),
      use_chord_upper_(use_chord_upper),
      use_tangent_lower_(use_tangent_lower),
      full_gaussian_(params.type == KernelType::kGaussian && use_chord_upper &&
                     use_tangent_lower) {}

void KarlDistanceBounds::SiblingBounds(const index::TreeIndex& tree,
                                       index::NodeId left, index::NodeId right,
                                       const QueryContext& ctx,
                                       simd::NodeInterval out[2]) const {
  KARL_DCHECK(FusesBoxes(tree)) << ": SiblingBounds without the fused op";
  const simd::KdBoxSummary boxes[2] = {KdBox(tree, left), KdBox(tree, right)};
  simd::KarlGaussianBoxBounds(ctx.q, ctx.q_sqnorm, scale_, boxes, out);
}

void KarlDistanceBounds::NodeBounds(const index::TreeIndex& tree,
                                    index::NodeId id, const QueryContext& ctx,
                                    double* lb, double* ub) const {
  simd::NodeInterval out;
  if (FusesBoxes(tree)) {
    const simd::KdBoxSummary box = KdBox(tree, id);
    simd::KarlGaussianBoxBounds(ctx.q, ctx.q_sqnorm, scale_, {&box, 1}, &out);
    *lb = out.lb;
    *ub = out.ub;
    return;
  }
  const simd::NodeGeometry g = DistanceGeometry(tree, id, ctx);
  const double w = tree.weight_sum(id);
  if (full_gaussian_) {
    // A ball-tree node: the same Gaussian arithmetic on its geometry.
    out = simd::ScalarKarlGaussianBounds(g, w, tree.weighted_sqnorm_sum(id),
                                         ctx.q_sqnorm, scale_);
    *lb = out.lb;
    *ub = out.ub;
    return;
  }
  // Laplacian and Cauchy profiles, and the one-sided ablation bounds.
  const double x_lo = scale_ * g.min_sq;
  const double x_hi = scale_ * g.max_sq;
  const bool gaussian = params_.type == KernelType::kGaussian;

  if (x_hi - x_lo < kDegenerateInterval) {
    // Numerically constant profile over the node.
    *lb = w * KernelProfile(params_, x_hi);
    *ub = w * KernelProfile(params_, x_lo);
    return;
  }

  // X = Σ w_i·x_i = s·(w_P‖q‖² − 2 q·a_P + b_P)  (Lemma 2/5), clamped
  // into its mathematically feasible range for numerical robustness.
  const double sum_x = util::Clamp(
      scale_ * (w * ctx.q_sqnorm - 2.0 * g.q_dot_a +
                tree.weighted_sqnorm_sum(id)),
      w * x_lo, w * x_hi);

  if (use_chord_upper_) {
    const LinearFn chord =
        gaussian ? ExpChord(x_lo, x_hi) : ProfileChord(params_, x_lo, x_hi);
    *ub = chord.m * sum_x + chord.c * w;
  } else {
    *ub = w * KernelProfile(params_, x_lo);
  }

  if (use_tangent_lower_) {
    // Optimal tangent point (Theorem 1/2): the weighted mean of the
    // x_i. The Laplacian profile's derivative is singular at 0; keep
    // the tangent point strictly positive (any tangent point is valid,
    // the mean is merely optimal).
    double t_opt = util::Clamp(sum_x / w, x_lo, x_hi);
    if (!gaussian) t_opt = std::max(t_opt, 1e-12 * (1.0 + x_hi));
    const LinearFn tangent =
        gaussian ? ExpTangent(t_opt) : ProfileTangent(params_, t_opt);
    *lb = std::max(0.0, tangent.m * sum_x + tangent.c * w);
  } else {
    *lb = w * KernelProfile(params_, x_hi);
  }
  *lb = std::min(*lb, *ub);
}

// ---------------------------------------------------------------------
// Inner-product kernel bounds (polynomial, sigmoid).
// Profile argument: x = γ·(q·p) + β over [x_lo, x_hi].
// ---------------------------------------------------------------------

SotaInnerProductBounds::SotaInnerProductBounds(const KernelParams& params)
    : params_(params) {}

void SotaInnerProductBounds::NodeBounds(const index::TreeIndex& tree,
                                        index::NodeId id,
                                        const QueryContext& ctx, double* lb,
                                        double* ub) const {
  const IpNodeState st = MakeIpState(params_, tree, id, ctx);
  const double flo = KernelProfile(params_, st.x_lo);
  const double fhi = KernelProfile(params_, st.x_hi);
  double f_min = std::min(flo, fhi);
  double f_max = std::max(flo, fhi);
  // Even-degree polynomials dip to 0 inside a straddling interval.
  if (params_.type == KernelType::kPolynomial && params_.degree % 2 == 0 &&
      st.x_lo < 0.0 && st.x_hi > 0.0) {
    f_min = 0.0;
  }
  *lb = st.w * f_min;
  *ub = st.w * f_max;
}

KarlInnerProductBounds::KarlInnerProductBounds(const KernelParams& params)
    : params_(params) {}

void KarlInnerProductBounds::NodeBounds(const index::TreeIndex& tree,
                                        index::NodeId id,
                                        const QueryContext& ctx, double* lb,
                                        double* ub) const {
  const IpNodeState st = MakeIpState(params_, tree, id, ctx);

  if (st.x_hi - st.x_lo < kDegenerateInterval) {
    const double flo = KernelProfile(params_, st.x_lo);
    const double fhi = KernelProfile(params_, st.x_hi);
    *lb = st.w * std::min(flo, fhi);
    *ub = st.w * std::max(flo, fhi);
    return;
  }

  LinearFn lower, upper;
  const double t_opt = util::Clamp(st.sum_x / st.w, st.x_lo, st.x_hi);
  switch (ClassifyProfile(params_, st.x_lo, st.x_hi)) {
    case Curvature::kLinear:
      // Degree-1 polynomial: the aggregate is exact.
      lower = upper = LinearFn{1.0, 0.0};
      break;
    case Curvature::kConvex:
      upper = ProfileChord(params_, st.x_lo, st.x_hi);
      lower = ProfileTangent(params_, t_opt);
      break;
    case Curvature::kConcave:
      lower = ProfileChord(params_, st.x_lo, st.x_hi);
      upper = ProfileTangent(params_, t_opt);
      break;
    case Curvature::kMixedConcaveConvex:
      // Odd x^deg: rotate down about the right endpoint for the upper
      // bound, rotate up about the left endpoint for the lower bound.
      upper = PivotLine(params_, st.x_lo, st.x_hi, /*pivot_at_right=*/true,
                        /*upper=*/true);
      lower = PivotLine(params_, st.x_lo, st.x_hi, /*pivot_at_right=*/false,
                        /*upper=*/false);
      break;
    case Curvature::kMixedConvexConcave:
      // tanh: the pivots swap sides.
      upper = PivotLine(params_, st.x_lo, st.x_hi, /*pivot_at_right=*/false,
                        /*upper=*/true);
      lower = PivotLine(params_, st.x_lo, st.x_hi, /*pivot_at_right=*/true,
                        /*upper=*/false);
      break;
  }

  *lb = lower.m * st.sum_x + lower.c * st.w;
  *ub = upper.m * st.sum_x + upper.c * st.w;

  // Clamp against the constant (SOTA-style) bounds: a single line on a
  // mixed monotone interval can be looser than the constant bound on
  // part of the interval, and the clamp guarantees KARL never loses to
  // SOTA (cheap, and preserves validity).
  const double flo = KernelProfile(params_, st.x_lo);
  const double fhi = KernelProfile(params_, st.x_hi);
  double f_min = std::min(flo, fhi);
  const double f_max = std::max(flo, fhi);
  if (params_.type == KernelType::kPolynomial && params_.degree % 2 == 0 &&
      st.x_lo < 0.0 && st.x_hi > 0.0) {
    f_min = 0.0;
  }
  *lb = std::max(*lb, st.w * f_min);
  *ub = std::min(*ub, st.w * f_max);
  *lb = std::min(*lb, *ub);
}

double ExactNodeAggregate(const KernelParams& params,
                          const index::TreeIndex& tree, index::NodeId id,
                          std::span<const double> q) {
  const auto& nd = tree.node(id);
  return simd::ScalarLeafAggregate(params, tree.points(), nd.begin, nd.end,
                                   q.data());
}

util::Result<std::unique_ptr<BoundFunction>> MakeBoundFunction(
    const KernelParams& params, BoundKind kind) {
  KARL_RETURN_NOT_OK(params.Validate());
  std::unique_ptr<BoundFunction> fn;
  if (!IsInnerProductKernel(params.type)) {
    switch (kind) {
      case BoundKind::kSota:
        fn = std::make_unique<SotaDistanceBounds>(params);
        break;
      case BoundKind::kKarl:
        fn = std::make_unique<KarlDistanceBounds>(params, true, true);
        break;
      case BoundKind::kKarlChordOnly:
        fn = std::make_unique<KarlDistanceBounds>(params, true, false);
        break;
      case BoundKind::kKarlTangentOnly:
        fn = std::make_unique<KarlDistanceBounds>(params, false, true);
        break;
    }
  } else {
    // The ablation split is distance-kernel-specific; inner-product
    // kernels use the full KARL construction for any kKarl* kind.
    if (kind == BoundKind::kSota) {
      fn = std::make_unique<SotaInnerProductBounds>(params);
    } else {
      fn = std::make_unique<KarlInnerProductBounds>(params);
    }
  }
  return fn;
}

}  // namespace karl::core
