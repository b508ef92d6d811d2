// Runtime-dispatched SIMD kernels for the evaluator hot path: the O(d)
// node geometry of each bound (kd-box distances and the dot product
// against the node summary), the whole Gaussian KARL bound of one or two
// kd boxes, and the exact leaf kernel sums over the blocked SoA layout
// (soa_block.h).
//
// Three tiers — scalar / AVX2+FMA / AVX-512F — selected once per process
// by CPUID, overridable via the KARL_SIMD environment variable
// ("scalar" | "avx2" | "avx512"). Requesting a tier the build or the CPU
// cannot run, or any other value, crashes loudly via KARL_CHECK; silent
// fallback would invalidate benchmark comparisons.
//
// Accuracy contract (the exact statement DESIGN.md §14 documents and
// tests/simd_test.cc pins):
//
//  * The scalar tier is the oracle: bit-identical to the pre-SIMD code
//    (plain ascending loops, Kahan leaf accumulation). KARL_SIMD=scalar
//    therefore reproduces historical results exactly. For a kd tree
//    stored in a principal frame (index/principal_frame.h) it is the
//    oracle over the rotated coordinates the tree stores.
//  * ReflectRows is exempt from the tolerances below: every tier
//    computes it with the scalar tier's arithmetic, bit for bit, so a
//    tree's reflected points and a query's reflection do not depend on
//    the tier.
//  * Vector tiers reorder reductions and use a polynomial vector exp, so
//    results are NOT bit-identical; they agree with the scalar oracle
//    within the relative tolerances below, measured against the sum of
//    ABSOLUTE contributions (the natural conditioning scale for a
//    reordered sum — cancellation can make the signed result arbitrarily
//    smaller than the mass that produced it).
//  * Bounds remain bounds: lb ≤ exact ≤ ub invariants are checked by the
//    auditor against whatever tier is active, and keep holding because
//    the evaluator's audit tolerances (1e-6/1e-7 relative) dominate the
//    contract tolerances below by orders of magnitude.

#ifndef KARL_CORE_SIMD_SIMD_H_
#define KARL_CORE_SIMD_SIMD_H_

#include <atomic>
#include <cstdint>
#include <span>
#include <string_view>

#include "core/kernel.h"
#include "core/simd/soa_block.h"
#include "util/check.h"

namespace karl::core::simd {

/// Instruction-set tiers, ordered by preference. Values are stable: the
/// karl_simd_tier gauge exports them numerically.
enum class Tier : int {
  kScalar = 0,
  kAvx2 = 1,
  kAvx512 = 2,
};

/// |vector − scalar| ≤ this × Σ|wᵢ·K(q,pᵢ)| for every leaf-range
/// aggregate. Budget: reordered accumulation over ≤ ~10⁶ terms
/// (n·ε ≈ 1e-10) plus per-term profile-argument rounding amplified by
/// the profile derivative (≤ ~1e-12 for arguments that keep the kernel
/// above underflow).
inline constexpr double kLeafSumRelTolerance = 1e-9;

/// |vector − scalar| ≤ this × Σ|aᵢ·bᵢ| for Dot / SquaredNorm (pure
/// reordering of ≤ ~10³-dim reductions: d·ε plus slack).
inline constexpr double kDotRelTolerance = 1e-12;

/// Vector exp error vs std::exp in units-in-last-place, for arguments in
/// [-708, 709] with normal (non-subnormal) results. Arguments below
/// -708 are clamped, so results smaller than ~3.3e-308 carry an
/// absolute error of at most kVectorExpUnderflowAbs instead. The domain
/// ends at 709, where exp nears overflow, with no upper clamp: the leaf
/// and box-bound arguments the vector exp serves are ≤ 0.
inline constexpr int kVectorExpUlpBound = 4;
inline constexpr double kVectorExpUnderflowAbs = 1e-307;

/// Widest rows ReflectRows takes.
inline constexpr size_t kMaxReflectDims = 64;

/// Below this profile-argument interval width a node's profile is
/// numerically constant, and the linear bound constructions would divide
/// by ~0: the bounds fall back to the profile at the interval's ends.
inline constexpr double kDegenerateInterval = 1e-12;

/// Human-readable tier name ("scalar" / "avx2" / "avx512").
std::string_view TierName(Tier tier);

/// Parses a KARL_SIMD value. Crashes via KARL_CHECK on anything other
/// than "scalar" / "avx2" / "avx512".
Tier ParseTier(std::string_view name);

/// True iff this binary contains a real (intrinsics) implementation of
/// the tier. The scalar tier is always compiled.
bool TierCompiled(Tier tier);

/// True iff the tier is compiled in AND the running CPU supports it.
bool TierSupported(Tier tier);

/// Best tier the host can run: avx512 ≻ avx2 ≻ scalar.
Tier DetectBestTier();

/// Resolves the tier from a KARL_SIMD-style value; nullptr means
/// auto-detect. Crashes via KARL_CHECK when the value is invalid or
/// names an unsupported tier.
Tier ResolveTier(const char* env_value);

/// The process-wide active tier, resolved from getenv("KARL_SIMD") on
/// first use and cached. Thread-safe.
Tier ActiveTier();

/// Test/bench seam: overrides the active tier (must be supported).
/// Takes effect for every subsequent hot-path call in the process.
void ForceTier(Tier tier);

/// The distance geometry of one kd box and its node: mindist(q, box)²,
/// maxdist(q, box)² and q·a_P, where a_P is the node's weighted point sum.
struct NodeGeometry {
  double min_sq = 0.0;
  double max_sq = 0.0;
  double q_dot_a = 0.0;
};

/// One kd node as the Gaussian KARL bound reads it: its box corners, and
/// its summary a_P = Σ wᵢ·pᵢ (d values each), w_P = Σ wᵢ and
/// b_P = Σ wᵢ·‖pᵢ‖².
struct KdBoxSummary {
  const double* lower = nullptr;
  const double* upper = nullptr;
  const double* a = nullptr;
  double w = 0.0;
  double b = 0.0;
};

/// Bounds [lb, ub] of one node's kernel aggregate.
struct NodeInterval {
  double lb = 0.0;
  double ub = 0.0;
};

namespace internal {

/// Per-tier implementation table. One instance per compiled tier;
/// re-read through the cached pointer below on every hot-path call so
/// ForceTier takes effect immediately.
struct Ops {
  double (*dot)(const double* a, const double* b, size_t n);
  double (*sqnorm)(const double* a, size_t n);
  double (*leaf_aggregate)(const KernelParams& kernel,
                           const SoaLeafBlocks& soa, uint32_t begin,
                           uint32_t end, const double* q);
  void (*exp_block)(const double* in, double* out, size_t n);
  NodeGeometry (*box_geometry)(const double* lower, const double* upper,
                               const double* a, const double* q, size_t d);
  void (*karl_gaussian_box_bounds)(const double* q, size_t d,
                                   double q_sqnorm, double scale,
                                   const KdBoxSummary* boxes, size_t count,
                                   NodeInterval* out);
  void (*reflect_rows)(const double* reflectors, size_t k, size_t d,
                       const double* in, size_t count, double* out);
};

/// Defined in kernels_avx2.cc / kernels_avx512.cc; null when that
/// translation unit was built without the ISA (stub fallback).
const Ops* GetAvx2Ops();
const Ops* GetAvx512Ops();

/// Ops table of the active tier; null until first resolution. Written
/// by ResolveActiveOps and ForceTier only. The hot-path wrappers below
/// are header-inline reading this one atomic: a d=8 linear-bound dot is
/// ~10 cycles of real work, so an extra call layer plus a dispatch
/// switch per call would eat most of the vector win.
extern std::atomic<const Ops*> g_active_ops;

/// Slow path: resolves the tier (env / CPUID), caches its Ops table.
const Ops& ResolveActiveOps();

inline const Ops& ActiveOps() {
  const Ops* ops = g_active_ops.load(std::memory_order_acquire);
  return ops != nullptr ? *ops : ResolveActiveOps();
}

}  // namespace internal

/// Dot product of two equal-length vectors under the active tier.
/// Scalar tier is bit-identical to util::Dot.
inline double Dot(std::span<const double> a, std::span<const double> b) {
  KARL_DCHECK(a.size() == b.size())
      << ": Dot of mismatched lengths " << a.size() << " vs " << b.size();
  return internal::ActiveOps().dot(a.data(), b.data(), a.size());
}

/// ‖a‖² under the active tier; scalar tier matches util::SquaredNorm.
inline double SquaredNorm(std::span<const double> a) {
  return internal::ActiveOps().sqnorm(a.data(), a.size());
}

/// NodeGeometry of the box [lower, upper] (lower ≤ upper per dimension)
/// and the weighted point sum `a`, in one pass under the active tier.
/// The scalar tier is bit-identical to the two box-distance sums in
/// ascending dimension order plus util::Dot(q, a).
inline NodeGeometry BoxGeometry(std::span<const double> lower,
                                std::span<const double> upper,
                                std::span<const double> a,
                                std::span<const double> q) {
  KARL_DCHECK(lower.size() == q.size() && upper.size() == q.size() &&
              a.size() == q.size())
      << ": BoxGeometry of mismatched lengths " << lower.size() << "/"
      << upper.size() << "/" << a.size() << " vs " << q.size();
  return internal::ActiveOps().box_geometry(lower.data(), upper.data(),
                                            a.data(), q.data(), q.size());
}

/// The Gaussian KARL bounds of `boxes.size()` ∈ {1, 2} kd nodes of one
/// tree under the active tier, into out[0 .. boxes.size()): the chord of
/// exp(−x) above and its tangent at the optimal point t_opt = X / w_P
/// below, each aggregated through the node summary (paper Lemma 2/5,
/// Theorem 1), with x = scale·dist² and q_sqnorm = ‖q‖².
///
/// A box's interval never depends on the other box: in every tier a
/// 2-box call returns bit for bit what two 1-box calls return. The scalar
/// tier runs BoxGeometry and ScalarKarlGaussianBounds per box. The vector
/// tiers run both boxes' geometry in one pass and their six exps (both
/// chord ends and the tangent point, per box) through one vector exp.
inline void KarlGaussianBoxBounds(std::span<const double> q, double q_sqnorm,
                                  double scale,
                                  std::span<const KdBoxSummary> boxes,
                                  NodeInterval* out) {
  KARL_DCHECK(boxes.size() == 1 || boxes.size() == 2)
      << ": KarlGaussianBoxBounds of " << boxes.size() << " boxes";
  internal::ActiveOps().karl_gaussian_box_bounds(
      q.data(), q.size(), q_sqnorm, scale, boxes.data(), boxes.size(), out);
}

/// Applies k Householder reflections to `count` row-major rows of `d`
/// values: out row = H_{k−1}⋯H_0·(in row), H_r = I − 2·v_r·v_rᵀ with
/// v_r row r of the k×d row-major `reflectors` (unit vectors).
/// Each H_r maps x to x − (s + s)·v_r, s = v_r·x. Every tier forms s the
/// same way — eight lane sums, lane l adding the products of j ≡ l
/// (mod 8) in ascending j, joined as ((s0+s4)+(s2+s6))+((s1+s5)+(s3+s7))
/// — and rounds every product and sum on its own, so the bits do not
/// depend on the tier. Costs 2·k·d multiply-adds per row. `in` and `out`
/// must not overlap; 1 ≤ d ≤ kMaxReflectDims.
inline void ReflectRows(std::span<const double> reflectors, size_t d,
                        const double* in, size_t count, double* out) {
  KARL_DCHECK(d >= 1 && d <= kMaxReflectDims && reflectors.size() % d == 0)
      << ": ReflectRows of " << reflectors.size() << " values at d " << d;
  internal::ActiveOps().reflect_rows(reflectors.data(), reflectors.size() / d,
                                     d, in, count, out);
}

/// The scalar Gaussian KARL bound arithmetic of one node from its
/// geometry `g` and summary (w_P, b_P), whatever the active tier: the
/// scalar tier of KarlGaussianBoxBounds, and the ball-tree path of the
/// Gaussian KARL bound. Uses std::exp (through ExpChord / ExpTangent).
NodeInterval ScalarKarlGaussianBounds(const NodeGeometry& g, double w,
                                      double b, double q_sqnorm,
                                      double scale);

/// Σ wᵢ·K(q, pᵢ) over SoA rows [begin, end) under the active tier.
/// Scalar tier is ScalarLeafAggregate.
inline double LeafAggregate(const KernelParams& kernel,
                            const SoaLeafBlocks& soa, uint32_t begin,
                            uint32_t end, std::span<const double> q) {
  KARL_DCHECK(q.size() == soa.dims())
      << ": query dim " << q.size() << " vs SoA dim " << soa.dims();
  KARL_DCHECK(end <= soa.rows())
      << ": range end " << end << " past " << soa.rows() << " rows";
  if (begin >= end) return 0.0;
  return internal::ActiveOps().leaf_aggregate(kernel, soa, begin, end,
                                              q.data());
}

/// The scalar oracle of LeafAggregate, whatever the active tier: a Kahan
/// sum of wᵢ·K(q, pᵢ) in row order, each kernel argument built exactly as
/// KernelValue builds it. The KARL_SIMD=scalar tier runs it, and so does
/// ExactNodeAggregate (the bound auditor's ground truth).
double ScalarLeafAggregate(const KernelParams& kernel,
                           const SoaLeafBlocks& soa, uint32_t begin,
                           uint32_t end, const double* q);

/// out[i] = exp(in[i]) under the active tier — the seam simd_test uses
/// to pin kVectorExpUlpBound per tier. Spans must have equal length.
void ExpBlock(std::span<const double> in, std::span<double> out);

}  // namespace karl::core::simd

#endif  // KARL_CORE_SIMD_SIMD_H_
