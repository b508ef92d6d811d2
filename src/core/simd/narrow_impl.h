// The narrow leaf pass, one template over the kernel profile for every
// tier: the scalar tier (simd.cc), AVX2 (kernels_avx2.cc) and AVX-512
// (kernels_avx512.cc) instantiate it against an fp32 vector-ops policy
// `F`:
//
//   using Vec;                          // float / __m256 / __m512
//   static constexpr size_t kLanes;     // 1 / 8 / 16
//   static constexpr int kTier;         // the Tier it serves
//   Vec  LoadWords(const uint32_t* p);  // kLanes hi-plane words as fp32
//   Vec  KeepLanes(Vec v, size_t lo, size_t hi);
//        // lanes [lo, hi) of v, the rest +0 (lo ≤ hi ≤ kLanes)
//   Vec  Load(const float*);  void Store(float*, Vec);
//   Vec  Set1(float);  Vec Zero();
//   Vec  Add/Sub/Mul/Div/Min/Max(Vec, Vec);  Vec Sqrt(Vec);
//   Vec  Fma(a, b, c)  = a*b + c;       // fused where the tier fuses
//   Vec  Fnma(a, b, c) = c - a*b;
//   Vec  ZeroAbove(Vec v, Vec x, Vec t); // v where x ≤ t, else +0
//   Vec  Pow2Mul(Vec p, Vec k);          // p·2^k, k integral ∈ [−126, 0]
//   double SumLanes(Vec);                // Σ lanes, in fp64
//   float  MaxLanes(Vec);
//
// The pass reads only the hi planes (soa_block.h) and computes, in fp32,
// D̃ = Σ (q̃_j − hi_j)², the profile argument x̃ and kernel value K̃, and
// the sums WidenNarrowSums (below) turns into a rigorous enclosure in
// fp64, inlined into each tier's op.
// Every bound it relies on is per operation, so a fused multiply-add
// (one rounding) only tightens it.

#ifndef KARL_CORE_SIMD_NARROW_IMPL_H_
#define KARL_CORE_SIMD_NARROW_IMPL_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>

#include "core/kernel.h"
#include "core/simd/simd.h"
#include "core/simd/soa_block.h"
#include "util/check.h"

namespace karl::core::simd::internal {

// What the narrow pass over a leaf range sums, in fp32 lanes reduced in
// fp64, and what the widening needs to know of the pass.
struct NarrowSums {
  double s0 = 0.0;      // Σ w̃·K̃
  double s1 = 0.0;      // Σ w̃·K̃·x̃ (exp profiles; 0 for Cauchy)
  double sw = 0.0;      // Σ w̃
  double max_d2 = 0.0;  // max D̃ over the range's rows
  size_t chain = 0;     // Terms added into each fp32 lane accumulator.
  size_t lanes = 0;     // Lanes evaluated, masked ones included.
  int exp_ulps = 0;     // The tier's kNarrowExpUlpBound.
};

// exp(−x) ≈ 2^k·p(r), k = round(−x/ln2), r = −x − k·ln2 for x ∈ [0, 86]:
// k ∈ [−124, 0], so 2^k and the result stay normal. ln2 is split so that
// k·kNarrowLn2Hi is exact (9 significant bits times |k| < 2⁸). p is the
// classic degree-7 fp32 minimax form 1 + r + r²·P(r) (contract:
// kNarrowExpUlpBound).
inline constexpr float kNarrowLog2e = 1.44269504088896341f;
inline constexpr float kNarrowLn2Hi = 0.693359375f;
inline constexpr float kNarrowLn2Lo = -2.12194440e-4f;
// 1.5·2²³: adding it to an fp32 of magnitude below 2²² rounds it to an
// integer (ties to even).
inline constexpr float kNarrowShifter = 12582912.0f;
inline constexpr float kNarrowExpPoly[6] = {
    5.0000001201e-1f, 1.6666665459e-1f, 4.1665795894e-2f,
    8.3334519073e-3f, 1.3981999507e-3f, 1.9875691500e-4f};

template <typename F>
inline typename F::Vec NarrowExp(typename F::Vec x) {
  using V = typename F::Vec;
  const auto c = [](int i) { return F::Set1(kNarrowExpPoly[i]); };
  const V y = F::Sub(F::Zero(), x);
  const V shifter = F::Set1(kNarrowShifter);
  const V k = F::Sub(F::Fma(y, F::Set1(kNarrowLog2e), shifter), shifter);
  V r = F::Fnma(k, F::Set1(kNarrowLn2Hi), y);
  r = F::Fnma(k, F::Set1(kNarrowLn2Lo), r);
  const V r2 = F::Mul(r, r);
  V p = F::Fma(c(5), r, c(4));
  p = F::Fma(p, r, c(3));
  p = F::Fma(p, r, c(2));
  p = F::Fma(p, r, c(1));
  p = F::Fma(p, r, c(0));
  p = F::Add(F::Fma(p, r2, r), F::Set1(1.0f));
  return F::Pow2Mul(p, k);
}

// The squared fp32 distances from q of N ∈ {1, 2} vectors of hi-plane
// lanes hi[i], even and odd dimensions in two FMA chains per vector, the
// vectors side by side.
template <typename F, size_t N>
[[gnu::always_inline]] inline void NarrowDistances(
    const uint32_t* const* hi, const float* q, size_t d,
    typename F::Vec* dist2) {
  using V = typename F::Vec;
  constexpr size_t kG = SoaLeafBlocks::kGroupRows;
  V even[N], odd[N];
  for (size_t i = 0; i < N; ++i) even[i] = odd[i] = F::Zero();
  size_t j = 0;
  for (; j + 1 < d; j += 2) {
    const V qe = F::Set1(q[j]);
    const V qo = F::Set1(q[j + 1]);
    for (size_t i = 0; i < N; ++i) {
      const V de = F::Sub(qe, F::LoadWords(hi[i] + j * kG));
      const V dd = F::Sub(qo, F::LoadWords(hi[i] + (j + 1) * kG));
      even[i] = F::Fma(de, de, even[i]);
      odd[i] = F::Fma(dd, dd, odd[i]);
    }
  }
  if (j < d) {
    const V qe = F::Set1(q[j]);
    for (size_t i = 0; i < N; ++i) {
      const V de = F::Sub(qe, F::LoadWords(hi[i] + j * kG));
      even[i] = F::Fma(de, de, even[i]);
    }
  }
  for (size_t i = 0; i < N; ++i) dist2[i] = F::Add(even[i], odd[i]);
}

// The narrow pass of profile K over rows [begin, end). Vector t holds
// rows [row0 + t·W, row0 + (t + 1)·W), starting at the range's first
// row rounded down to the vector width; lanes outside the range get
// weight 0 and distance 0, so they add nothing and do not raise the
// maximum. Each step computes two vectors' distances side by side, as
// the exact pass does (a lone last vector alone), then folds them in
// order; each lane accumulator takes one term per vector.
template <typename F, KernelType K>
NarrowSums NarrowLeafImpl(const SoaLeafBlocks& soa, uint32_t begin,
                          uint32_t end, const NarrowQuery& nq) {
  using V = typename F::Vec;
  constexpr size_t W = F::kLanes;
  constexpr size_t kG = SoaLeafBlocks::kGroupRows;
  static_assert(kG % W == 0, "a vector lies within one group");
  const size_t d = soa.dims();
  const size_t row0 = begin / W * W;
  const size_t vecs = (end + W - 1) / W - row0 / W;
  const V scale = F::Set1(nq.scale());
  const V clamp = F::Set1(kNarrowExpClamp);
  const V one = F::Set1(1.0f);
  V s0 = F::Zero(), s1 = F::Zero(), sw = F::Zero(), dmax = F::Zero();
  for (size_t t = 0; t < vecs;) {
    const size_t step = vecs - t >= 2 ? 2 : 1;
    const uint32_t* hi[2];
    for (size_t i = 0; i < step; ++i) {
      const size_t row = row0 + (t + i) * W;
      hi[i] = soa.GroupHi(row / kG) + row % kG;
    }
    V dist2[2];
    if (step == 2) {
      NarrowDistances<F, 2>(hi, nq.q(), d, dist2);
    } else {
      NarrowDistances<F, 1>(hi, nq.q(), d, dist2);
    }
    for (size_t i = 0; i < step; ++i) {
      const size_t row = row0 + (t + i) * W;
      V w = F::LoadWords(hi[i] + d * kG);
      V dd = dist2[i];
      if (row < begin || row + W > end) {
        const size_t lo = std::clamp<size_t>(begin, row, row + W) - row;
        const size_t up = std::clamp<size_t>(end, row, row + W) - row;
        w = F::KeepLanes(w, lo, up);
        dd = F::KeepLanes(dd, lo, up);
      }
      dmax = F::Max(dmax, dd);
      sw = F::Add(sw, w);
      if constexpr (K == KernelType::kCauchy) {
        const V x = F::Mul(scale, dd);
        s0 = F::Fma(w, F::Div(one, F::Add(one, x)), s0);
      } else {
        const V x = K == KernelType::kLaplacian ? F::Mul(scale, F::Sqrt(dd))
                                                : F::Mul(scale, dd);
        const V xc = F::Min(x, clamp);
        const V wk = F::Mul(w, F::ZeroAbove(NarrowExp<F>(xc), x, clamp));
        s0 = F::Add(s0, wk);
        s1 = F::Fma(wk, xc, s1);
      }
    }
    t += step;
  }
  NarrowSums out;
  out.s0 = F::SumLanes(s0);
  out.s1 = F::SumLanes(s1);
  out.sw = F::SumLanes(sw);
  out.max_d2 = F::MaxLanes(dmax);
  out.chain = vecs;
  out.lanes = vecs * W;
  out.exp_ulps = kNarrowExpUlpBound[F::kTier];
  return out;
}

// e^{−85} rounded up: the most a row whose x̃ passed the clamp holds.
inline constexpr double kNarrowClampedMax = 1.22e-37;

// The enclosure argument of DESIGN.md §14, step by step, with the
// per-query constants NarrowQuery holds. P0 = Σ w̃·K̃, P1 = Σ w̃·K̃·x̃ and
// PW = Σ w̃ are the exact sums the fp32 ones round; w ∈ [w̃, w̃·(1 + 2u)]
// for the truncated weights w̃ ≥ 0.
inline NodeInterval WidenNarrowSums(const KernelParams& kernel,
                                    const NarrowQuery& q,
                                    const NarrowSums& sums) {
  constexpr double u = 0x1p-24;
  constexpr double inf = std::numeric_limits<double>::infinity();
  constexpr double kClamp = kNarrowExpClamp;
  // fp32 sums: each term takes a product (two for P1) and then one add
  // per vector, t = (L + 2)·u, so an exact sum of nonnegative terms lies
  // within [1/(1 + g), 1/(1 − g)] of its fp32 one, g = t/(1 − t); for
  // t ≤ 1/4 that is within [1 − 2t, 1 + 2t]. Underflows cost at most
  // 2⁻¹²⁶ per operation.
  const double t = static_cast<double>(sums.chain + 2) * u;
  if (!(t <= 0.25)) return {0.0, inf};
  const double over = 1.0 + 2.0 * t;
  const double e_abs = 2.0 * static_cast<double>(sums.lanes) * 0x1p-126;
  const double p0_hi = (sums.s0 + e_abs) * over;
  const double p0_lo = std::max(0.0, (sums.s0 - e_abs) * (1.0 - 2.0 * t));
  const double w_rel = 1.0 + 2.0 * u;
  // Every profile is ≤ 1, so Σ w is an upper bound whatever else fails.
  // Room for the fp64 sum's own roundings (ScalarLeafAggregate's exp,
  // products and Kahan sum) and for this function's arithmetic: 2⁻⁴⁴.
  constexpr double kSlack = 0x1p-44;
  const double ub_all = (sums.sw + e_abs) * over * w_rel * (1.0 + kSlack);
  const double m = sums.max_d2;
  const double s32 = q.scale();
  double lo = 0.0;
  double up = inf;
  if (kernel.type == KernelType::kCauchy) {
    // 1/(1 + x̃) ∈ K̃·[1 − ak, 1 + ak]; x̃ stayed finite below 2¹²⁷.
    if (!(s32 * m < 0x1p127)) return {0.0, ub_all};
    const double ak = 2.0 * u + 3.0 * u * u;
    lo = (1.0 - ak) * p0_lo * q.a_plus();
    up = w_rel * (1.0 + ak) * p0_hi * q.a_minus();
  } else {
    if (!(m < inf)) return {0.0, ub_all};
    const double x_max = kernel.type == KernelType::kLaplacian
                             ? s32 * std::sqrt(m) * (1.0 + 3.0 * u)
                             : s32 * m * (1.0 + u);
    const double x = std::min(x_max, kClamp);
    const double alpha_p = q.a_plus();
    const double alpha_m = q.a_minus();
    const double bp = q.b_plus();
    const double bm = q.b_minus();
    // e^{−x} ∈ e^{−x̃}·[e^{−α⁺x̃ − B⁺}, e^{α⁻x̃ + B⁻}]; e^{−x̃} ∈
    // K̃·[1 − ue, 1 + ue] where x̃ ≤ the clamp; e^{αx̃} ≤ 1 + φ·x̃ on
    // [0, x] by convexity, φ = α(1 + αx) ≥ (e^{αx} − 1)/x as αx ≤ 1; and
    // e^B ≤ 1 + B + B², e^{−B} ≥ 1 − B.
    const double ue = (sums.exp_ulps + 1) * 0x1p-23;
    const double p1_hi = (sums.s1 + e_abs) * over;
    const double phi = alpha_m * (1.0 + alpha_m * x);
    up = (1.0 + bm + bm * bm) * w_rel * (1.0 + ue) * (p0_hi + phi * p1_hi);
    // Clamped rows count 0 in P0; each is at most w·kNarrowClampedMax.
    if (x_max > kClamp) up += kNarrowClampedMax * ub_all;
    lo = (1.0 - bp) *
         ((1.0 - ue) * p0_lo - alpha_p * w_rel * (1.0 + ue) * p1_hi);
  }
  NodeInterval out;
  out.ub = up * (1.0 + kSlack);
  if (!(out.ub <= ub_all)) out.ub = ub_all;
  out.lb = lo * (1.0 - kSlack);
  if (!(out.lb >= 0.0)) out.lb = 0.0;
  out.lb = std::min(out.lb, out.ub);
  return out;
}

// Resolves the profile once per leaf range; the tier's LeafInterval.
template <typename F>
NodeInterval LeafIntervalN(const KernelParams& kernel,
                           const SoaLeafBlocks& soa, uint32_t begin,
                           uint32_t end, const NarrowQuery& q) {
  switch (kernel.type) {
    case KernelType::kGaussian:
      return WidenNarrowSums(
          kernel, q,
          NarrowLeafImpl<F, KernelType::kGaussian>(soa, begin, end, q));
    case KernelType::kLaplacian:
      return WidenNarrowSums(
          kernel, q,
          NarrowLeafImpl<F, KernelType::kLaplacian>(soa, begin, end, q));
    case KernelType::kCauchy:
      return WidenNarrowSums(
          kernel, q,
          NarrowLeafImpl<F, KernelType::kCauchy>(soa, begin, end, q));
    case KernelType::kPolynomial:
    case KernelType::kSigmoid:
      break;
  }
  KARL_CHECK(false) << ": no narrow pass for the "
                    << KernelTypeToString(kernel.type) << " kernel";
  return {};
}

template <typename F>
void NarrowExpBlockN(const float* in, float* out, size_t n) {
  constexpr size_t W = F::kLanes;
  size_t i = 0;
  for (; i + W <= n; i += W) F::Store(out + i, NarrowExp<F>(F::Load(in + i)));
  if (i < n) {
    float buf[W] = {};
    for (size_t l = 0; l < W && i + l < n; ++l) buf[l] = in[i + l];
    float res[W];
    F::Store(res, NarrowExp<F>(F::Load(buf)));
    for (size_t l = 0; l < W && i + l < n; ++l) out[i + l] = res[l];
  }
}

}  // namespace karl::core::simd::internal

#endif  // KARL_CORE_SIMD_NARROW_IMPL_H_
