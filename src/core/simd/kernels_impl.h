// Width-generic SIMD kernel bodies, instantiated once per ISA
// translation unit (kernels_avx2.cc, kernels_avx512.cc) against a
// vector-ops policy `O`:
//
//   using Vec;                          // __m256d / __m512d
//   static constexpr size_t kLanes;     // 4 / 8
//   Vec  Load(const double*);           // unaligned
//   Vec  LoadLanes(const double* p, size_t lo, size_t hi);
//        // lanes [lo, hi) of p, the rest 0 (lo ≤ hi ≤ kLanes); never
//        // touches memory outside those lanes
//   Vec  FromLanes(const double* p);    // p[0 .. kLanes), assembled in
//                                       // registers: no store-forwarding
//                                       // stall on just-written values
//   void Store(double*, Vec);
//   Vec  Set1(double);  Vec Zero();
//   Vec  Add/Sub/Mul/Div(Vec, Vec);
//   Vec  Fma(a, b, c)  = a*b + c;       // fused
//   Vec  Fnma(a, b, c) = c - a*b;       // fused
//   Vec  Min/Max(Vec, Vec);  Vec Sqrt(Vec);
//   Vec  Ldexpk(Vec p, Vec k);          // p·2^k, k integral ∈ [-1022,1023]
//   double ReduceAdd(Vec);
//
// Only the ISA translation units include this header; it must be
// compiled with the matching -m flags.

#ifndef KARL_CORE_SIMD_KERNELS_IMPL_H_
#define KARL_CORE_SIMD_KERNELS_IMPL_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <utility>

#include "core/kernel.h"
#include "core/simd/simd.h"
#include "core/simd/soa_block.h"
#include "util/math_util.h"

namespace karl::core::simd::internal {

// Two-part Cody–Waite ln2 split: kLn2Hi has 21 trailing zero bits, so
// k·kLn2Hi is exact for the |k| ≤ 1024 range the [-708, 709] clamp
// allows, making the reduction r = x − k·ln2 accurate to an ulp of r.
inline constexpr double kInvLn2 = 1.4426950408889634;
inline constexpr double kLn2Hi = 6.93145751953125e-1;
inline constexpr double kLn2Lo = 1.42860682030941723212e-6;

// 1.5·2⁵²: adding it to a double of magnitude below 2⁵¹ rounds that
// double to the nearest integer (ties to even), and leaves the integer
// in the sum's low mantissa bits. So fma(x, 1/ln2, shifter) − shifter is
// round(x/ln2) with a single rounding and no rounding instruction.
inline constexpr double kRoundShifter = 6755399441055744.0;

// Reciprocal factorials for the degree-13 Taylor expansion of exp on
// |r| ≤ ln2/2; truncation there is ≈ r¹⁴/14! < 5e-18 relative.
inline constexpr double kExpTaylor[14] = {
    1.0,
    1.0,
    1.0 / 2,
    1.0 / 6,
    1.0 / 24,
    1.0 / 120,
    1.0 / 720,
    1.0 / 5040,
    1.0 / 40320,
    1.0 / 362880,
    1.0 / 3628800,
    1.0 / 39916800,
    1.0 / 479001600,
    1.0 / 6227020800.0,
};

// exp(x) ≈ 2^k·P(r), k = round(x/ln2), r = x − k·ln2 — accurate to a
// couple of ulp (contract: kVectorExpUlpBound). Arguments are clamped
// to [-708, 709]: below the clamp the true result is subnormal or zero
// and the clamped value ≤ 3.4e-308 (contract: kVectorExpUnderflowAbs);
// above it the true result overflows and callers never produce it
// (kernel profiles are ≤ 1).
//
// P(r) = 1 + r·Q(r), with the degree-12 Q = Σ c_{i+1}·rⁱ evaluated in
// Estrin form: coefficient pairs, then pairs of pairs joined by r², r⁴
// and r⁸. That is 5 dependent FMAs after the reduction instead of
// Horner's 14. The one Horner step left (1 + r·Q) keeps the final
// rounding where Horner has it: Q's own rounding errors reach P scaled
// by |r| ≤ 0.35.
template <typename O>
inline typename O::Vec VExp(typename O::Vec x) {
  using V = typename O::Vec;
  const auto c = [](int i) { return O::Set1(kExpTaylor[i]); };
  const V xc = O::Min(O::Max(x, O::Set1(-708.0)), O::Set1(709.0));
  const V shifter = O::Set1(kRoundShifter);
  const V k = O::Sub(O::Fma(xc, O::Set1(kInvLn2), shifter), shifter);
  V r = O::Fnma(k, O::Set1(kLn2Hi), xc);
  r = O::Fnma(k, O::Set1(kLn2Lo), r);
  const V r2 = O::Mul(r, r);
  const V r4 = O::Mul(r2, r2);
  const V r8 = O::Mul(r4, r4);
  const V q12 = O::Fma(c(2), r, c(1));
  const V q34 = O::Fma(c(4), r, c(3));
  const V q56 = O::Fma(c(6), r, c(5));
  const V q78 = O::Fma(c(8), r, c(7));
  const V q910 = O::Fma(c(10), r, c(9));
  const V q1112 = O::Fma(c(12), r, c(11));
  const V q1_4 = O::Fma(q34, r2, q12);
  const V q5_8 = O::Fma(q78, r2, q56);
  const V q9_12 = O::Fma(q1112, r2, q910);
  const V q1_8 = O::Fma(q5_8, r4, q1_4);
  const V q9_13 = O::Fma(c(13), r4, q9_12);
  const V q = O::Fma(q9_13, r8, q1_8);
  return O::Ldexpk(O::Fma(q, r, c(0)), k);
}

// x^e per lane with the same multiply sequence as scalar IntPow, so
// every lane is bit-identical to the scalar kernel term.
template <typename O>
inline typename O::Vec IntPowV(typename O::Vec x, int e) {
  typename O::Vec result = O::Set1(1.0);
  typename O::Vec base = x;
  while (e > 0) {
    if (e & 1) result = O::Mul(result, base);
    base = O::Mul(base, base);
    e >>= 1;
  }
  return result;
}

// Kernel profile K per lane. `arg` is scale·dist² for distance kernels
// (scale = DistanceArgScale) and γ·(q·p)+β for inner-product kernels.
// Sigmoid falls back to per-lane std::tanh: the vectorized win there is
// the dot product, and a branch-free vector tanh accurate near 0 is not
// worth the extra contract surface.
template <typename O, KernelType K>
inline typename O::Vec ProfileV(const KernelParams& kernel,
                                typename O::Vec arg) {
  using V = typename O::Vec;
  if constexpr (K == KernelType::kGaussian) {
    return VExp<O>(O::Sub(O::Zero(), arg));
  } else if constexpr (K == KernelType::kLaplacian) {
    return VExp<O>(O::Sub(O::Zero(), O::Sqrt(O::Max(arg, O::Zero()))));
  } else if constexpr (K == KernelType::kCauchy) {
    const V one = O::Set1(1.0);
    return O::Div(one, O::Add(one, arg));
  } else if constexpr (K == KernelType::kPolynomial) {
    return IntPowV<O>(arg, kernel.degree);
  } else {
    alignas(64) double lanes[O::kLanes];
    O::Store(lanes, arg);
    for (size_t l = 0; l < O::kLanes; ++l) lanes[l] = std::tanh(lanes[l]);
    return O::Load(lanes);
  }
}

// Σ wᵢ·K(q,pᵢ) over SoA rows [begin, end) for kernel family K. D fixes
// the dimensionality at compile time for the common dims (full unroll of
// the j-loops); D = -1 is the runtime-dim fallback.
template <typename O, KernelType K, int D>
double LeafAggregateImpl(const KernelParams& kernel, const SoaLeafBlocks& soa,
                         uint32_t begin, uint32_t end, const double* q) {
  using V = typename O::Vec;
  constexpr size_t W = O::kLanes;
  constexpr size_t kB = SoaLeafBlocks::kBlockPoints;
  constexpr size_t kVecs = kB / W;
  constexpr bool kInnerProduct =
      K == KernelType::kPolynomial || K == KernelType::kSigmoid;
  const size_t d = D >= 0 ? static_cast<size_t>(D) : soa.dims();
  const double scale = kInnerProduct ? kernel.gamma : DistanceArgScale(kernel);

  // Two accumulators, swapped after every vector, so consecutive
  // vectors' FMAs into the sum do not wait on each other.
  V acc = O::Zero();
  V acc_other = O::Zero();
  const size_t first_block = begin / kB;
  const size_t last_block = (end - 1) / kB;
  for (size_t b = first_block; b <= last_block; ++b) {
    const size_t row0 = b * kB;
    const double* w = soa.BlockWeights(b);
    // In-range rows of the block, [head, tail) relative to row0; a
    // partial head/tail block loads the out-of-range lanes' weights as
    // zero, which kills their contributions exactly.
    const size_t head = begin > row0 ? begin - row0 : 0;
    const size_t tail = std::min<size_t>(end - row0, kB);
    const bool partial = head > 0 || tail < kB;
    for (size_t v = 0; v < kVecs; ++v) {
      const size_t off = v * W;
      V arg;
      if constexpr (kInnerProduct) {
        V dot = O::Zero();
        for (size_t j = 0; j < d; ++j) {
          dot = O::Fma(O::Set1(q[j]), O::Load(soa.BlockDim(b, j) + off), dot);
        }
        arg = O::Fma(O::Set1(scale), dot, O::Set1(kernel.beta));
      } else {
        // Even and odd dimensions feed two independent FMA chains, which
        // halves the serial latency of the distance per block.
        V sq_even = O::Zero();
        V sq_odd = O::Zero();
        size_t j = 0;
        for (; j + 1 < d; j += 2) {
          const V diff_even =
              O::Sub(O::Set1(q[j]), O::Load(soa.BlockDim(b, j) + off));
          const V diff_odd = O::Sub(O::Set1(q[j + 1]),
                                    O::Load(soa.BlockDim(b, j + 1) + off));
          sq_even = O::Fma(diff_even, diff_even, sq_even);
          sq_odd = O::Fma(diff_odd, diff_odd, sq_odd);
        }
        if (j < d) {
          const V diff =
              O::Sub(O::Set1(q[j]), O::Load(soa.BlockDim(b, j) + off));
          sq_even = O::Fma(diff, diff, sq_even);
        }
        arg = O::Mul(O::Set1(scale), O::Add(sq_even, sq_odd));
      }
      const V weights =
          partial ? O::LoadLanes(w + off, std::clamp(head, off, off + W) - off,
                                 std::clamp(tail, off, off + W) - off)
                  : O::Load(w + off);
      acc = O::Fma(weights, ProfileV<O, K>(kernel, arg), acc);
      std::swap(acc, acc_other);
    }
  }
  return O::ReduceAdd(O::Add(acc, acc_other));
}

// Fixed-dim instantiations for small synthetic dims and a few common
// widths (8, 16, 18, 28, 32, 64). Every other dim takes the runtime-dim
// path, including all the benchmarked ones (home 10, miniboone 50,
// covtype 54).
template <typename O, KernelType K>
double LeafAggregateDims(const KernelParams& kernel, const SoaLeafBlocks& soa,
                         uint32_t begin, uint32_t end, const double* q) {
  switch (soa.dims()) {
    case 2:
      return LeafAggregateImpl<O, K, 2>(kernel, soa, begin, end, q);
    case 3:
      return LeafAggregateImpl<O, K, 3>(kernel, soa, begin, end, q);
    case 4:
      return LeafAggregateImpl<O, K, 4>(kernel, soa, begin, end, q);
    case 8:
      return LeafAggregateImpl<O, K, 8>(kernel, soa, begin, end, q);
    case 16:
      return LeafAggregateImpl<O, K, 16>(kernel, soa, begin, end, q);
    case 18:
      return LeafAggregateImpl<O, K, 18>(kernel, soa, begin, end, q);
    case 28:
      return LeafAggregateImpl<O, K, 28>(kernel, soa, begin, end, q);
    case 32:
      return LeafAggregateImpl<O, K, 32>(kernel, soa, begin, end, q);
    case 64:
      return LeafAggregateImpl<O, K, 64>(kernel, soa, begin, end, q);
    default:
      return LeafAggregateImpl<O, K, -1>(kernel, soa, begin, end, q);
  }
}

// Resolves the kernel family once per leaf range, so the block loop runs
// one profile with no per-vector switch.
template <typename O>
double LeafAggregateN(const KernelParams& kernel, const SoaLeafBlocks& soa,
                      uint32_t begin, uint32_t end, const double* q) {
  switch (kernel.type) {
    case KernelType::kGaussian:
      return LeafAggregateDims<O, KernelType::kGaussian>(kernel, soa, begin,
                                                         end, q);
    case KernelType::kLaplacian:
      return LeafAggregateDims<O, KernelType::kLaplacian>(kernel, soa, begin,
                                                          end, q);
    case KernelType::kCauchy:
      return LeafAggregateDims<O, KernelType::kCauchy>(kernel, soa, begin,
                                                       end, q);
    case KernelType::kPolynomial:
      return LeafAggregateDims<O, KernelType::kPolynomial>(kernel, soa, begin,
                                                           end, q);
    case KernelType::kSigmoid:
      return LeafAggregateDims<O, KernelType::kSigmoid>(kernel, soa, begin,
                                                        end, q);
  }
  return 0.0;
}

// Dot product: two independent accumulators hide FMA latency; the < one
// vector tail runs scalar (for d below the lane width this degenerates
// to the plain scalar loop).
template <typename O, int N>
double DotImpl(const double* a, const double* b, size_t runtime_n) {
  using V = typename O::Vec;
  constexpr size_t W = O::kLanes;
  const size_t n = N >= 0 ? static_cast<size_t>(N) : runtime_n;
  V acc0 = O::Zero();
  V acc1 = O::Zero();
  size_t j = 0;
  for (; j + 2 * W <= n; j += 2 * W) {
    acc0 = O::Fma(O::Load(a + j), O::Load(b + j), acc0);
    acc1 = O::Fma(O::Load(a + j + W), O::Load(b + j + W), acc1);
  }
  if (j + W <= n) {
    acc0 = O::Fma(O::Load(a + j), O::Load(b + j), acc0);
    j += W;
  }
  double total = O::ReduceAdd(O::Add(acc0, acc1));
  // < W elements remain; the explicit t < W bound keeps the unroller
  // from inventing unbounded trip counts for fixed-N instantiations.
  for (size_t t = 0; t < W && j + t < n; ++t) total += a[j + t] * b[j + t];
  return total;
}

template <typename O, int N>
double SqnormImpl(const double* a, size_t runtime_n) {
  using V = typename O::Vec;
  constexpr size_t W = O::kLanes;
  const size_t n = N >= 0 ? static_cast<size_t>(N) : runtime_n;
  V acc0 = O::Zero();
  V acc1 = O::Zero();
  size_t j = 0;
  for (; j + 2 * W <= n; j += 2 * W) {
    const V v0 = O::Load(a + j);
    const V v1 = O::Load(a + j + W);
    acc0 = O::Fma(v0, v0, acc0);
    acc1 = O::Fma(v1, v1, acc1);
  }
  if (j + W <= n) {
    const V v = O::Load(a + j);
    acc0 = O::Fma(v, v, acc0);
    j += W;
  }
  double total = O::ReduceAdd(O::Add(acc0, acc1));
  for (size_t t = 0; t < W && j + t < n; ++t) total += a[j + t] * a[j + t];
  return total;
}

template <typename O>
double DotN(const double* a, const double* b, size_t n) {
  switch (n) {
    case 8:
      return DotImpl<O, 8>(a, b, n);
    case 16:
      return DotImpl<O, 16>(a, b, n);
    case 18:
      return DotImpl<O, 18>(a, b, n);
    case 28:
      return DotImpl<O, 28>(a, b, n);
    case 32:
      return DotImpl<O, 32>(a, b, n);
    case 64:
      return DotImpl<O, 64>(a, b, n);
    default:
      return DotImpl<O, -1>(a, b, n);
  }
}

template <typename O>
double SqnormN(const double* a, size_t n) {
  switch (n) {
    case 8:
      return SqnormImpl<O, 8>(a, n);
    case 16:
      return SqnormImpl<O, 16>(a, n);
    case 18:
      return SqnormImpl<O, 18>(a, n);
    case 28:
      return SqnormImpl<O, 28>(a, n);
    case 32:
      return SqnormImpl<O, 32>(a, n);
    case 64:
      return SqnormImpl<O, 64>(a, n);
    default:
      return SqnormImpl<O, -1>(a, n);
  }
}

// NodeGeometry of one kd box (see ScalarBoxGeometry in simd.cc for the
// branchless near/far form). The < one vector tail is a masked load whose
// zero lanes add exactly nothing to all three sums.
template <typename O>
NodeGeometry BoxGeometryN(const double* lower, const double* upper,
                          const double* a, const double* q, size_t d) {
  using V = typename O::Vec;
  constexpr size_t W = O::kLanes;
  const V zero = O::Zero();
  V min_acc = zero;
  V max_acc = zero;
  V dot_acc = zero;
  const auto step = [&](V l, V u, V av, V qv) {
    const V near = O::Max(O::Max(zero, O::Sub(l, qv)), O::Sub(qv, u));
    const V far = O::Max(O::Sub(qv, l), O::Sub(u, qv));
    min_acc = O::Fma(near, near, min_acc);
    max_acc = O::Fma(far, far, max_acc);
    dot_acc = O::Fma(qv, av, dot_acc);
  };
  size_t j = 0;
  for (; j + W <= d; j += W) {
    step(O::Load(lower + j), O::Load(upper + j), O::Load(a + j),
         O::Load(q + j));
  }
  if (j < d) {
    const size_t n = d - j;
    step(O::LoadLanes(lower + j, 0, n), O::LoadLanes(upper + j, 0, n),
         O::LoadLanes(a + j, 0, n), O::LoadLanes(q + j, 0, n));
  }
  return {O::ReduceAdd(min_acc), O::ReduceAdd(max_acc),
          O::ReduceAdd(dot_acc)};
}

// Gaussian KARL bounds of N ∈ {1, 2} kd boxes (see KarlGaussianBoxBounds
// in simd.h). Box i only ever meets box i's accumulators and lanes, so
// each box's interval is the same whether it is bounded alone or with a
// sibling: the geometry is BoxGeometryN's pass per box, sharing only the
// loads of q, and the exp arguments are packed four lanes per box,
// [−x_lo, −x_hi, −t_opt, 0], so the six exps of a pair take one AVX-512
// vector exp or two AVX2 ones.
//
// Around the exps, the bounds are ScalarKarlGaussianBounds' chord and
// tangent (simd.cc), rearranged so that every division runs before the
// exp and only a multiply-add follows it:
//   chord    m·X + c·w = w·f(x_lo) + (f(x_hi) − f(x_lo))·β,
//            β = (X − w·x_lo) / (x_hi − x_lo) ∈ [0, w];
//   tangent  −e·X + (1 + t)·e·w = e·γ,  e = f(t),  γ = w·(1 + t) − X.
// The chord form is also the better conditioned one: for a narrow
// interval, β's rounding is scaled by f(x_hi) − f(x_lo) ≈ 0.
template <typename O, size_t N>
void KarlGaussianBoxBoundsImpl(const double* q, size_t d, double q_sqnorm,
                               double scale, const KdBoxSummary* boxes,
                               NodeInterval* out) {
  using V = typename O::Vec;
  constexpr size_t W = O::kLanes;
  const V zero = O::Zero();
  V min_acc[N] = {}, max_acc[N] = {}, dot_acc[N] = {};
  const auto step = [&](size_t i, V l, V u, V av, V qv) {
    const V near = O::Max(O::Max(zero, O::Sub(l, qv)), O::Sub(qv, u));
    const V far = O::Max(O::Sub(qv, l), O::Sub(u, qv));
    min_acc[i] = O::Fma(near, near, min_acc[i]);
    max_acc[i] = O::Fma(far, far, max_acc[i]);
    dot_acc[i] = O::Fma(qv, av, dot_acc[i]);
  };
  size_t j = 0;
  for (; j + W <= d; j += W) {
    const V qv = O::Load(q + j);
#pragma GCC unroll 2
    for (size_t i = 0; i < N; ++i) {
      step(i, O::Load(boxes[i].lower + j), O::Load(boxes[i].upper + j),
           O::Load(boxes[i].a + j), qv);
    }
  }
  if (j < d) {
    const size_t n = d - j;
    const V qv = O::LoadLanes(q + j, 0, n);
#pragma GCC unroll 2
    for (size_t i = 0; i < N; ++i) {
      step(i, O::LoadLanes(boxes[i].lower + j, 0, n),
           O::LoadLanes(boxes[i].upper + j, 0, n),
           O::LoadLanes(boxes[i].a + j, 0, n), qv);
    }
  }

  // The exp arguments, four lanes per box, overwritten by their exps.
  constexpr size_t kVecs = (4 * N + W - 1) / W;
  alignas(64) double lanes[kVecs * W] = {};
  bool degenerate[N] = {};
  double beta[N] = {}, gamma[N] = {};
#pragma GCC unroll 2
  for (size_t i = 0; i < N; ++i) {
    const double w = boxes[i].w;
    const double x_lo = scale * O::ReduceAdd(min_acc[i]);
    const double x_hi = scale * O::ReduceAdd(max_acc[i]);
    const double sum_x = util::Clamp(
        scale * (w * q_sqnorm - 2.0 * O::ReduceAdd(dot_acc[i]) + boxes[i].b),
        w * x_lo, w * x_hi);
    const double t_opt = util::Clamp(sum_x / w, x_lo, x_hi);
    degenerate[i] = x_hi - x_lo < kDegenerateInterval;
    beta[i] = degenerate[i] ? 0.0 : (sum_x - w * x_lo) / (x_hi - x_lo);
    gamma[i] = w * (1.0 + t_opt) - sum_x;
    lanes[4 * i] = -x_lo;
    lanes[4 * i + 1] = -x_hi;
    lanes[4 * i + 2] = -t_opt;
  }
#pragma GCC unroll 2
  for (size_t v = 0; v < kVecs; ++v) {
    O::Store(lanes + v * W, VExp<O>(O::FromLanes(lanes + v * W)));
  }
#pragma GCC unroll 2
  for (size_t i = 0; i < N; ++i) {
    const double w = boxes[i].w;
    const double flo = lanes[4 * i];
    const double fhi = lanes[4 * i + 1];
    if (degenerate[i]) {
      // Numerically constant profile over the node.
      out[i] = {w * fhi, w * flo};
    } else {
      const double ub = w * flo + (fhi - flo) * beta[i];
      out[i] = {std::min(std::max(0.0, lanes[4 * i + 2] * gamma[i]), ub), ub};
    }
  }
}

template <typename O>
void KarlGaussianBoxBoundsN(const double* q, size_t d, double q_sqnorm,
                            double scale, const KdBoxSummary* boxes,
                            size_t count, NodeInterval* out) {
  if (count == 2) {
    KarlGaussianBoxBoundsImpl<O, 2>(q, d, q_sqnorm, scale, boxes, out);
  } else {
    KarlGaussianBoxBoundsImpl<O, 1>(q, d, q_sqnorm, scale, boxes, out);
  }
}

template <typename O>
void ExpBlockN(const double* in, double* out, size_t n) {
  constexpr size_t W = O::kLanes;
  size_t i = 0;
  for (; i + W <= n; i += W) O::Store(out + i, VExp<O>(O::Load(in + i)));
  if (i < n) {
    alignas(64) double buf[W] = {0.0};
    for (size_t l = 0; l < W; ++l) buf[l] = i + l < n ? in[i + l] : 0.0;
    alignas(64) double res[W];
    O::Store(res, VExp<O>(O::Load(buf)));
    for (size_t l = 0; l < W; ++l) {
      if (i + l < n) out[i + l] = res[l];
    }
  }
}

}  // namespace karl::core::simd::internal

#endif  // KARL_CORE_SIMD_KERNELS_IMPL_H_
