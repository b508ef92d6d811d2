// Width-generic SIMD kernel bodies, instantiated once per ISA
// translation unit (kernels_avx2.cc, kernels_avx512.cc) against a
// vector-ops policy `O`:
//
//   using Vec;                          // __m256d / __m512d
//   static constexpr size_t kLanes;     // 4 / 8
//   static constexpr size_t kRegisters; // 16 / 32 vector registers
//   Vec  Load(const double*);           // unaligned
//   Vec  LoadLanes(const double* p, size_t lo, size_t hi);
//        // lanes [lo, hi) of p, the rest 0 (lo ≤ hi ≤ kLanes); never
//        // touches memory outside those lanes
//   Vec  FromLanes(const double* p);    // p[0 .. kLanes), assembled in
//                                       // registers: no store-forwarding
//                                       // stall on just-written values
//   void Store(double*, Vec);
//   void StoreLanes(double* p, Vec v, size_t n);
//        // lanes [0, n) of v to p (n ≤ kLanes); never touches memory
//        // past them
//   Vec  Set1(double);  Vec Zero();
//   Vec  Add/Sub/Mul/Div(Vec, Vec);
//   Vec  Fma(a, b, c)  = a*b + c;       // fused
//   Vec  Fnma(a, b, c) = c - a*b;       // fused
//   Vec  Max(Vec, Vec);  Vec Sqrt(Vec);
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
// k·kLn2Hi is exact for the |k| ≤ 1024 range of arguments in
// [-708, 709], making the reduction r = x − k·ln2 accurate to an ulp of r.
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
// couple of ulp (contract: kVectorExpUlpBound) for x ≤ 709. Arguments
// below −708 are raised to it: there the true result is subnormal or
// zero and the clamped value ≤ 3.4e-308 (contract:
// kVectorExpUnderflowAbs). There is no upper clamp, which keeps one op
// off every exp's dependency chain: above 709 the result would overflow,
// and no caller gets there. Leaf and box-bound arguments are ≤ 0 (kernel
// profiles are ≤ 1), and ExpBlock is a test seam fed [−708, 709].
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
  const V xc = O::Max(x, O::Set1(-708.0));
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

// Inner-product kernels take γ·(q·p)+β, distance kernels scale·dist².
template <KernelType K>
inline constexpr bool kInnerProductKernel =
    K == KernelType::kPolynomial || K == KernelType::kSigmoid;

// The kernel profiles of N ∈ {1, 2} vectors of SoA lanes, x[i] pointing
// at vector i's lanes of dimension 0 (dimension j lies j·kBlockPoints
// further on). The vectors' distance (or dot) chains and then their exps
// run side by side; each vector's arithmetic is the one it runs alone.
template <typename O, KernelType K, size_t N>
inline void LeafProfiles(const KernelParams& kernel, const double* const* x,
                         const double* q, size_t d, double scale,
                         typename O::Vec* profile) {
  using V = typename O::Vec;
  constexpr size_t kB = SoaLeafBlocks::kBlockPoints;
  V arg[N];
  if constexpr (kInnerProductKernel<K>) {
    V dot[N] = {};
    for (size_t j = 0; j < d; ++j) {
      const V qj = O::Set1(q[j]);
#pragma GCC unroll 2
      for (size_t i = 0; i < N; ++i) {
        dot[i] = O::Fma(qj, O::Load(x[i] + j * kB), dot[i]);
      }
    }
#pragma GCC unroll 2
    for (size_t i = 0; i < N; ++i) {
      arg[i] = O::Fma(O::Set1(scale), dot[i], O::Set1(kernel.beta));
    }
  } else {
    // Even and odd dimensions feed two independent FMA chains per vector,
    // which halves the serial latency of each distance.
    V sq_even[N] = {}, sq_odd[N] = {};
    size_t j = 0;
    for (; j + 1 < d; j += 2) {
      const V q_even = O::Set1(q[j]);
      const V q_odd = O::Set1(q[j + 1]);
#pragma GCC unroll 2
      for (size_t i = 0; i < N; ++i) {
        const V diff_even = O::Sub(q_even, O::Load(x[i] + j * kB));
        const V diff_odd = O::Sub(q_odd, O::Load(x[i] + (j + 1) * kB));
        sq_even[i] = O::Fma(diff_even, diff_even, sq_even[i]);
        sq_odd[i] = O::Fma(diff_odd, diff_odd, sq_odd[i]);
      }
    }
    if (j < d) {
      const V q_last = O::Set1(q[j]);
#pragma GCC unroll 2
      for (size_t i = 0; i < N; ++i) {
        const V diff = O::Sub(q_last, O::Load(x[i] + j * kB));
        sq_even[i] = O::Fma(diff, diff, sq_even[i]);
      }
    }
#pragma GCC unroll 2
    for (size_t i = 0; i < N; ++i) {
      arg[i] = O::Mul(O::Set1(scale), O::Add(sq_even[i], sq_odd[i]));
    }
  }
#pragma GCC unroll 2
  for (size_t i = 0; i < N; ++i) profile[i] = ProfileV<O, K>(kernel, arg[i]);
}

// Σ wᵢ·K(q,pᵢ) over SoA rows [begin, end) for kernel family K. The range
// is read as W-lane vectors from its first block's first lane to its
// last row, in row order, and each step computes two vectors' profiles
// before it accumulates either: two blocks per step on AVX-512, a
// block's two halves on AVX2, and a lone last vector alone. A single
// vector's ~90-cycle chain of distance, exp and FMA otherwise runs with
// nothing independent beside it. Even vectors go into one accumulator
// and odd ones into the other, so consecutive FMAs into the sum do not
// wait on each other either.
template <typename O, KernelType K>
double LeafAggregateImpl(const KernelParams& kernel, const SoaLeafBlocks& soa,
                         uint32_t begin, uint32_t end, const double* q) {
  using V = typename O::Vec;
  constexpr size_t W = O::kLanes;
  constexpr size_t kB = SoaLeafBlocks::kBlockPoints;
  const size_t d = soa.dims();
  const double scale =
      kInnerProductKernel<K> ? kernel.gamma : DistanceArgScale(kernel);
  const double* weights = soa.block_weights().data();
  // Vector t holds rows [row0 + t·W, row0 + (t + 1)·W). The vectors
  // start at the first lane of the range's first block, so on AVX2 a
  // leading half-block outside the range is still computed, masked:
  // skipping it would move every later vector to the other accumulator
  // and change the sum's bits. They stop at the vector holding the last
  // row; a fully masked trailing half-block would only add +0.
  const size_t row0 = begin / kB * kB;
  const size_t vecs = (end + W - 1) / W - row0 / W;
  const auto lanes = [&](size_t t) {
    const size_t row = row0 + t * W;
    return soa.BlockDim(row / kB, 0) + row % kB;
  };
  // Vector t's weights; lanes outside [begin, end) load as zero, which
  // kills their contributions exactly.
  const auto vector_weights = [&](size_t t) {
    const size_t row = row0 + t * W;
    if (row >= begin && row + W <= end) return O::Load(weights + row);
    return O::LoadLanes(weights + row,
                        std::clamp<size_t>(begin, row, row + W) - row,
                        std::clamp<size_t>(end, row, row + W) - row);
  };

  V acc[2] = {O::Zero(), O::Zero()};
  size_t t = 0;
  for (; t + 2 <= vecs; t += 2) {
    const double* const x[2] = {lanes(t), lanes(t + 1)};
    V profile[2];
    LeafProfiles<O, K, 2>(kernel, x, q, d, scale, profile);
    acc[0] = O::Fma(vector_weights(t), profile[0], acc[0]);
    acc[1] = O::Fma(vector_weights(t + 1), profile[1], acc[1]);
  }
  if (t < vecs) {
    const double* const x[1] = {lanes(t)};
    V profile[1];
    LeafProfiles<O, K, 1>(kernel, x, q, d, scale, profile);
    acc[0] = O::Fma(vector_weights(t), profile[0], acc[0]);
  }
  return O::ReduceAdd(O::Add(acc[0], acc[1]));
}

// Resolves the kernel family once per leaf range, so the block loop runs
// one profile with no per-vector switch.
template <typename O>
double LeafAggregateN(const KernelParams& kernel, const SoaLeafBlocks& soa,
                      uint32_t begin, uint32_t end, const double* q) {
  switch (kernel.type) {
    case KernelType::kGaussian:
      return LeafAggregateImpl<O, KernelType::kGaussian>(kernel, soa, begin,
                                                         end, q);
    case KernelType::kLaplacian:
      return LeafAggregateImpl<O, KernelType::kLaplacian>(kernel, soa, begin,
                                                          end, q);
    case KernelType::kCauchy:
      return LeafAggregateImpl<O, KernelType::kCauchy>(kernel, soa, begin,
                                                       end, q);
    case KernelType::kPolynomial:
      return LeafAggregateImpl<O, KernelType::kPolynomial>(kernel, soa, begin,
                                                           end, q);
    case KernelType::kSigmoid:
      return LeafAggregateImpl<O, KernelType::kSigmoid>(kernel, soa, begin,
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

// Applies the k reflections H_r = I − 2·v_r·v_rᵀ, r = 0 first, to R
// row-major rows of `d` values, each held in C vectors of registers from
// its load to its store, with the scalar tier's arithmetic (simd.h):
// s = v_r·x summed in eight lanes — lane l takes the products of j ≡ l
// (mod 8) in ascending j, a product past d counting as +0 — joined as
// ((s0+s4)+(s2+s6))+((s1+s5)+(s3+s7)), which is what ReduceAdd of lanes
// 0–3 plus lanes 4–7 does on either width; then x_j − (s + s)·v_rj. C
// covers whole groups of eight lanes; the R rows carry independent
// chains.
template <typename O, size_t C, size_t R>
inline void ReflectRowsStep(const double* v, size_t k, size_t d,
                            const double* in, double* out) {
  using V = typename O::Vec;
  constexpr size_t W = O::kLanes;
  constexpr size_t G = 8 / W;  // Vectors per group of eight lanes.
  static_assert(G * W == 8 && C % G == 0, "C covers whole lane groups");
  const auto load = [d](const double* p, size_t c) {
    const size_t off = c * W;
    return off + W <= d ? O::Load(p + off)
                        : O::LoadLanes(p + off, 0, off < d ? d - off : 0);
  };
  V x[R][C];
  for (size_t r = 0; r < R; ++r) {
    for (size_t c = 0; c < C; ++c) x[r][c] = load(in + r * d, c);
  }
  for (size_t h = 0; h < k; ++h) {
    const double* u = v + h * d;
    V uv[C];
    for (size_t c = 0; c < C; ++c) uv[c] = load(u, c);
    for (size_t r = 0; r < R; ++r) {
      V acc[G];
      for (size_t g = 0; g < G; ++g) acc[g] = O::Mul(uv[g], x[r][g]);
      for (size_t c = G; c < C; ++c) {
        acc[c % G] = O::Add(acc[c % G], O::Mul(uv[c], x[r][c]));
      }
      double s;
      if constexpr (G == 1) {
        s = O::ReduceAdd(acc[0]);
      } else {
        s = O::ReduceAdd(O::Add(acc[0], acc[1]));
      }
      const V b = O::Set1(s + s);
      for (size_t c = 0; c < C; ++c) {
        x[r][c] = O::Sub(x[r][c], O::Mul(b, uv[c]));
      }
    }
  }
  for (size_t r = 0; r < R; ++r) {
    double* y = out + r * d;
    for (size_t c = 0; c < C; ++c) {
      const size_t off = c * W;
      if (off + W <= d) {
        O::Store(y + off, x[r][c]);
      } else if (off < d) {
        O::StoreLanes(y + off, x[r][c], d - off);
      }
    }
  }
}

// Rows per step: as many as keep R·C row vectors in half the registers,
// 1 to 8.
template <typename O, size_t C>
void ReflectRowsC(const double* v, size_t k, size_t d, const double* in,
                  size_t count, double* out) {
  constexpr size_t R = std::clamp<size_t>(O::kRegisters / 2 / C, 1, 8);
  size_t r = 0;
  for (; r + R <= count; r += R) {
    ReflectRowsStep<O, C, R>(v, k, d, in + r * d, out + r * d);
  }
  for (; r < count; ++r) {
    ReflectRowsStep<O, C, 1>(v, k, d, in + r * d, out + r * d);
  }
}

template <typename O, size_t... Gm1>
void ReflectRowsDispatch(size_t groups, const double* v, size_t k, size_t d,
                         const double* in, size_t count, double* out,
                         std::index_sequence<Gm1...>) {
  constexpr size_t G = 8 / O::kLanes;
  (void)((groups == Gm1 + 1 &&
          (ReflectRowsC<O, (Gm1 + 1) * G>(v, k, d, in, count, out), true)) ||
         ...);
}

// Resolves the number of eight-lane groups once per call.
template <typename O>
void ReflectRowsN(const double* v, size_t k, size_t d, const double* in,
                  size_t count, double* out) {
  constexpr size_t kMaxGroups = kMaxReflectDims / 8;
  ReflectRowsDispatch<O>((d + 7) / 8, v, k, d, in, count, out,
                         std::make_index_sequence<kMaxGroups>{});
}

}  // namespace karl::core::simd::internal

#endif  // KARL_CORE_SIMD_KERNELS_IMPL_H_
