// AVX-512F tier: one full 8-point SoA block per vector. Built with
// -mavx512f when the toolchain supports it (KARL_SIMD_TU_AVX512);
// otherwise a stub, exactly like kernels_avx2.cc. Only the F subset is
// used, so any AVX-512 machine qualifies.

#include "core/simd/simd.h"

#if defined(KARL_SIMD_TU_AVX512) && defined(__AVX512F__)

#include <immintrin.h>

#include "core/simd/kernels_impl.h"

namespace karl::core::simd::internal {

namespace {

struct Avx512Ops {
  using Vec = __m512d;
  static constexpr size_t kLanes = 8;

  static Vec Load(const double* p) { return _mm512_loadu_pd(p); }
  static Vec LoadLanes(const double* p, size_t lo, size_t hi) {
    return _mm512_maskz_loadu_pd(
        static_cast<__mmask8>((1u << hi) - (1u << lo)), p);
  }
  static void Store(double* p, Vec v) { _mm512_storeu_pd(p, v); }
  static Vec FromLanes(const double* p) {
    return _mm512_setr_pd(p[0], p[1], p[2], p[3], p[4], p[5], p[6], p[7]);
  }
  static Vec Set1(double x) { return _mm512_set1_pd(x); }
  static Vec Zero() { return _mm512_setzero_pd(); }
  static Vec Add(Vec a, Vec b) { return _mm512_add_pd(a, b); }
  static Vec Sub(Vec a, Vec b) { return _mm512_sub_pd(a, b); }
  static Vec Mul(Vec a, Vec b) { return _mm512_mul_pd(a, b); }
  static Vec Div(Vec a, Vec b) { return _mm512_div_pd(a, b); }
  static Vec Fma(Vec a, Vec b, Vec c) { return _mm512_fmadd_pd(a, b, c); }
  static Vec Fnma(Vec a, Vec b, Vec c) { return _mm512_fnmadd_pd(a, b, c); }
  // The all-lanes maskz form of max compiles to the plain instruction;
  // the unmasked intrinsic routes through an undefined-source builtin
  // that trips -Wuninitialized once VExp is inlined into a caller that
  // packs its lanes in memory (the fused box bounds).
  static Vec Max(Vec a, Vec b) { return _mm512_maskz_max_pd(0xFF, a, b); }
  static Vec Sqrt(Vec a) { return _mm512_sqrt_pd(a); }
  // scalef is p·2^⌊k⌋ in one instruction, rounded once like the multiply
  // by a built 2^k it replaces, so the result is the same.
  static Vec Ldexpk(Vec p, Vec k) {
    return _mm512_maskz_scalef_pd(0xFF, p, k);
  }
  static double ReduceAdd(Vec v) {
    // Hand-rolled instead of _mm512_reduce_add_pd: the builtin reduce,
    // and _mm512_castpd512_pd256 too, go through an undefined-source
    // extract that trips -W(maybe-)uninitialized under -Werror.
    const __m256d lo = _mm512_maskz_extractf64x4_pd(0xF, v, 0);
    const __m256d hi = _mm512_maskz_extractf64x4_pd(0xF, v, 1);
    const __m256d quad = _mm256_add_pd(lo, hi);
    const __m128d pair = _mm_add_pd(_mm256_castpd256_pd128(quad),
                                    _mm256_extractf128_pd(quad, 1));
    const __m128d swapped = _mm_unpackhi_pd(pair, pair);
    return _mm_cvtsd_f64(_mm_add_sd(pair, swapped));
  }
};

constexpr Ops kAvx512OpsTable = {
    DotN<Avx512Ops>,
    SqnormN<Avx512Ops>,
    LeafAggregateN<Avx512Ops>,
    ExpBlockN<Avx512Ops>,
    BoxGeometryN<Avx512Ops>,
    KarlGaussianBoxBoundsN<Avx512Ops>,
};

}  // namespace

const Ops* GetAvx512Ops() { return &kAvx512OpsTable; }

}  // namespace karl::core::simd::internal

#else  // stub: tier not compiled into this binary

namespace karl::core::simd::internal {

const Ops* GetAvx512Ops() { return nullptr; }

}  // namespace karl::core::simd::internal

#endif
