// AVX2+FMA tier. Built with -mavx2 -mfma when the toolchain supports
// them (src/CMakeLists.txt defines KARL_SIMD_TU_AVX2); otherwise this
// translation unit degenerates to a stub reporting the tier as not
// compiled, and dispatch (simd.cc) refuses to select it.

#include "core/simd/simd.h"

#if defined(KARL_SIMD_TU_AVX2) && defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include "core/simd/kernels_impl.h"

namespace karl::core::simd::internal {

namespace {

struct Avx2Ops {
  using Vec = __m256d;
  static constexpr size_t kLanes = 4;
  static constexpr size_t kRegisters = 16;

  static Vec Load(const double* p) { return _mm256_loadu_pd(p); }
  static Vec LoadLanes(const double* p, size_t lo, size_t hi) {
    const __m256i lane = _mm256_setr_epi64x(0, 1, 2, 3);
    const __m256i mask = _mm256_andnot_si256(
        _mm256_cmpgt_epi64(_mm256_set1_epi64x(static_cast<long long>(lo)),
                           lane),
        _mm256_cmpgt_epi64(_mm256_set1_epi64x(static_cast<long long>(hi)),
                           lane));
    return _mm256_maskload_pd(p, mask);
  }
  static void Store(double* p, Vec v) { _mm256_storeu_pd(p, v); }
  static void StoreLanes(double* p, Vec v, size_t n) {
    const __m256i mask = _mm256_cmpgt_epi64(
        _mm256_set1_epi64x(static_cast<long long>(n)),
        _mm256_setr_epi64x(0, 1, 2, 3));
    _mm256_maskstore_pd(p, mask, v);
  }
  static Vec FromLanes(const double* p) {
    return _mm256_setr_pd(p[0], p[1], p[2], p[3]);
  }
  static Vec Set1(double x) { return _mm256_set1_pd(x); }
  static Vec Zero() { return _mm256_setzero_pd(); }
  static Vec Add(Vec a, Vec b) { return _mm256_add_pd(a, b); }
  static Vec Sub(Vec a, Vec b) { return _mm256_sub_pd(a, b); }
  static Vec Mul(Vec a, Vec b) { return _mm256_mul_pd(a, b); }
  static Vec Div(Vec a, Vec b) { return _mm256_div_pd(a, b); }
  static Vec Fma(Vec a, Vec b, Vec c) { return _mm256_fmadd_pd(a, b, c); }
  static Vec Fnma(Vec a, Vec b, Vec c) { return _mm256_fnmadd_pd(a, b, c); }
  static Vec Max(Vec a, Vec b) { return _mm256_max_pd(a, b); }
  static Vec Sqrt(Vec a) { return _mm256_sqrt_pd(a); }
  static Vec Ldexpk(Vec p, Vec k) {
    // k is integral in [-1022, 1023], so k + kRoundShifter holds k in its
    // low mantissa bits: adding the exponent bias and shifting builds 2^k
    // directly in the exponent field.
    const __m256i t =
        _mm256_castpd_si256(_mm256_add_pd(k, _mm256_set1_pd(kRoundShifter)));
    const __m256i bits =
        _mm256_slli_epi64(_mm256_add_epi64(t, _mm256_set1_epi64x(1023)), 52);
    return _mm256_mul_pd(p, _mm256_castsi256_pd(bits));
  }
  static double ReduceAdd(Vec v) {
    const __m128d lo = _mm256_castpd256_pd128(v);
    const __m128d hi = _mm256_extractf128_pd(v, 1);
    const __m128d pair = _mm_add_pd(lo, hi);
    const __m128d swapped = _mm_unpackhi_pd(pair, pair);
    return _mm_cvtsd_f64(_mm_add_sd(pair, swapped));
  }
};

constexpr Ops kAvx2OpsTable = {
    DotN<Avx2Ops>,
    SqnormN<Avx2Ops>,
    LeafAggregateN<Avx2Ops>,
    ExpBlockN<Avx2Ops>,
    BoxGeometryN<Avx2Ops>,
    KarlGaussianBoxBoundsN<Avx2Ops>,
    ReflectRowsN<Avx2Ops>,
};

}  // namespace

const Ops* GetAvx2Ops() { return &kAvx2OpsTable; }

}  // namespace karl::core::simd::internal

#else  // stub: tier not compiled into this binary

namespace karl::core::simd::internal {

const Ops* GetAvx2Ops() { return nullptr; }

}  // namespace karl::core::simd::internal

#endif
