// AVX2+FMA tier. Built with -mavx2 -mfma when the toolchain supports
// them (src/CMakeLists.txt defines KARL_SIMD_TU_AVX2); otherwise this
// translation unit degenerates to a stub reporting the tier as not
// compiled, and dispatch (simd.cc) refuses to select it.

#include "core/simd/simd.h"

#if defined(KARL_SIMD_TU_AVX2) && defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include <cmath>

#include "core/simd/kernels_impl.h"
#include "core/simd/narrow_impl.h"

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
  static Vec LoadPlanes(const uint32_t* hi, const uint32_t* lo) {
    const __m256d wide =
        _mm256_cvtps_pd(_mm_loadu_ps(reinterpret_cast<const float*>(hi)));
    const __m256i low = _mm256_cvtepu32_epi64(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(lo)));
    return _mm256_castsi256_pd(
        _mm256_or_si256(_mm256_castpd_si256(wide), low));
  }
  static Vec KeepLanes(Vec v, size_t lo, size_t hi) {
    const __m256i lane = _mm256_setr_epi64x(0, 1, 2, 3);
    const __m256i mask = _mm256_andnot_si256(
        _mm256_cmpgt_epi64(_mm256_set1_epi64x(static_cast<long long>(lo)),
                           lane),
        _mm256_cmpgt_epi64(_mm256_set1_epi64x(static_cast<long long>(hi)),
                           lane));
    return _mm256_and_pd(v, _mm256_castsi256_pd(mask));
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

// The narrow pass's fp32 ops: half a 16-row group per vector.
struct Avx2F32 {
  using Vec = __m256;
  static constexpr size_t kLanes = 8;
  static constexpr int kTier = static_cast<int>(Tier::kAvx2);

  static Vec LoadWords(const uint32_t* p) {
    return _mm256_loadu_ps(reinterpret_cast<const float*>(p));
  }
  static Vec KeepLanes(Vec v, size_t lo, size_t hi) {
    const __m256i lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    const __m256i mask = _mm256_andnot_si256(
        _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(lo)), lane),
        _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(hi)), lane));
    return _mm256_and_ps(v, _mm256_castsi256_ps(mask));
  }
  static Vec Load(const float* p) { return _mm256_loadu_ps(p); }
  static void Store(float* p, Vec v) { _mm256_storeu_ps(p, v); }
  static Vec Set1(float x) { return _mm256_set1_ps(x); }
  static Vec Zero() { return _mm256_setzero_ps(); }
  static Vec Add(Vec a, Vec b) { return _mm256_add_ps(a, b); }
  static Vec Sub(Vec a, Vec b) { return _mm256_sub_ps(a, b); }
  static Vec Mul(Vec a, Vec b) { return _mm256_mul_ps(a, b); }
  static Vec Div(Vec a, Vec b) { return _mm256_div_ps(a, b); }
  static Vec Min(Vec a, Vec b) { return _mm256_min_ps(a, b); }
  static Vec Max(Vec a, Vec b) { return _mm256_max_ps(a, b); }
  static Vec Sqrt(Vec a) { return _mm256_sqrt_ps(a); }
  static Vec Fma(Vec a, Vec b, Vec c) { return _mm256_fmadd_ps(a, b, c); }
  static Vec Fnma(Vec a, Vec b, Vec c) { return _mm256_fnmadd_ps(a, b, c); }
  static Vec ZeroAbove(Vec v, Vec x, Vec t) {
    return _mm256_and_ps(v, _mm256_cmp_ps(x, t, _CMP_LE_OQ));
  }
  static Vec Pow2Mul(Vec p, Vec k) {
    const __m256i bits = _mm256_slli_epi32(
        _mm256_add_epi32(_mm256_cvtps_epi32(k), _mm256_set1_epi32(127)), 23);
    return _mm256_mul_ps(p, _mm256_castsi256_ps(bits));
  }
  static double SumLanes(Vec v) {
    return Avx2Ops::ReduceAdd(
        _mm256_add_pd(_mm256_cvtps_pd(_mm256_castps256_ps128(v)),
                      _mm256_cvtps_pd(_mm256_extractf128_ps(v, 1))));
  }
  static float MaxLanes(Vec v) {
    __m128 m4 = _mm_max_ps(_mm256_castps256_ps128(v),
                           _mm256_extractf128_ps(v, 1));
    m4 = _mm_max_ps(m4, _mm_movehl_ps(m4, m4));
    m4 = _mm_max_ss(m4, _mm_shuffle_ps(m4, m4, 1));
    return _mm_cvtss_f32(m4);
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
    LeafIntervalN<Avx2F32>,
    NarrowExpBlockN<Avx2F32>,
};

}  // namespace

const Ops* GetAvx2Ops() { return &kAvx2OpsTable; }

}  // namespace karl::core::simd::internal

#else  // stub: tier not compiled into this binary

namespace karl::core::simd::internal {

const Ops* GetAvx2Ops() { return nullptr; }

}  // namespace karl::core::simd::internal

#endif
