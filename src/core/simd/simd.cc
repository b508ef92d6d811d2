#include "core/simd/simd.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <limits>

#include "core/bounds.h"
#include "core/simd/narrow_impl.h"
#include "util/check.h"
#include "util/math_util.h"

namespace karl::core::simd {

namespace {

// -----------------------------------------------------------------------
// Scalar tier: the reference oracle. These are deliberately the plain
// ascending loops of util::Dot / util::SquaredNorm and a Kahan sum of
// wᵢ·KernelValue(q, pᵢ) in row order (ScalarLeafAggregate, below), so
// KARL_SIMD=scalar reproduces pre-SIMD results bit-for-bit.
// -----------------------------------------------------------------------

double ScalarDot(const double* a, const double* b, size_t n) {
  return util::Dot({a, n}, {b, n});
}

double ScalarSqnorm(const double* a, size_t n) {
  return util::SquaredNorm({a, n});
}

void ScalarExpBlock(const double* in, double* out, size_t n) {
  for (size_t i = 0; i < n; ++i) out[i] = std::exp(in[i]);
}

// Branchless per-dimension corner distances, exact because lower ≤ upper:
// near = max(0, l−q, q−u) is the branchy "l−q if q < l, q−u if q > u,
// else 0" (its square equals the negated difference's), and
// far = max(q−l, u−q) is max(|q−l|, |u−q|). The three sums run in
// ascending dimension order, so scalar-tier bounds stay bit-identical.
NodeGeometry ScalarBoxGeometry(const double* lower, const double* upper,
                               const double* a, const double* q, size_t d) {
  NodeGeometry g;
  for (size_t j = 0; j < d; ++j) {
    const double near =
        std::max(std::max(0.0, lower[j] - q[j]), q[j] - upper[j]);
    const double far = std::max(q[j] - lower[j], upper[j] - q[j]);
    g.min_sq += near * near;
    g.max_sq += far * far;
    g.q_dot_a += q[j] * a[j];
  }
  return g;
}

void ScalarKarlGaussianBoxBounds(const double* q, size_t d, double q_sqnorm,
                                 double scale, const KdBoxSummary* boxes,
                                 size_t count, NodeInterval* out) {
  for (size_t i = 0; i < count; ++i) {
    const KdBoxSummary& box = boxes[i];
    out[i] = ScalarKarlGaussianBounds(
        ScalarBoxGeometry(box.lower, box.upper, box.a, q, d), box.w, box.b,
        q_sqnorm, scale);
  }
}

// The arithmetic every tier's ReflectRows repeats (see simd.h): v·x in
// eight lanes of ascending j ≡ l (mod 8), padded with +0 products, joined
// as ((s0+s4)+(s2+s6))+((s1+s5)+(s3+s7)).
void ScalarReflectRows(const double* v, size_t k, size_t d, const double* in,
                       size_t count, double* out) {
  constexpr size_t kLanes = 8;
  for (size_t r = 0; r < count; ++r) {
    double* x = out + r * d;
    std::copy(in + r * d, in + (r + 1) * d, x);
    for (size_t h = 0; h < k; ++h) {
      const double* u = v + h * d;
      double s[kLanes];
      for (size_t c = 0; c < d; c += kLanes) {
        for (size_t l = 0; l < kLanes; ++l) {
          const double p = c + l < d ? u[c + l] * x[c + l] : 0.0;
          s[l] = c == 0 ? p : s[l] + p;
        }
      }
      const double dot = ((s[0] + s[4]) + (s[2] + s[6])) +
                         ((s[1] + s[5]) + (s[3] + s[7]));
      const double b = dot + dot;
      for (size_t j = 0; j < d; ++j) x[j] = x[j] - b * u[j];
    }
  }
}

// The narrow pass's fp32 ops on one lane, with separately rounded
// multiplies and adds.
struct ScalarF32 {
  using Vec = float;
  static constexpr size_t kLanes = 1;
  static constexpr int kTier = static_cast<int>(Tier::kScalar);

  static Vec LoadWords(const uint32_t* p) { return std::bit_cast<float>(*p); }
  static Vec KeepLanes(Vec v, size_t lo, size_t hi) {
    return lo < hi ? v : 0.0f;
  }
  static Vec Load(const float* p) { return *p; }
  static void Store(float* p, Vec v) { *p = v; }
  static Vec Set1(float x) { return x; }
  static Vec Zero() { return 0.0f; }
  static Vec Add(Vec a, Vec b) { return a + b; }
  static Vec Sub(Vec a, Vec b) { return a - b; }
  static Vec Mul(Vec a, Vec b) { return a * b; }
  static Vec Div(Vec a, Vec b) { return a / b; }
  static Vec Min(Vec a, Vec b) { return b < a ? b : a; }
  static Vec Max(Vec a, Vec b) { return a < b ? b : a; }
  static Vec Sqrt(Vec a) { return std::sqrt(a); }
  static Vec Fma(Vec a, Vec b, Vec c) { return a * b + c; }
  static Vec Fnma(Vec a, Vec b, Vec c) { return c - a * b; }
  static Vec ZeroAbove(Vec v, Vec x, Vec t) { return x <= t ? v : 0.0f; }
  static Vec Pow2Mul(Vec p, Vec k) {
    return p * std::bit_cast<float>(
                   static_cast<uint32_t>(static_cast<int>(k) + 127) << 23);
  }
  static double SumLanes(Vec v) { return v; }
  static float MaxLanes(Vec v) { return v; }
};

constexpr internal::Ops kScalarOps = {
    ScalarDot,
    ScalarSqnorm,
    ScalarLeafAggregate,
    ScalarExpBlock,
    ScalarBoxGeometry,
    ScalarKarlGaussianBoxBounds,
    ScalarReflectRows,
    internal::LeafIntervalN<ScalarF32>,
    internal::NarrowExpBlockN<ScalarF32>,
};

const internal::Ops& OpsForTier(Tier tier) {
  switch (tier) {
    case Tier::kScalar:
      return kScalarOps;
    case Tier::kAvx2: {
      const internal::Ops* ops = internal::GetAvx2Ops();
      KARL_CHECK(ops != nullptr) << ": avx2 tier active but not compiled";
      return *ops;
    }
    case Tier::kAvx512: {
      const internal::Ops* ops = internal::GetAvx512Ops();
      KARL_CHECK(ops != nullptr) << ": avx512 tier active but not compiled";
      return *ops;
    }
  }
  return kScalarOps;
}

bool CpuSupports(Tier tier) {
#if defined(__x86_64__) || defined(__i386__)
  switch (tier) {
    case Tier::kScalar:
      return true;
    case Tier::kAvx2:
      return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
    case Tier::kAvx512:
      return __builtin_cpu_supports("avx512f");
  }
  return false;
#else
  return tier == Tier::kScalar;
#endif
}

// -1 = not yet resolved from the environment.
std::atomic<int> g_active_tier{-1};

}  // namespace

double ScalarLeafAggregate(const KernelParams& kernel,
                           const SoaLeafBlocks& soa, uint32_t begin,
                           uint32_t end, const double* q) {
  constexpr size_t kG = SoaLeafBlocks::kGroupRows;
  const size_t d = soa.dims();
  util::KahanAccumulator acc;
  for (uint32_t i = begin; i < end; ++i) {
    // Row i's words, dimension j at j·kG; its weight at d·kG.
    const uint32_t* hi = soa.GroupHi(i / kG) + i % kG;
    const uint32_t* lo = soa.GroupLo(i / kG) + i % kG;
    const auto at = [&](size_t j) {
      return JoinPlanes(hi[j * kG], lo[j * kG]);
    };
    double value;
    if (IsInnerProductKernel(kernel.type)) {
      double ip = 0.0;
      for (size_t j = 0; j < d; ++j) ip += q[j] * at(j);
      value = KernelProfile(kernel, kernel.gamma * ip + kernel.beta);
    } else {
      double sq = 0.0;
      for (size_t j = 0; j < d; ++j) {
        const double diff = q[j] - at(j);
        sq += diff * diff;
      }
      // Matches KernelValue's argument construction per family exactly.
      value = kernel.type == KernelType::kLaplacian
                  ? std::exp(-kernel.gamma * std::sqrt(sq))
                  : KernelProfile(kernel, kernel.gamma * sq);
    }
    acc.Add(at(d) * value);
  }
  return acc.Total();
}

NodeInterval ScalarKarlGaussianBounds(const NodeGeometry& g, double w,
                                      double b, double q_sqnorm,
                                      double scale) {
  const double x_lo = scale * g.min_sq;
  const double x_hi = scale * g.max_sq;
  NodeInterval out;
  if (x_hi - x_lo < kDegenerateInterval) {
    // Numerically constant profile over the node.
    out.lb = w * std::exp(-x_hi);
    out.ub = w * std::exp(-x_lo);
    return out;
  }
  // X = Σ w_i·x_i = s·(w_P‖q‖² − 2 q·a_P + b_P)  (Lemma 2/5), clamped
  // into its mathematically feasible range for numerical robustness.
  const double sum_x = util::Clamp(scale * (w * q_sqnorm - 2.0 * g.q_dot_a + b),
                                   w * x_lo, w * x_hi);
  const LinearFn chord = ExpChord(x_lo, x_hi);
  out.ub = chord.m * sum_x + chord.c * w;
  // Optimal tangent point (Theorem 1): the weighted mean of the x_i.
  const LinearFn tangent = ExpTangent(util::Clamp(sum_x / w, x_lo, x_hi));
  out.lb = std::min(std::max(0.0, tangent.m * sum_x + tangent.c * w), out.ub);
  return out;
}

namespace {

constexpr double kU32 = 0x1p-24;  // fp32 unit roundoff.
constexpr double kU64 = 0x1p-53;  // fp64 unit roundoff.

}  // namespace

NarrowQuery::NarrowQuery(const KernelParams& kernel, std::span<const double> q)
    : dims_(q.size()) {
  constexpr double u = kU32;
  const double s = kernel.gamma;
  if (IsInnerProductKernel(kernel.type) ||
      !(s >= 0x1p-126 && s < 0x1p127)) {
    return;
  }
  float* buf = inline_;
  if (dims_ > kInlineDims) {
    heap_.resize(dims_);
    buf = heap_.data();
  }
  q_ = buf;
  scale_ = static_cast<float>(s);
  double sq = 0.0;
  for (size_t j = 0; j < dims_; ++j) {
    if (!(std::abs(q[j]) < 0x1p127)) return;
    buf[j] = static_cast<float>(FlushToPlane(q[j]));
    sq += static_cast<double>(buf[j]) * buf[j];
  }
  const double d = static_cast<double>(dims_);
  if (!(d * u < 0x1p-8)) return;
  // |dist − √D̃| ≤ a1·√D̃ + c0 (DESIGN.md §14): each difference is off by
  // u·|q̃_j| (rounding q), 2u·|hi_j| (truncating p) and u·|d̃_j| (the
  // subtraction), and |hi_j| ≤ |q̃_j| + |d̃_j|·(1 + u); the sum of d squares
  // adds γ_d relatively; flushes and underflows add at most 2⁻¹²⁶ per
  // value and d·2⁻¹²⁶ to D̃.
  const double a1 = 3.0 * u + 2.0 * u * u + d * u / (1.0 - d * u);
  const double c0 =
      (3.0 * u * std::sqrt(sq) + std::sqrt(d) * 0x1p-62) * (1.0 + 0x1p-40);
  // The oracle's own distance and argument roundings, per unit of x.
  const double oracle = (d + 8.0) * kU64;
  // The cross term 2·s·√D̃·c0 ≤ c0·√s·(s·D̃ + 1), since 2y ≤ y² + 1.
  const double cs = c0 * std::sqrt(s);
  if (kernel.type == KernelType::kCauchy) {
    // (1 + x)/(1 + x̃) ∈ [Q⁻, Q⁺], x̃ = s̃ ⊗ D̃ rounding s·D̃ twice; kept
    // as 1/Q⁺ and 1/Q⁻ (their rounding is within the widening's slack).
    const double as = 2.0 * u + u * u;
    const double q_plus =
        ((1.0 + a1) * (1.0 + a1) + (1.0 + a1) * cs + s * c0 * c0) /
        (1.0 - as) * (1.0 + oracle);
    const double q_minus = ((1.0 - a1) * (1.0 - a1) - (1.0 - a1) * cs) /
                           (1.0 + as) * (1.0 - oracle);
    ap_ = 1.0 / q_plus;
    am_ = 1.0 / q_minus;
    usable_ = q_minus > 0.5;
    return;
  }
  // x ∈ [A⁻·x̃ − B⁻, A⁺·x̃ + B⁺] for the true profile argument x.
  double ap, am;
  if (kernel.type == KernelType::kLaplacian) {
    // x̃ = s̃ ⊗ √D̃: three roundings of s·√D̃.
    const double as = 3.0 * u + 4.0 * u * u;
    ap = (1.0 + a1) / (1.0 - as);
    am = (1.0 - a1) / (1.0 + as);
    bp_ = bm_ = s * c0 + 0x1p-125;
  } else {
    // x̃ = s̃ ⊗ D̃: two roundings of s·D̃.
    const double as = 2.0 * u + u * u;
    ap = ((1.0 + a1) * (1.0 + a1) + (1.0 + a1) * cs) / (1.0 - as);
    const double bracket = (1.0 - a1) * (1.0 - a1) - (1.0 - a1) * cs;
    am = bracket / (bracket >= 0.0 ? 1.0 + as : 1.0 - as);
    bp_ = (1.0 + a1) * cs + s * c0 * c0 + 0x1p-125;
    bm_ = (1.0 - a1) * cs + 0x1p-125;
  }
  ap_ = std::max(0.0, ap - 1.0) + oracle;  // α⁺
  am_ = std::max(0.0, 1.0 - am) + oracle;  // α⁻
  // A row whose x̃ passed the clamp holds at most e^{−(A⁻·86 − B⁻)}, which
  // is below e^{−85} ≤ 1.22e-37 once usable_ bounds α⁻ and B⁻.
  usable_ = bp_ <= 0.5 && bm_ <= 0.5 && am * kNarrowExpClamp - bm_ >= 85.0 &&
            am_ * kNarrowExpClamp <= 1.0;
}

namespace internal {

std::atomic<const Ops*> g_active_ops{nullptr};

const Ops& ResolveActiveOps() {
  const Ops& resolved = OpsForTier(ActiveTier());
  g_active_ops.store(&resolved, std::memory_order_release);
  return resolved;
}

}  // namespace internal

std::string_view TierName(Tier tier) {
  switch (tier) {
    case Tier::kScalar:
      return "scalar";
    case Tier::kAvx2:
      return "avx2";
    case Tier::kAvx512:
      return "avx512";
  }
  return "unknown";
}

Tier ParseTier(std::string_view name) {
  if (name == "scalar") return Tier::kScalar;
  if (name == "avx2") return Tier::kAvx2;
  if (name == "avx512") return Tier::kAvx512;
  KARL_CHECK(false) << ": invalid KARL_SIMD value \"" << name
                    << "\"; expected scalar|avx2|avx512";
  return Tier::kScalar;
}

bool TierCompiled(Tier tier) {
  switch (tier) {
    case Tier::kScalar:
      return true;
    case Tier::kAvx2:
      return internal::GetAvx2Ops() != nullptr;
    case Tier::kAvx512:
      return internal::GetAvx512Ops() != nullptr;
  }
  return false;
}

bool TierSupported(Tier tier) { return TierCompiled(tier) && CpuSupports(tier); }

Tier DetectBestTier() {
  if (TierSupported(Tier::kAvx512)) return Tier::kAvx512;
  if (TierSupported(Tier::kAvx2)) return Tier::kAvx2;
  return Tier::kScalar;
}

Tier ResolveTier(const char* env_value) {
  if (env_value == nullptr || env_value[0] == '\0') return DetectBestTier();
  const Tier tier = ParseTier(env_value);
  KARL_CHECK(TierSupported(tier))
      << ": KARL_SIMD=" << env_value
      << " requests a tier this build/CPU cannot run (compiled="
      << TierCompiled(tier) << ")";
  return tier;
}

Tier ActiveTier() {
  const int cached = g_active_tier.load(std::memory_order_acquire);
  if (cached >= 0) return static_cast<Tier>(cached);
  // A concurrent first call resolves to the same value, so the race is
  // benign.
  const Tier resolved = ResolveTier(std::getenv("KARL_SIMD"));
  g_active_tier.store(static_cast<int>(resolved), std::memory_order_release);
  return resolved;
}

void ForceTier(Tier tier) {
  KARL_CHECK(TierSupported(tier))
      << ": cannot force unsupported tier " << TierName(tier);
  g_active_tier.store(static_cast<int>(tier), std::memory_order_release);
  internal::g_active_ops.store(&OpsForTier(tier), std::memory_order_release);
}

void ExpBlock(std::span<const double> in, std::span<double> out) {
  KARL_CHECK(in.size() == out.size())
      << ": ExpBlock of mismatched lengths " << in.size() << " vs "
      << out.size();
  internal::ActiveOps().exp_block(in.data(), out.data(), in.size());
}

void NarrowExpBlock(std::span<const float> in, std::span<float> out) {
  KARL_CHECK(in.size() == out.size())
      << ": NarrowExpBlock of mismatched lengths " << in.size() << " vs "
      << out.size();
  internal::ActiveOps().narrow_exp_block(in.data(), out.data(), in.size());
}

}  // namespace karl::core::simd
