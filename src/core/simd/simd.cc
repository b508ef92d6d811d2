#include "core/simd/simd.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>

#include "core/bounds.h"
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

constexpr internal::Ops kScalarOps = {
    ScalarDot,         ScalarSqnorm,      ScalarLeafAggregate,
    ScalarExpBlock,    ScalarBoxGeometry, ScalarKarlGaussianBoxBounds,
    ScalarReflectRows};

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
  const size_t d = soa.dims();
  util::KahanAccumulator acc;
  for (uint32_t i = begin; i < end; ++i) {
    double value;
    if (IsInnerProductKernel(kernel.type)) {
      double ip = 0.0;
      for (size_t j = 0; j < d; ++j) ip += q[j] * soa.At(i, j);
      value = KernelProfile(kernel, kernel.gamma * ip + kernel.beta);
    } else {
      double sq = 0.0;
      for (size_t j = 0; j < d; ++j) {
        const double diff = q[j] - soa.At(i, j);
        sq += diff * diff;
      }
      // Matches KernelValue's argument construction per family exactly.
      value = kernel.type == KernelType::kLaplacian
                  ? std::exp(-kernel.gamma * std::sqrt(sq))
                  : KernelProfile(kernel, kernel.gamma * sq);
    }
    acc.Add(soa.WeightAt(i) * value);
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

}  // namespace karl::core::simd
