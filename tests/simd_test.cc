// Differential tests for the SIMD hot path (core/simd): every vector
// tier the host can run is compared against the scalar oracle across all
// kernel families, weighting types, dimensionalities and leaf-range
// alignments, pinning the accuracy contract stated in core/simd/simd.h:
//
//  * scalar tier == legacy loops, bit-for-bit (EXPECT_EQ on doubles);
//  * vector leaf aggregates within kLeafSumRelTolerance of scalar,
//    relative to the sum of absolute contributions;
//  * vector Dot/SquaredNorm and the kd-box geometry pass within
//    kDotRelTolerance, and the scalar geometry pass bit-equal to the box
//    loop it replaced;
//  * the fused Gaussian KARL box bounds: a 2-box call bit-equal to two
//    1-box calls in every tier, the scalar tier bit-equal to the
//    NodeBounds arithmetic it replaced, the vector tiers near scalar, and
//    every tier enclosing the exact node aggregate;
//  * the vector tiers' leaf sums and box bounds hashed bit for bit
//    against digests pinned per tier, so a rewrite of a vector kernel
//    that claims an unchanged arithmetic order is held to it;
//  * the vector exp within kVectorExpUlpBound ULPs of std::exp;
//  * dispatch: tier parsing/forcing, loud failure on invalid values,
//    and the karl_simd_tier gauge.
//
// The whole binary also runs under KARL_SIMD=scalar in CI (job
// scalar-forced); the differential cases then degenerate to
// scalar-vs-scalar and must still pass.

#include "core/simd/simd.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "core/bounds.h"
#include "core/karl.h"
#include "core/kernel.h"
#include "core/simd/soa_block.h"
#include "data/matrix.h"
#include "data/synthetic.h"
#include "index/kd_tree.h"
#include "telemetry/metrics.h"
#include "util/math_util.h"
#include "util/rng.h"

namespace karl {
namespace {

namespace simd = core::simd;
using core::KernelParams;
using core::KernelType;
using simd::SoaLeafBlocks;
using simd::Tier;

// Restores the tier that was active at construction; every test that
// calls ForceTier holds one so state never leaks across tests.
class TierGuard {
 public:
  TierGuard() : saved_(simd::ActiveTier()) {}
  ~TierGuard() { simd::ForceTier(saved_); }
  TierGuard(const TierGuard&) = delete;
  TierGuard& operator=(const TierGuard&) = delete;

 private:
  Tier saved_;
};

std::vector<Tier> SupportedTiers() {
  std::vector<Tier> tiers = {Tier::kScalar};
  if (simd::TierSupported(Tier::kAvx2)) tiers.push_back(Tier::kAvx2);
  if (simd::TierSupported(Tier::kAvx512)) tiers.push_back(Tier::kAvx512);
  return tiers;
}

// Kernel parameter scales chosen so contributions stay well inside the
// normal range for every tested dimensionality (no denormal kernel
// values; the vector exp's underflow clamp is pinned on its own by
// SimdExpTest.ClampedUnderflowWithinAbsoluteBound through simd::ExpBlock).
std::vector<KernelParams> KernelsForDim(size_t d) {
  const double dd = static_cast<double>(d);
  return {
      KernelParams::Gaussian(3.0 / dd),
      KernelParams::Laplacian(2.0 / std::sqrt(dd)),
      KernelParams::Cauchy(1.5 / dd),
      KernelParams::Polynomial(0.4 / dd, 0.1, 3),
      KernelParams::Polynomial(0.3 / dd, -0.1, 2),
      KernelParams::Sigmoid(0.3 / dd, 0.05),
  };
}

std::vector<double> WeightsForType(int weighting, size_t n, util::Rng& rng) {
  std::vector<double> w(n);
  for (auto& v : w) {
    switch (weighting) {
      case 1:
        v = 0.7;
        break;
      case 2:
        v = rng.Uniform(0.05, 1.5);
        break;
      default:
        v = rng.Uniform(-1.0, 1.0);
        if (v == 0.0) v = 0.5;
        break;
    }
  }
  return w;
}

data::Matrix RandomMatrix(size_t n, size_t d, util::Rng& rng) {
  data::Matrix m(n, d);
  for (size_t i = 0; i < n; ++i) {
    for (double& v : m.MutableRow(i)) v = rng.Uniform(-1.0, 1.0);
  }
  return m;
}

// Blocks over `pts` in row order (the identity permutation).
SoaLeafBlocks BlocksInRowOrder(const data::Matrix& pts,
                               std::span<const double> weights) {
  std::vector<size_t> perm(pts.rows());
  std::iota(perm.begin(), perm.end(), size_t{0});
  SoaLeafBlocks soa;
  soa.Build(pts, perm, weights);
  return soa;
}

// Σ |wᵢ·K(q,pᵢ)| over [begin, end) — the conditioning scale the leaf
// tolerance is stated against.
double AbsMass(const KernelParams& kernel, const data::Matrix& pts,
               std::span<const double> w, uint32_t begin, uint32_t end,
               std::span<const double> q) {
  double mass = 0.0;
  for (uint32_t i = begin; i < end; ++i) {
    mass += std::abs(w[i] * core::KernelValue(kernel, q, pts.Row(i)));
  }
  return mass;
}

// The legacy evaluator leaf loop verbatim: Kahan over wᵢ·KernelValue in
// ascending row order. The scalar tier must reproduce this bit-for-bit.
double LegacyLeafLoop(const KernelParams& kernel, const data::Matrix& pts,
                      std::span<const double> w, uint32_t begin, uint32_t end,
                      std::span<const double> q) {
  util::KahanAccumulator acc;
  for (uint32_t i = begin; i < end; ++i) {
    acc.Add(w[i] * core::KernelValue(kernel, q, pts.Row(i)));
  }
  return acc.Total();
}

// ULP distance between two positive finite doubles (exp never returns
// zero or a negative value for the arguments we feed it).
int64_t UlpDiff(double a, double b) {
  return std::abs(std::bit_cast<int64_t>(a) - std::bit_cast<int64_t>(b));
}

// ---------------------------------------------------------------------
// Leaf-aggregate differential suite: tiers x kernels x weightings x
// dims x leaf-range alignments.
// ---------------------------------------------------------------------

class SimdDifferentialTest : public ::testing::TestWithParam<size_t> {};

TEST_P(SimdDifferentialTest, VectorLeafAggregatesMatchScalarOracle) {
  const size_t d = GetParam();
  const size_t n = 53;  // 7 blocks: 6 full + 1 ragged (5 pad lanes).
  util::Rng rng(1234 + static_cast<uint64_t>(d));
  const data::Matrix pts = RandomMatrix(n, d, rng);

  // Aligned ranges, unaligned heads/tails, an intra-block sliver, the
  // ragged final block, single rows and an empty range.
  const std::pair<uint32_t, uint32_t> ranges[] = {
      {0, 53}, {0, 8}, {8, 24}, {3, 5}, {5, 21},
      {48, 53}, {7, 9}, {52, 53}, {4, 4}};

  for (const int weighting : {1, 2, 3}) {
    const auto weights = WeightsForType(weighting, n, rng);
    const SoaLeafBlocks soa = BlocksInRowOrder(pts, weights);

    for (const KernelParams& kernel : KernelsForDim(d)) {
      std::vector<double> q(d);
      for (auto& v : q) v = rng.Uniform(-1.0, 1.0);

      for (const auto& [begin, end] : ranges) {
        TierGuard guard;
        simd::ForceTier(Tier::kScalar);
        const double scalar = simd::LeafAggregate(kernel, soa, begin, end, q);

        // Scalar tier vs the legacy evaluator loop: bit-identical.
        EXPECT_EQ(scalar, LegacyLeafLoop(kernel, pts, weights, begin, end, q))
            << core::KernelTypeToString(kernel.type) << " w" << weighting
            << " d=" << d << " [" << begin << "," << end << ")";

        const double mass = AbsMass(kernel, pts, weights, begin, end, q);
        for (const Tier tier : SupportedTiers()) {
          simd::ForceTier(tier);
          const double vec = simd::LeafAggregate(kernel, soa, begin, end, q);
          EXPECT_LE(std::abs(vec - scalar),
                    simd::kLeafSumRelTolerance * mass)
              << simd::TierName(tier) << " "
              << core::KernelTypeToString(kernel.type) << " w" << weighting
              << " d=" << d << " [" << begin << "," << end
              << ") scalar=" << scalar << " vec=" << vec;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Dims, SimdDifferentialTest,
                         ::testing::Values(1, 3, 7, 8, 16, 33, 100),
                         [](const ::testing::TestParamInfo<size_t>& info) {
                           return "D" + std::to_string(info.param);
                         });

TEST(SimdDifferentialTest, DotAndSquaredNormMatchScalarOracle) {
  util::Rng rng(88);
  for (const size_t n : {size_t{1}, size_t{2}, size_t{3}, size_t{7}, size_t{8},
                         size_t{15}, size_t{16}, size_t{17}, size_t{18},
                         size_t{28}, size_t{31}, size_t{32}, size_t{33},
                         size_t{64}, size_t{100}, size_t{257}}) {
    std::vector<double> a(n), b(n);
    for (size_t i = 0; i < n; ++i) {
      a[i] = rng.Uniform(-2.0, 2.0);
      b[i] = rng.Uniform(-2.0, 2.0);
    }
    double dot_mass = 0.0, norm_mass = 0.0;
    for (size_t i = 0; i < n; ++i) {
      dot_mass += std::abs(a[i] * b[i]);
      norm_mass += a[i] * a[i];
    }

    TierGuard guard;
    simd::ForceTier(Tier::kScalar);
    // Scalar tier delegates to the util loops: bit-identical.
    EXPECT_EQ(simd::Dot(a, b), util::Dot(a, b)) << "n=" << n;
    EXPECT_EQ(simd::SquaredNorm(a), util::SquaredNorm(a)) << "n=" << n;

    const double ref_dot = util::Dot(a, b);
    const double ref_norm = util::SquaredNorm(a);
    for (const Tier tier : SupportedTiers()) {
      simd::ForceTier(tier);
      EXPECT_LE(std::abs(simd::Dot(a, b) - ref_dot),
                simd::kDotRelTolerance * dot_mass)
          << simd::TierName(tier) << " n=" << n;
      EXPECT_LE(std::abs(simd::SquaredNorm(a) - ref_norm),
                simd::kDotRelTolerance * norm_mass)
          << simd::TierName(tier) << " n=" << n;
    }
  }
}

// ---------------------------------------------------------------------
// Node geometry: the fused kd-box pass (BoxGeometry) against the branchy
// box loop and util::Dot it replaced.
// ---------------------------------------------------------------------

// The box-distance loop the bound functions ran before BoxGeometry,
// verbatim. The scalar tier must reproduce it, plus util::Dot(q, a),
// bit-for-bit.
simd::NodeGeometry LegacyBoxGeometry(std::span<const double> lower,
                                     std::span<const double> upper,
                                     std::span<const double> a,
                                     std::span<const double> q) {
  simd::NodeGeometry g;
  for (size_t j = 0; j < q.size(); ++j) {
    const double to_lower = q[j] - lower[j];
    const double to_upper = upper[j] - q[j];
    if (to_lower < 0.0) {
      g.min_sq += to_lower * to_lower;
    } else if (to_upper < 0.0) {
      g.min_sq += to_upper * to_upper;
    }
    const double far_diff = std::max(std::abs(to_lower), std::abs(to_upper));
    g.max_sq += far_diff * far_diff;
  }
  g.q_dot_a = util::Dot(q, a);
  return g;
}

TEST(SimdGeometryTest, BoxGeometryMatchesLegacyBoxLoopAndDot) {
  util::Rng rng(515);
  for (const size_t d : {size_t{1}, size_t{3}, size_t{7}, size_t{8},
                         size_t{10}, size_t{16}, size_t{33}, size_t{50},
                         size_t{54}, size_t{100}}) {
    for (int trial = 0; trial < 40; ++trial) {
      std::vector<double> lower(d), upper(d), a(d), q(d);
      for (size_t j = 0; j < d; ++j) {
        const double x = rng.Uniform(-2.0, 2.0);
        const double y = rng.Uniform(-2.0, 2.0);
        lower[j] = std::min(x, y);
        // Every fourth trial has a degenerate box (l == u) throughout;
        // otherwise one dimension in five is degenerate.
        upper[j] = trial % 4 == 3 || rng.Uniform(0.0, 1.0) < 0.2
                       ? lower[j]
                       : std::max(x, y);
        a[j] = rng.Uniform(-50.0, 50.0);
        // Per dimension: inside the box, beyond the lower face, beyond
        // the upper face, or exactly on one of the faces.
        switch (static_cast<int>(rng.Uniform(0.0, 5.0))) {
          case 0:
            q[j] = rng.Uniform(lower[j], upper[j]);
            break;
          case 1:
            q[j] = lower[j] - rng.Uniform(0.0, 3.0);
            break;
          case 2:
            q[j] = upper[j] + rng.Uniform(0.0, 3.0);
            break;
          case 3:
            q[j] = lower[j];
            break;
          default:
            q[j] = upper[j];
            break;
        }
      }
      // Whole-query placements: trial 0 inside, trials 1/2 beyond every
      // lower/upper face.
      if (trial == 0) q = lower;
      if (trial == 1) {
        for (size_t j = 0; j < d; ++j) q[j] = lower[j] - 1.0;
      }
      if (trial == 2) {
        for (size_t j = 0; j < d; ++j) q[j] = upper[j] + 1.0;
      }

      const simd::NodeGeometry want = LegacyBoxGeometry(lower, upper, a, q);
      double dot_mass = 0.0;
      for (size_t j = 0; j < d; ++j) dot_mass += std::abs(q[j] * a[j]);

      TierGuard guard;
      simd::ForceTier(Tier::kScalar);
      const simd::NodeGeometry scalar = simd::BoxGeometry(lower, upper, a, q);
      EXPECT_EQ(scalar.min_sq, want.min_sq) << "d=" << d << " t" << trial;
      EXPECT_EQ(scalar.max_sq, want.max_sq) << "d=" << d << " t" << trial;
      EXPECT_EQ(scalar.q_dot_a, want.q_dot_a) << "d=" << d << " t" << trial;

      for (const Tier tier : SupportedTiers()) {
        simd::ForceTier(tier);
        const simd::NodeGeometry vec = simd::BoxGeometry(lower, upper, a, q);
        // The distance terms are all ≥ 0, so each sum is its own mass.
        EXPECT_LE(std::abs(vec.min_sq - want.min_sq),
                  simd::kDotRelTolerance * want.min_sq)
            << simd::TierName(tier) << " d=" << d << " t" << trial;
        EXPECT_LE(std::abs(vec.max_sq - want.max_sq),
                  simd::kDotRelTolerance * want.max_sq)
            << simd::TierName(tier) << " d=" << d << " t" << trial;
        EXPECT_LE(std::abs(vec.q_dot_a - want.q_dot_a),
                  simd::kDotRelTolerance * dot_mass)
            << simd::TierName(tier) << " d=" << d << " t" << trial;
      }
    }
  }
}

// Every leaf range of a 5-block point set: each (begin mod 8, end mod 8)
// pair, ranges inside one block and single points, so the head and tail
// lane masks of the vector loops meet every lane split.
TEST(SimdDifferentialTest, LeafMasksCoverEveryRangeAlignment) {
  constexpr uint32_t kRows = 40;
  for (const size_t d : {size_t{3}, size_t{10}, size_t{16}}) {
    util::Rng rng(777 + static_cast<uint64_t>(d));
    const data::Matrix pts = RandomMatrix(kRows, d, rng);
    for (const int weighting : {2, 3}) {
      const auto weights = WeightsForType(weighting, kRows, rng);
      const SoaLeafBlocks soa = BlocksInRowOrder(pts, weights);
      std::vector<double> q(d);
      for (auto& v : q) v = rng.Uniform(-1.0, 1.0);
      for (const KernelParams& kernel : KernelsForDim(d)) {
        for (uint32_t begin = 0; begin < kRows; ++begin) {
          for (uint32_t end = begin + 1; end <= kRows; ++end) {
            const double scalar =
                simd::ScalarLeafAggregate(kernel, soa, begin, end, q.data());
            const double mass = AbsMass(kernel, pts, weights, begin, end, q);
            for (const Tier tier : SupportedTiers()) {
              TierGuard guard;
              simd::ForceTier(tier);
              const double vec =
                  simd::LeafAggregate(kernel, soa, begin, end, q);
              ASSERT_LE(std::abs(vec - scalar),
                        simd::kLeafSumRelTolerance * mass)
                  << simd::TierName(tier) << " "
                  << core::KernelTypeToString(kernel.type) << " w"
                  << weighting << " d=" << d << " [" << begin << "," << end
                  << ") scalar=" << scalar << " vec=" << vec;
            }
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------
// Fused Gaussian KARL box bounds (KarlGaussianBoxBounds) against the
// NodeBounds arithmetic they replaced and the exact node aggregates.
// ---------------------------------------------------------------------

// The Gaussian branch of KarlDistanceBounds::NodeBounds before the fused
// op, verbatim from the node geometry on. The scalar tier must reproduce
// it bit for bit.
simd::NodeInterval LegacyGaussianNodeBounds(const KernelParams& params,
                                            const simd::NodeGeometry& g,
                                            double w, double b,
                                            double q_sqnorm, double scale) {
  simd::NodeInterval out;
  const double x_lo = scale * g.min_sq;
  const double x_hi = scale * g.max_sq;
  if (x_hi - x_lo < 1e-12) {
    out.lb = w * core::KernelProfile(params, x_hi);
    out.ub = w * core::KernelProfile(params, x_lo);
    return out;
  }
  const double sum_x =
      util::Clamp(scale * (w * q_sqnorm - 2.0 * g.q_dot_a + b), w * x_lo,
                  w * x_hi);
  const core::LinearFn chord = core::ExpChord(x_lo, x_hi);
  out.ub = chord.m * sum_x + chord.c * w;
  double t_opt = util::Clamp(sum_x / w, x_lo, x_hi);
  const core::LinearFn tangent = core::ExpTangent(t_opt);
  out.lb = std::max(0.0, tangent.m * sum_x + tangent.c * w);
  out.lb = std::min(out.lb, out.ub);
  return out;
}

// |vector − scalar| allowance for one box's bounds, from what perturbs
// them: the vector exp (kVectorExpUlpBound) and the reordered geometry
// sums (kDotRelTolerance of each sum's absolute mass) move every exp by
// a relative `rel`; the chord and tangent terms reach w·f(x_lo)·(1 + x_hi),
// and the scalar chord's intercept divides its rounding by the interval
// width (near-degenerate boxes are ill-conditioned in the oracle itself).
double BoxBoundTolerance(const simd::NodeGeometry& g, double dot_mass,
                         double w, double b, double q_sqnorm, double scale) {
  const double x_lo = scale * g.min_sq;
  const double x_hi = scale * g.max_sq;
  const double width = std::max(x_hi - x_lo, simd::kDegenerateInterval);
  const double rel =
      simd::kVectorExpUlpBound * std::numeric_limits<double>::epsilon() +
      simd::kDotRelTolerance * scale *
          (g.min_sq + g.max_sq + (w * q_sqnorm + 2.0 * dot_mass + b) / w);
  return 8.0 * rel * w * std::exp(-x_lo) * (1.0 + x_hi) *
         (1.0 + x_hi / width);
}

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

// Point sets whose kd boxes take every shape the op must handle: spread
// boxes, boxes flat in some dimensions or in all (lattice points and
// duplicates), and boxes so small that x_hi − x_lo < kDegenerateInterval.
std::vector<data::Matrix> BoxTestPointSets(size_t d, util::Rng& rng) {
  constexpr size_t kN = 64;
  data::Matrix spread = RandomMatrix(kN, d, rng);
  data::Matrix lattice(kN, d);
  data::Matrix tiny(kN, d);
  for (size_t i = 0; i < kN; ++i) {
    for (size_t j = 0; j < d; ++j) {
      lattice.MutableRow(i)[j] =
          0.5 * static_cast<double>(static_cast<int>(rng.Uniform(0.0, 3.0)));
      tiny.MutableRow(i)[j] = 0.25 + rng.Uniform(0.0, 1e-15);
    }
  }
  return {std::move(spread), std::move(lattice), std::move(tiny)};
}

// Queries inside the root box, on its faces, beyond them, and a mix per
// dimension.
std::vector<std::vector<double>> BoxTestQueries(const index::TreeIndex& tree,
                                                const data::Matrix& pts,
                                                util::Rng& rng) {
  const size_t d = pts.cols();
  const auto lower = tree.region_data_a().subspan(0, d);
  const auto upper = tree.region_data_b().subspan(0, d);
  const auto row = pts.Row(pts.rows() / 2);
  std::vector<std::vector<double>> qs = {
      {row.begin(), row.end()},
      {lower.begin(), lower.end()},
      {upper.begin(), upper.end()},
  };
  std::vector<double> beyond(d), mixed(d);
  for (size_t j = 0; j < d; ++j) {
    beyond[j] = upper[j] + 1.5;
    switch (static_cast<int>(rng.Uniform(0.0, 4.0))) {
      case 0:
        mixed[j] = lower[j] - rng.Uniform(0.0, 2.0);
        break;
      case 1:
        mixed[j] = upper[j] + rng.Uniform(0.0, 2.0);
        break;
      case 2:
        mixed[j] = lower[j];
        break;
      default:
        mixed[j] = rng.Uniform(lower[j], upper[j]);
        break;
    }
  }
  qs.push_back(beyond);
  qs.push_back(mixed);
  return qs;
}

TEST(SimdBoxBoundsTest, PairsMatchSinglesScalarMatchesLegacyAndBoundsHold) {
  const std::vector<Tier> tiers = SupportedTiers();
  util::Rng rng(909);
  for (const size_t d : {size_t{1}, size_t{2}, size_t{3}, size_t{7},
                         size_t{8}, size_t{9}, size_t{10}, size_t{16},
                         size_t{33}, size_t{50}, size_t{54}, size_t{100}}) {
    const KernelParams kernel = KernelsForDim(d)[0];
    ASSERT_EQ(kernel.type, KernelType::kGaussian);
    const double scale = core::DistanceArgScale(kernel);
    size_t degenerate_boxes = 0;
    for (const data::Matrix& pts : BoxTestPointSets(d, rng)) {
      const auto weights = WeightsForType(2, pts.rows(), rng);
      const auto tree = index::KdTree::Build(pts, weights, 2).ValueOrDie();
      const auto box = [&](index::NodeId id) {
        const size_t off = static_cast<size_t>(id) * d;
        return simd::KdBoxSummary{tree->region_data_a().data() + off,
                                  tree->region_data_b().data() + off,
                                  tree->weighted_point_sum(id).data(),
                                  tree->weight_sum(id),
                                  tree->weighted_sqnorm_sum(id)};
      };
      for (const auto& q : BoxTestQueries(*tree, pts, rng)) {
        const double qq = util::SquaredNorm(q);
        for (size_t id = 0; id < tree->num_nodes(); ++id) {
          const auto& nd = tree->node(id);
          if (nd.is_leaf()) continue;
          const simd::KdBoxSummary pair[2] = {box(nd.left), box(nd.right)};
          simd::NodeInterval scalar[2];
          simd::NodeGeometry geometry[2];
          double dot_mass[2] = {0.0, 0.0};
          {
            TierGuard guard;
            simd::ForceTier(Tier::kScalar);
            simd::KarlGaussianBoxBounds(q, qq, scale, pair, scalar);
            for (int i = 0; i < 2; ++i) {
              geometry[i] = simd::BoxGeometry({pair[i].lower, d},
                                              {pair[i].upper, d},
                                              {pair[i].a, d}, q);
              for (size_t j = 0; j < d; ++j) {
                dot_mass[i] += std::abs(q[j] * pair[i].a[j]);
              }
              const simd::NodeInterval legacy = LegacyGaussianNodeBounds(
                  kernel, geometry[i], pair[i].w, pair[i].b, qq, scale);
              EXPECT_EQ(Bits(scalar[i].lb), Bits(legacy.lb))
                  << "d=" << d << " node=" << id << " child " << i;
              EXPECT_EQ(Bits(scalar[i].ub), Bits(legacy.ub))
                  << "d=" << d << " node=" << id << " child " << i;
              if (scale * (geometry[i].max_sq - geometry[i].min_sq) <
                  simd::kDegenerateInterval) {
                ++degenerate_boxes;
              }
            }
          }
          for (const Tier tier : tiers) {
            TierGuard guard;
            simd::ForceTier(tier);
            simd::NodeInterval both[2], alone[2];
            simd::KarlGaussianBoxBounds(q, qq, scale, pair, both);
            simd::KarlGaussianBoxBounds(q, qq, scale, {&pair[0], 1},
                                        &alone[0]);
            simd::KarlGaussianBoxBounds(q, qq, scale, {&pair[1], 1},
                                        &alone[1]);
            for (int i = 0; i < 2; ++i) {
              const index::NodeId child = i == 0 ? nd.left : nd.right;
              const std::string where =
                  std::string(simd::TierName(tier)) + " d=" +
                  std::to_string(d) + " node=" + std::to_string(child);
              EXPECT_EQ(Bits(both[i].lb), Bits(alone[i].lb)) << where;
              EXPECT_EQ(Bits(both[i].ub), Bits(alone[i].ub)) << where;
              const double tol = BoxBoundTolerance(
                  geometry[i], dot_mass[i], pair[i].w, pair[i].b, qq, scale);
              EXPECT_LE(std::abs(both[i].lb - scalar[i].lb), tol) << where;
              EXPECT_LE(std::abs(both[i].ub - scalar[i].ub), tol) << where;
              const double exact =
                  core::ExactNodeAggregate(kernel, *tree, child, q);
              const double slack = 1e-7 * (1.0 + std::abs(exact));
              EXPECT_LE(both[i].lb, exact + slack) << where;
              EXPECT_GE(both[i].ub, exact - slack) << where;
              EXPECT_LE(both[i].lb, both[i].ub) << where;
            }
          }
        }
      }
    }
    // The lattice and tiny point sets must reach the degenerate branch.
    EXPECT_GT(degenerate_boxes, 0u) << "d=" << d;
  }
}

// ---------------------------------------------------------------------
// Bit pins: the exact bits each vector tier returns for a fixed input
// set, so a rewrite of a vector kernel that keeps its arithmetic order
// keeps every answer. Sigmoid and the scalar tier are left out: both
// call libm, whose bits follow the host's C library.
// ---------------------------------------------------------------------

// FNV-1a over the bytes of each value's bits.
class BitsDigest {
 public:
  void Add(double v) {
    const uint64_t bits = Bits(v);
    for (int byte = 0; byte < 8; ++byte) {
      hash_ = (hash_ ^ ((bits >> (8 * byte)) & 0xff)) * 0x100000001b3ULL;
    }
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

// LeafAggregate of the Gaussian, Laplacian, Cauchy and polynomial
// families with signed weights: every range of a 5-block set (each
// (begin mod 8, end mod 8) split) and a whole 203-row array.
uint64_t LeafDigest() {
  BitsDigest digest;
  for (const size_t d : {1, 2, 3, 4, 7, 8, 10, 16, 18, 33, 54, 100}) {
    util::Rng rng(4040 + static_cast<uint64_t>(d));
    for (const uint32_t rows : {40u, 203u}) {
      const data::Matrix pts = RandomMatrix(rows, d, rng);
      const auto weights = WeightsForType(3, rows, rng);
      const SoaLeafBlocks soa = BlocksInRowOrder(pts, weights);
      std::vector<double> q(d);
      for (auto& v : q) v = rng.Uniform(-1.0, 1.0);
      for (const KernelParams& kernel : KernelsForDim(d)) {
        if (kernel.type == KernelType::kSigmoid) continue;
        if (rows != 40) {
          digest.Add(simd::LeafAggregate(kernel, soa, 0, rows, q));
          continue;
        }
        for (uint32_t begin = 0; begin < rows; ++begin) {
          for (uint32_t end = begin + 1; end <= rows; ++end) {
            digest.Add(simd::LeafAggregate(kernel, soa, begin, end, q));
          }
        }
      }
    }
  }
  return digest.value();
}

// KarlGaussianBoxBounds of every sibling pair of a kd tree, as a pair
// and as two singles.
uint64_t BoxBoundsDigest() {
  BitsDigest digest;
  util::Rng rng(5050);
  for (const size_t d : {3, 10, 54}) {
    const double scale = core::DistanceArgScale(KernelsForDim(d)[0]);
    for (const data::Matrix& pts : BoxTestPointSets(d, rng)) {
      const auto weights = WeightsForType(2, pts.rows(), rng);
      const auto tree = index::KdTree::Build(pts, weights, 2).ValueOrDie();
      const auto box = [&](index::NodeId id) {
        const size_t off = static_cast<size_t>(id) * d;
        return simd::KdBoxSummary{tree->region_data_a().data() + off,
                                  tree->region_data_b().data() + off,
                                  tree->weighted_point_sum(id).data(),
                                  tree->weight_sum(id),
                                  tree->weighted_sqnorm_sum(id)};
      };
      for (const auto& q : BoxTestQueries(*tree, pts, rng)) {
        const double qq = util::SquaredNorm(q);
        for (size_t id = 0; id < tree->num_nodes(); ++id) {
          const auto& nd = tree->node(id);
          if (nd.is_leaf()) continue;
          const simd::KdBoxSummary pair[2] = {box(nd.left), box(nd.right)};
          simd::NodeInterval out[4];
          simd::KarlGaussianBoxBounds(q, qq, scale, pair, out);
          simd::KarlGaussianBoxBounds(q, qq, scale, {&pair[0], 1}, &out[2]);
          simd::KarlGaussianBoxBounds(q, qq, scale, {&pair[1], 1}, &out[3]);
          for (const simd::NodeInterval& interval : out) {
            digest.Add(interval.lb);
            digest.Add(interval.ub);
          }
        }
      }
    }
  }
  return digest.value();
}

// The digests were captured at 3987d23, the one-vector-per-step leaf
// loop with fixed-dim instantiations; a change that moves them changes
// answers and must say so.
TEST(SimdBitsTest, VectorTiersReturnPinnedBits) {
  struct Pin {
    Tier tier;
    uint64_t leaf;
    uint64_t box_bounds;
  };
  const Pin pins[] = {
      {Tier::kAvx2, 0x5dc4e5dd3e09af51ULL, 0x3dd83c8b65c6cbb1ULL},
      {Tier::kAvx512, 0xf5ffac02d5429982ULL, 0x880c2db36d48da95ULL},
  };
  for (const Pin& pin : pins) {
    if (!simd::TierSupported(pin.tier)) continue;
    TierGuard guard;
    simd::ForceTier(pin.tier);
    EXPECT_EQ(LeafDigest(), pin.leaf)
        << simd::TierName(pin.tier) << " leaf digest 0x" << std::hex
        << LeafDigest();
    EXPECT_EQ(BoxBoundsDigest(), pin.box_bounds)
        << simd::TierName(pin.tier) << " box-bound digest 0x" << std::hex
        << BoxBoundsDigest();
  }
}

// ---------------------------------------------------------------------
// Vector exp: ULP bound across the normal range, absolute bound in the
// clamped underflow region.
// ---------------------------------------------------------------------

TEST(SimdExpTest, WithinUlpBoundOfStdExpAcrossNormalRange) {
  util::Rng rng(4242);
  std::vector<double> args;
  // Dense random coverage of the full normal-result range plus the
  // evaluator's actual operating region (small negative arguments).
  for (int i = 0; i < 4000; ++i) args.push_back(rng.Uniform(-708.0, 709.0));
  for (int i = 0; i < 100000; ++i) args.push_back(rng.Uniform(-40.0, 0.0));
  // Dense sweeps of the whole reduced interval r ∈ [−ln2/2, ln2/2] around
  // several k, where the polynomial alone sets the error.
  const double half_ln2 = 0.5 * std::log(2.0);
  for (const int k : {-1000, -60, -20, -3, -1, 0, 1, 5, 700}) {
    const double center = k * std::log(2.0);
    for (int i = 0; i <= 4000; ++i) {
      args.push_back(center + half_ln2 * (i / 2000.0 - 1.0));
    }
  }
  // Edges: zero, ±tiny, the clamp boundaries, exact powers of two.
  for (const double v : {0.0, 1e-300, -1e-300, -708.0, 709.0, 1.0, -1.0,
                         64.0, -64.0, 0.5, -0.5}) {
    args.push_back(v);
  }

  std::vector<double> out(args.size());
  for (const Tier tier : SupportedTiers()) {
    TierGuard guard;
    simd::ForceTier(tier);
    simd::ExpBlock(args, out);
    for (size_t i = 0; i < args.size(); ++i) {
      const double expected = std::exp(args[i]);
      EXPECT_LE(UlpDiff(out[i], expected), simd::kVectorExpUlpBound)
          << simd::TierName(tier) << " exp(" << args[i] << ") = " << out[i]
          << " want " << expected;
    }
  }
}

TEST(SimdExpTest, ClampedUnderflowWithinAbsoluteBound) {
  const std::vector<double> args = {-708.5, -709.0, -745.0, -1000.0, -1e6};
  std::vector<double> out(args.size());
  for (const Tier tier : SupportedTiers()) {
    TierGuard guard;
    simd::ForceTier(tier);
    simd::ExpBlock(args, out);
    for (size_t i = 0; i < args.size(); ++i) {
      EXPECT_GE(out[i], 0.0) << simd::TierName(tier) << " " << args[i];
      EXPECT_LE(std::abs(out[i] - std::exp(args[i])),
                simd::kVectorExpUnderflowAbs)
          << simd::TierName(tier) << " exp(" << args[i] << ") = " << out[i];
    }
  }
}

// ---------------------------------------------------------------------
// Dispatch: tier resolution, forcing, loud failures, the gauge.
// ---------------------------------------------------------------------

TEST(SimdDispatchTest, ActiveTierIsAlwaysSupported) {
  EXPECT_TRUE(simd::TierSupported(simd::ActiveTier()));
  EXPECT_TRUE(simd::TierCompiled(Tier::kScalar));
  EXPECT_TRUE(simd::TierSupported(Tier::kScalar));
}

TEST(SimdDispatchTest, TierNamesRoundTripThroughParse) {
  for (const Tier tier : {Tier::kScalar, Tier::kAvx2, Tier::kAvx512}) {
    EXPECT_EQ(simd::ParseTier(simd::TierName(tier)), tier);
  }
}

TEST(SimdDispatchTest, ResolveNullOrEmptyAutoDetects) {
  EXPECT_EQ(simd::ResolveTier(nullptr), simd::DetectBestTier());
  EXPECT_EQ(simd::ResolveTier(""), simd::DetectBestTier());
  // KARL_SIMD=scalar must force the fallback even on vector hardware.
  EXPECT_EQ(simd::ResolveTier("scalar"), Tier::kScalar);
}

TEST(SimdDispatchTest, BestTierBeatsOrEqualsEveryOther) {
  const Tier best = simd::DetectBestTier();
  for (const Tier tier : SupportedTiers()) {
    EXPECT_GE(static_cast<int>(best), static_cast<int>(tier));
  }
}

TEST(SimdDispatchDeathTest, InvalidTierNameDiesLoudly) {
  EXPECT_DEATH((void)simd::ParseTier("turbo"), "invalid KARL_SIMD value");
  EXPECT_DEATH((void)simd::ResolveTier("AVX2"), "invalid KARL_SIMD value");
}

TEST(SimdDispatchDeathTest, UnsupportedTierRequestDiesLoudly) {
  for (const Tier tier : {Tier::kAvx2, Tier::kAvx512}) {
    if (simd::TierSupported(tier)) continue;
    const std::string name(simd::TierName(tier));
    EXPECT_DEATH((void)simd::ResolveTier(name.c_str()), "cannot run");
    EXPECT_DEATH(simd::ForceTier(tier), "cannot force unsupported tier");
  }
}

TEST(SimdDispatchTest, EngineBuildExportsTierGauge) {
  util::Rng rng(5);
  const data::Matrix pts = data::SampleClustered(100, 3, 2, 0.1, rng);
  const std::vector<double> weights(100, 1.0);
  telemetry::Registry registry;
  EngineOptions options;
  options.kernel = KernelParams::Gaussian(4.0);
  options.metrics = &registry;
  auto engine = Engine::Build(pts, weights, options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  EXPECT_EQ(registry.GetGauge("karl_simd_tier")->value(),
            static_cast<double>(simd::ActiveTier()));
}

// ---------------------------------------------------------------------
// Engine-level cross-tier agreement: full queries (traversal + bounds +
// leaf sums) under each vector tier agree with the scalar run within
// the aggregate tolerance, and the auditor stays silent throughout.
// ---------------------------------------------------------------------

TEST(SimdEngineTest, ExactQueriesAgreeAcrossTiersWithinTolerance) {
  util::Rng rng(31337);
  const size_t d = 6;
  const data::Matrix pts = data::SampleClustered(400, d, 3, 0.08, rng);
  std::vector<double> weights(pts.rows());
  for (auto& w : weights) w = rng.Uniform(0.05, 1.5);

  for (const KernelParams& kernel :
       {KernelParams::Gaussian(4.0), KernelParams::Laplacian(2.0),
        KernelParams::Polynomial(0.2, 0.1, 3)}) {
    EngineOptions options;
    options.kernel = kernel;
    options.audit_bounds = true;  // lb <= exact <= ub under every tier.
    auto engine = Engine::Build(pts, weights, options);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();

    for (int trial = 0; trial < 8; ++trial) {
      std::vector<double> q(d);
      for (auto& v : q) v = rng.Uniform(-0.1, 1.1);

      TierGuard guard;
      simd::ForceTier(Tier::kScalar);
      const double scalar_exact = engine.value().Exact(q);
      const double ekaq_scalar = engine.value().Ekaq(q, 0.1);

      for (const Tier tier : SupportedTiers()) {
        simd::ForceTier(tier);
        // Positive weights: |exact| is itself the absolute mass. The 4x
        // slack covers the extra reduction steps of the query traversal
        // splitting one sum across many leaf ranges.
        const double tol =
            4.0 * simd::kLeafSumRelTolerance * (1.0 + std::abs(scalar_exact));
        EXPECT_NEAR(engine.value().Exact(q), scalar_exact, tol)
            << simd::TierName(tier) << " "
            << core::KernelTypeToString(kernel.type) << " trial " << trial;
        EXPECT_LE(std::abs(engine.value().Ekaq(q, 0.1) - scalar_exact),
                  0.1 * std::abs(scalar_exact) + 1e-9)
            << simd::TierName(tier) << " trial " << trial;
        (void)ekaq_scalar;
        const double tau = scalar_exact * 1.3 + 0.1;
        EXPECT_EQ(engine.value().Tkaq(q, tau), scalar_exact > tau)
            << simd::TierName(tier) << " trial " << trial;
      }
    }
  }
}

// ---------------------------------------------------------------------
// SoA layout unit coverage (the randomized round-trip fuzz lives in
// property_test.cc P7).
// ---------------------------------------------------------------------

TEST(SoaBlockTest, LayoutRoundTripsAndPadsWithZeros) {
  util::Rng rng(9);
  const size_t n = 13, d = 5;  // 2 blocks, 3 pad lanes.
  const data::Matrix pts = RandomMatrix(n, d, rng);
  std::vector<double> weights(n);
  for (auto& w : weights) w = rng.Uniform(-1.0, 1.0);

  // Row i of the blocks is row perm[i] of the input, with its weight.
  std::vector<size_t> perm(n);
  for (size_t i = 0; i < n; ++i) perm[i] = (5 * i + 3) % n;
  SoaLeafBlocks soa;
  soa.Build(pts, perm, weights);
  ASSERT_EQ(soa.rows(), n);
  ASSERT_EQ(soa.dims(), d);
  ASSERT_EQ(soa.num_blocks(), 2u);
  EXPECT_GT(soa.MemoryUsageBytes(), 0u);

  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(soa.WeightAt(i), weights[perm[i]]) << i;
    for (size_t j = 0; j < d; ++j) {
      EXPECT_EQ(soa.At(i, j), pts.Row(perm[i])[j]) << i << "," << j;
      EXPECT_EQ(soa.RowLanes(i)[j * SoaLeafBlocks::kBlockPoints],
                soa.At(i, j)) << i << "," << j;
    }
  }
  // Pad lanes: weight 0 and coordinate 0, so a vector kernel evaluated
  // over them contributes exactly 0.
  for (size_t lane = n % SoaLeafBlocks::kBlockPoints;
       lane < SoaLeafBlocks::kBlockPoints; ++lane) {
    EXPECT_EQ(soa.BlockWeights(1)[lane], 0.0) << lane;
    for (size_t j = 0; j < d; ++j) {
      EXPECT_EQ(soa.BlockDim(1, j)[lane], 0.0) << lane << "," << j;
    }
  }
}

TEST(SoaBlockTest, EmptyInputStaysEmpty) {
  SoaLeafBlocks soa;
  EXPECT_TRUE(soa.empty());
  soa.Build(data::Matrix(), {}, {});
  EXPECT_TRUE(soa.empty());
  EXPECT_EQ(soa.num_blocks(), 0u);
}

}  // namespace
}  // namespace karl
