// Tests for the bound constructions (§III, §IV-B): validity (bounds really
// sandwich the kernel profile / the aggregate), tightness vs SOTA
// (Lemmas 3–4), and the optimal-tangent theorem (Theorems 1–2).

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "core/bounds.h"
#include "core/evaluator.h"
#include "data/synthetic.h"
#include "index/kd_tree.h"
#include "util/math_util.h"
#include "util/rng.h"

namespace karl::core {
namespace {

// ------------------------- Linear constructions -------------------------

TEST(ExpChordTest, TouchesEndpointsAndDominatesBetween) {
  const double lo = 0.3, hi = 2.1;
  const LinearFn chord = ExpChord(lo, hi);
  EXPECT_NEAR(chord.At(lo), std::exp(-lo), 1e-12);
  EXPECT_NEAR(chord.At(hi), std::exp(-hi), 1e-12);
  for (int i = 0; i <= 100; ++i) {
    const double x = lo + (hi - lo) * i / 100.0;
    EXPECT_GE(chord.At(x), std::exp(-x) - 1e-12);
  }
}

TEST(ExpChordTest, TighterThanConstantSotaBound) {
  // Lemma 3: chord values on (lo, hi] are strictly below exp(−lo).
  const double lo = 0.5, hi = 3.0;
  const LinearFn chord = ExpChord(lo, hi);
  for (int i = 1; i <= 10; ++i) {
    const double x = lo + (hi - lo) * i / 10.0;
    EXPECT_LT(chord.At(x), std::exp(-lo));
  }
}

TEST(ExpTangentTest, TouchesCurveAndStaysBelow) {
  for (const double t : {0.0, 0.5, 1.7, 4.0}) {
    const LinearFn tan = ExpTangent(t);
    EXPECT_NEAR(tan.At(t), std::exp(-t), 1e-12);
    for (int i = 0; i <= 100; ++i) {
      const double x = 5.0 * i / 100.0;
      EXPECT_LE(tan.At(x), std::exp(-x) + 1e-12);
    }
  }
}

TEST(ExpTangentTest, TighterThanConstantSotaBoundOnInterval) {
  // Lemma 4: the tangent at hi dominates exp(−hi) on [lo, hi).
  const double lo = 0.2, hi = 2.0;
  const LinearFn tan = ExpTangent(hi);
  for (int i = 0; i < 10; ++i) {
    const double x = lo + (hi - lo) * i / 10.0;
    EXPECT_GT(tan.At(x), std::exp(-hi));
  }
}

TEST(ProfileChordTest, MatchesEndpoints) {
  const auto k = KernelParams::Polynomial(1.0, 0.0, 3);
  const LinearFn chord = ProfileChord(k, -1.0, 2.0);
  EXPECT_NEAR(chord.At(-1.0), -1.0, 1e-12);
  EXPECT_NEAR(chord.At(2.0), 8.0, 1e-12);
}

TEST(ProfileTangentTest, MatchesValueAndSlope) {
  const auto k = KernelParams::Sigmoid(1.0, 0.0);
  const LinearFn tan = ProfileTangent(k, 0.7);
  EXPECT_NEAR(tan.At(0.7), std::tanh(0.7), 1e-12);
  EXPECT_NEAR(tan.m, 1.0 - std::tanh(0.7) * std::tanh(0.7), 1e-12);
}

// ----------------------------- Curvature map ----------------------------

TEST(CurvatureTest, GaussianAlwaysConvex) {
  const auto k = KernelParams::Gaussian(1.0);
  EXPECT_EQ(ClassifyProfile(k, -5.0, 5.0), Curvature::kConvex);
}

TEST(CurvatureTest, PolynomialByDegreeAndInterval) {
  EXPECT_EQ(ClassifyProfile(KernelParams::Polynomial(1, 0, 1), -1, 1),
            Curvature::kLinear);
  EXPECT_EQ(ClassifyProfile(KernelParams::Polynomial(1, 0, 2), -1, 1),
            Curvature::kConvex);
  EXPECT_EQ(ClassifyProfile(KernelParams::Polynomial(1, 0, 3), 0.1, 1),
            Curvature::kConvex);
  EXPECT_EQ(ClassifyProfile(KernelParams::Polynomial(1, 0, 3), -1, -0.1),
            Curvature::kConcave);
  EXPECT_EQ(ClassifyProfile(KernelParams::Polynomial(1, 0, 3), -1, 1),
            Curvature::kMixedConcaveConvex);
}

TEST(CurvatureTest, SigmoidByInterval) {
  const auto k = KernelParams::Sigmoid(1.0, 0.0);
  EXPECT_EQ(ClassifyProfile(k, -2, -0.5), Curvature::kConvex);
  EXPECT_EQ(ClassifyProfile(k, 0.5, 2), Curvature::kConcave);
  EXPECT_EQ(ClassifyProfile(k, -2, 2), Curvature::kMixedConvexConcave);
}

// ----------------------- PivotLine (Fig. 8) validity ----------------------

struct PivotCase {
  KernelParams kernel;
  double lo, hi;
  const char* name;
};

class PivotLineTest : public ::testing::TestWithParam<PivotCase> {};

TEST_P(PivotLineTest, UpperLineDominatesProfile) {
  const auto& pc = GetParam();
  const bool pivot_right =
      ClassifyProfile(pc.kernel, pc.lo, pc.hi) ==
      Curvature::kMixedConcaveConvex;
  const LinearFn line =
      PivotLine(pc.kernel, pc.lo, pc.hi, pivot_right, /*upper=*/true);
  for (int i = 0; i <= 400; ++i) {
    const double x = pc.lo + (pc.hi - pc.lo) * i / 400.0;
    EXPECT_GE(line.At(x), KernelProfile(pc.kernel, x) - 1e-9)
        << pc.name << " at x=" << x;
  }
}

TEST_P(PivotLineTest, LowerLineStaysBelowProfile) {
  const auto& pc = GetParam();
  const bool pivot_right =
      ClassifyProfile(pc.kernel, pc.lo, pc.hi) ==
      Curvature::kMixedConvexConcave;
  const LinearFn line =
      PivotLine(pc.kernel, pc.lo, pc.hi, pivot_right, /*upper=*/false);
  for (int i = 0; i <= 400; ++i) {
    const double x = pc.lo + (pc.hi - pc.lo) * i / 400.0;
    EXPECT_LE(line.At(x), KernelProfile(pc.kernel, x) + 1e-9)
        << pc.name << " at x=" << x;
  }
}

TEST_P(PivotLineTest, UpperLineTouchesThePivotEndpoint) {
  // The rotate construction anchors at the pivot endpoint and must be
  // exact there (otherwise it could not be the tightest rotation).
  const auto& pc = GetParam();
  const bool pivot_right =
      ClassifyProfile(pc.kernel, pc.lo, pc.hi) ==
      Curvature::kMixedConcaveConvex;
  const LinearFn line =
      PivotLine(pc.kernel, pc.lo, pc.hi, pivot_right, /*upper=*/true);
  const double px = pivot_right ? pc.hi : pc.lo;
  EXPECT_NEAR(line.At(px), KernelProfile(pc.kernel, px), 1e-10) << pc.name;
}

INSTANTIATE_TEST_SUITE_P(
    MixedIntervals, PivotLineTest,
    ::testing::Values(
        PivotCase{KernelParams::Polynomial(1, 0, 3), -1.0, 1.0, "cubic_sym"},
        PivotCase{KernelParams::Polynomial(1, 0, 3), -0.3, 2.0,
                  "cubic_right_heavy"},
        PivotCase{KernelParams::Polynomial(1, 0, 3), -2.0, 0.4,
                  "cubic_left_heavy"},
        PivotCase{KernelParams::Polynomial(1, 0, 5), -1.2, 0.9, "quintic"},
        PivotCase{KernelParams::Sigmoid(1, 0), -2.0, 2.0, "tanh_sym"},
        PivotCase{KernelParams::Sigmoid(1, 0), -0.5, 3.0, "tanh_right"},
        PivotCase{KernelParams::Sigmoid(1, 0), -3.0, 0.5, "tanh_left"}),
    [](const ::testing::TestParamInfo<PivotCase>& info) {
      return info.param.name;
    });

// ------------------- Node bounds: validity vs brute force -----------------

struct NodeBoundsCase {
  KernelParams kernel;
  BoundKind bound_kind;
  const char* name;
};

class NodeBoundsTest : public ::testing::TestWithParam<NodeBoundsCase> {};

TEST_P(NodeBoundsTest, EveryNodeBoundSandwichesBruteForce) {
  const auto& tc = GetParam();
  util::Rng rng(101);
  const data::Matrix pts = data::SampleClustered(400, 6, 3, 0.08, rng);
  std::vector<double> weights(pts.rows());
  for (auto& w : weights) w = rng.Uniform(0.05, 1.5);
  auto tree = index::KdTree::Build(pts, weights, 16).ValueOrDie();

  auto bounds = MakeBoundFunction(tc.kernel, tc.bound_kind).ValueOrDie();

  for (int trial = 0; trial < 8; ++trial) {
    std::vector<double> q(6);
    for (auto& v : q) v = rng.Uniform(-0.3, 1.3);
    const QueryContext ctx = QueryContext::Make(q);
    for (size_t id = 0; id < tree->num_nodes(); ++id) {
      const auto& nd = tree->node(id);
      double exact = 0.0;
      for (uint32_t i = nd.begin; i < nd.end; ++i) {
        std::vector<double> row(q.size());
        for (size_t j = 0; j < row.size(); ++j) {
          row[j] = tree->points().At(i, j);
        }
        exact += tree->points().WeightAt(i) * KernelValue(tc.kernel, q, row);
      }
      double lb = 0.0, ub = 0.0;
      bounds->NodeBounds(*tree, static_cast<index::NodeId>(id), ctx, &lb, &ub);
      const double slack = 1e-7 * (1.0 + std::abs(exact));
      EXPECT_LE(lb, exact + slack) << tc.name << " node " << id;
      EXPECT_GE(ub, exact - slack) << tc.name << " node " << id;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllKernelsAndBounds, NodeBoundsTest,
    ::testing::Values(
        NodeBoundsCase{KernelParams::Gaussian(4.0), BoundKind::kSota,
                       "sota_gaussian"},
        NodeBoundsCase{KernelParams::Gaussian(4.0), BoundKind::kKarl,
                       "karl_gaussian"},
        NodeBoundsCase{KernelParams::Polynomial(0.5, 0.1, 3),
                       BoundKind::kSota, "sota_poly3"},
        NodeBoundsCase{KernelParams::Polynomial(0.5, 0.1, 3),
                       BoundKind::kKarl, "karl_poly3"},
        NodeBoundsCase{KernelParams::Polynomial(0.5, -0.2, 2),
                       BoundKind::kSota, "sota_poly2"},
        NodeBoundsCase{KernelParams::Polynomial(0.5, -0.2, 2),
                       BoundKind::kKarl, "karl_poly2"},
        NodeBoundsCase{KernelParams::Polynomial(0.4, 0.0, 1),
                       BoundKind::kKarl, "karl_poly1"},
        NodeBoundsCase{KernelParams::Sigmoid(0.8, -0.1), BoundKind::kSota,
                       "sota_sigmoid"},
        NodeBoundsCase{KernelParams::Sigmoid(0.8, -0.1), BoundKind::kKarl,
                       "karl_sigmoid"},
        NodeBoundsCase{KernelParams::Laplacian(2.0), BoundKind::kSota,
                       "sota_laplacian"},
        NodeBoundsCase{KernelParams::Laplacian(2.0), BoundKind::kKarl,
                       "karl_laplacian"},
        NodeBoundsCase{KernelParams::Cauchy(3.0), BoundKind::kSota,
                       "sota_cauchy"},
        NodeBoundsCase{KernelParams::Cauchy(3.0), BoundKind::kKarl,
                       "karl_cauchy"}),
    [](const ::testing::TestParamInfo<NodeBoundsCase>& info) {
      return info.param.name;
    });

// --------------------- KARL tighter than SOTA (Lemmas 3–4) ----------------

TEST(TightnessTest, KarlDistanceKernelsNeverLooserThanSota) {
  util::Rng rng(55);
  const data::Matrix pts = data::SampleClustered(500, 5, 4, 0.06, rng);
  std::vector<double> weights(pts.rows(), 0.7);
  auto tree = index::KdTree::Build(pts, weights, 32).ValueOrDie();

  for (const auto kernel :
       {KernelParams::Gaussian(6.0), KernelParams::Laplacian(2.5),
        KernelParams::Cauchy(4.0)}) {
    auto sota = MakeBoundFunction(kernel, BoundKind::kSota).ValueOrDie();
    auto karl = MakeBoundFunction(kernel, BoundKind::kKarl).ValueOrDie();

    for (int trial = 0; trial < 10; ++trial) {
      std::vector<double> q(5);
      for (auto& v : q) v = rng.Uniform(0.0, 1.0);
      const QueryContext ctx = QueryContext::Make(q);
      for (size_t id = 0; id < tree->num_nodes(); ++id) {
        double slb = 0.0, sub = 0.0, klb = 0.0, kub = 0.0;
        sota->NodeBounds(*tree, static_cast<index::NodeId>(id), ctx, &slb,
                         &sub);
        karl->NodeBounds(*tree, static_cast<index::NodeId>(id), ctx, &klb,
                         &kub);
        EXPECT_GE(klb, slb - 1e-9)
            << KernelTypeToString(kernel.type) << " node " << id;
        EXPECT_LE(kub, sub + 1e-9)
            << KernelTypeToString(kernel.type) << " node " << id;
      }
    }
  }
}

TEST(TightnessTest, KarlStrictlyTighterOnWideNodes) {
  // On the root of a spread-out dataset the linear bounds must win by a
  // clear margin, not just match.
  util::Rng rng(56);
  const data::Matrix pts = data::SampleUniform(1000, 3, 0.0, 1.0, rng);
  std::vector<double> weights(pts.rows(), 1.0);
  auto tree = index::KdTree::Build(pts, weights, 64).ValueOrDie();
  const auto kernel = KernelParams::Gaussian(8.0);
  auto sota = MakeBoundFunction(kernel, BoundKind::kSota).ValueOrDie();
  auto karl = MakeBoundFunction(kernel, BoundKind::kKarl).ValueOrDie();

  const std::vector<double> q{0.5, 0.5, 0.5};
  const QueryContext ctx = QueryContext::Make(q);
  double slb = 0.0, sub = 0.0, klb = 0.0, kub = 0.0;
  sota->NodeBounds(*tree, tree->root(), ctx, &slb, &sub);
  karl->NodeBounds(*tree, tree->root(), ctx, &klb, &kub);
  EXPECT_LT(kub - klb, 0.7 * (sub - slb));
}

TEST(TightnessTest, KarlInnerProductNeverLooserThanSota) {
  // KARL's inner-product bounds clamp against the constant bounds, so
  // they dominate SOTA for the polynomial and sigmoid kernels too.
  util::Rng rng(57);
  const data::Matrix pts = data::SampleClustered(400, 4, 3, 0.07, rng);
  std::vector<double> weights(pts.rows());
  for (auto& w : weights) w = rng.Uniform(0.1, 1.0);
  auto tree = index::KdTree::Build(pts, weights, 16).ValueOrDie();

  for (const auto kernel :
       {KernelParams::Polynomial(0.5, 0.1, 3), KernelParams::Polynomial(0.5, 0.1, 2),
        KernelParams::Sigmoid(1.0, -0.2)}) {
    auto sota = MakeBoundFunction(kernel, BoundKind::kSota).ValueOrDie();
    auto karl = MakeBoundFunction(kernel, BoundKind::kKarl).ValueOrDie();
    for (int trial = 0; trial < 5; ++trial) {
      std::vector<double> q(4);
      for (auto& v : q) v = rng.Uniform(-1.0, 1.0);
      const QueryContext ctx = QueryContext::Make(q);
      for (size_t id = 0; id < tree->num_nodes(); ++id) {
        double slb = 0.0, sub = 0.0, klb = 0.0, kub = 0.0;
        sota->NodeBounds(*tree, static_cast<index::NodeId>(id), ctx, &slb,
                         &sub);
        karl->NodeBounds(*tree, static_cast<index::NodeId>(id), ctx, &klb,
                         &kub);
        EXPECT_GE(klb, slb - 1e-9)
            << KernelTypeToString(kernel.type) << " node " << id;
        EXPECT_LE(kub, sub + 1e-9)
            << KernelTypeToString(kernel.type) << " node " << id;
      }
    }
  }
}

// ----------------------- Optimal tangent (Theorem 1) ----------------------

TEST(OptimalTangentTest, WeightedMeanBeatsOtherTangentPoints) {
  // H(t) = Σ w_i·(tangent_t at x_i) is maximised at t = weighted mean.
  util::Rng rng(77);
  std::vector<double> xs(50), ws(50);
  double sum_wx = 0.0, sum_w = 0.0;
  for (size_t i = 0; i < xs.size(); ++i) {
    xs[i] = rng.Uniform(0.1, 3.0);
    ws[i] = rng.Uniform(0.2, 2.0);
    sum_wx += ws[i] * xs[i];
    sum_w += ws[i];
  }
  const double t_opt = sum_wx / sum_w;

  const auto aggregate = [&](double t) {
    const LinearFn tan = ExpTangent(t);
    double s = 0.0;
    for (size_t i = 0; i < xs.size(); ++i) s += ws[i] * tan.At(xs[i]);
    return s;
  };

  const double best = aggregate(t_opt);
  for (const double dt : {-1.0, -0.3, -0.05, 0.05, 0.3, 1.0}) {
    EXPECT_GE(best, aggregate(t_opt + dt) - 1e-12) << "dt=" << dt;
  }
}

// ----------------------------- Degenerate nodes ---------------------------

TEST(DegenerateTest, SinglePointNodeBoundsAreExact) {
  data::Matrix pts(1, 2, {0.25, 0.75});
  std::vector<double> weights{2.0};
  auto tree = index::KdTree::Build(pts, weights, 4).ValueOrDie();
  const std::vector<double> q{0.5, 0.5};
  const QueryContext ctx = QueryContext::Make(q);

  for (const auto kind : {BoundKind::kSota, BoundKind::kKarl}) {
    for (const auto kernel :
         {KernelParams::Gaussian(2.0), KernelParams::Polynomial(1.0, 0.5, 3),
          KernelParams::Sigmoid(1.0, 0.0)}) {
      auto bounds = MakeBoundFunction(kernel, kind).ValueOrDie();
      double lb = 0.0, ub = 0.0;
      bounds->NodeBounds(*tree, tree->root(), ctx, &lb, &ub);
      const double exact = 2.0 * KernelValue(kernel, q, pts.Row(0));
      EXPECT_NEAR(lb, exact, 1e-9);
      EXPECT_NEAR(ub, exact, 1e-9);
    }
  }
}

TEST(MakeBoundFunctionTest, RejectsInvalidKernel) {
  auto bad = KernelParams::Gaussian(-1.0);
  EXPECT_FALSE(MakeBoundFunction(bad, BoundKind::kKarl).ok());
}

TEST(BoundKindTest, Names) {
  EXPECT_EQ(BoundKindToString(BoundKind::kSota), "SOTA");
  EXPECT_EQ(BoundKindToString(BoundKind::kKarl), "KARL");
}

}  // namespace
}  // namespace karl::core
