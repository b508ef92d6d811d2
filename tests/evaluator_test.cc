// Tests for the best-first refinement evaluator: TKAQ / eKAQ correctness
// against brute force, level caps, Type-III two-tree interleaving, the
// convergence trace, and the observation channels (EXPLAIN profile,
// TraceFn, tracer, metrics, bound audit) alone and together.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/evaluator.h"
#include "core/simd/simd.h"
#include "core/traversal_profile.h"
#include "data/synthetic.h"
#include "index/ball_tree.h"
#include "index/kd_tree.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"
#include "util/rng.h"

namespace karl::core {
namespace {

struct Workbench {
  data::Matrix points;
  std::vector<double> weights;
  std::unique_ptr<index::TreeIndex> tree;
};

Workbench MakeBench(size_t n, size_t d, uint64_t seed, bool uniform_weights,
                    size_t leaf_capacity = 16) {
  util::Rng rng(seed);
  Workbench wb;
  wb.points = data::SampleClustered(n, d, 3, 0.07, rng);
  wb.weights.resize(n);
  for (auto& w : wb.weights) w = uniform_weights ? 1.0 : rng.Uniform(0.1, 2.0);
  wb.tree = index::KdTree::Build(wb.points, wb.weights, leaf_capacity)
                .ValueOrDie();
  return wb;
}

TEST(EvaluatorTest, CreateRequiresPlusTree) {
  Evaluator::Options options;
  EXPECT_FALSE(
      Evaluator::Create(nullptr, nullptr, KernelParams::Gaussian(1.0), options)
          .ok());
}

TEST(EvaluatorTest, CreateRejectsInvalidKernel) {
  const auto wb = MakeBench(50, 3, 1, true);
  Evaluator::Options options;
  EXPECT_FALSE(Evaluator::Create(wb.tree.get(), nullptr,
                                 KernelParams::Gaussian(-2.0), options)
                   .ok());
}

TEST(EvaluatorTest, ExactMatchesBruteForce) {
  const auto wb = MakeBench(300, 4, 2, false);
  const auto kernel = KernelParams::Gaussian(3.0);
  Evaluator::Options options;
  auto ev =
      Evaluator::Create(wb.tree.get(), nullptr, kernel, options).ValueOrDie();

  util::Rng rng(3);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<double> q(4);
    for (auto& v : q) v = rng.Uniform(0.0, 1.0);
    const double brute = ExactAggregate(wb.points, wb.weights, kernel, q);
    EXPECT_NEAR(ev.QueryExact(q), brute, 1e-9 * (1.0 + std::abs(brute)));
  }
}

class ThresholdCorrectnessTest
    : public ::testing::TestWithParam<std::tuple<BoundKind, bool>> {};

TEST_P(ThresholdCorrectnessTest, AgreesWithBruteForceAcrossThresholds) {
  const auto [bound_kind, uniform] = GetParam();
  const auto wb = MakeBench(400, 5, 4, uniform);
  const auto kernel = KernelParams::Gaussian(5.0);
  Evaluator::Options options;
  options.bounds = bound_kind;
  auto ev =
      Evaluator::Create(wb.tree.get(), nullptr, kernel, options).ValueOrDie();

  util::Rng rng(5);
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<double> q(5);
    for (auto& v : q) v = rng.Uniform(-0.2, 1.2);
    const double exact = ExactAggregate(wb.points, wb.weights, kernel, q);
    // Mix relative thresholds around the exact value with fixed ones.
    for (const double tau :
         {exact * 0.5, exact * 0.99, exact * 1.01, exact * 2.0, 1e-6, 50.0}) {
      EXPECT_EQ(ev.QueryThreshold(q, tau), exact > tau)
          << "tau=" << tau << " exact=" << exact;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    BothBoundsBothWeightings, ThresholdCorrectnessTest,
    ::testing::Combine(::testing::Values(BoundKind::kSota, BoundKind::kKarl),
                       ::testing::Bool()),
    [](const auto& info) {
      return std::string(BoundKindToString(std::get<0>(info.param))) +
             (std::get<1>(info.param) ? "Uniform" : "Weighted");
    });

class ApproximateCorrectnessTest
    : public ::testing::TestWithParam<std::tuple<BoundKind, double>> {};

TEST_P(ApproximateCorrectnessTest, RelativeErrorWithinEps) {
  const auto [bound_kind, eps] = GetParam();
  const auto wb = MakeBench(400, 4, 6, true);
  const auto kernel = KernelParams::Gaussian(4.0);
  Evaluator::Options options;
  options.bounds = bound_kind;
  auto ev =
      Evaluator::Create(wb.tree.get(), nullptr, kernel, options).ValueOrDie();

  util::Rng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<double> q(4);
    for (auto& v : q) v = rng.Uniform(0.0, 1.0);
    const double exact = ExactAggregate(wb.points, wb.weights, kernel, q);
    const double approx = ev.QueryApproximate(q, eps);
    EXPECT_GE(approx, (1.0 - eps) * exact - 1e-12);
    EXPECT_LE(approx, (1.0 + eps) * exact + 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(
    BoundsTimesEps, ApproximateCorrectnessTest,
    ::testing::Combine(::testing::Values(BoundKind::kSota, BoundKind::kKarl),
                       ::testing::Values(0.05, 0.2, 0.5)),
    [](const auto& info) {
      const int pct = static_cast<int>(std::get<1>(info.param) * 100);
      return std::string(BoundKindToString(std::get<0>(info.param))) + "Eps" +
             std::to_string(pct);
    });

TEST(EvaluatorTest, TypeThreeSignedAggregateCorrect) {
  // Split signed weights across two trees, query through one evaluator.
  util::Rng rng(8);
  const size_t n = 300, d = 4;
  const data::Matrix pts = data::SampleClustered(n, d, 3, 0.1, rng);
  std::vector<double> signed_w(n);
  for (auto& w : signed_w) w = rng.Uniform(-1.0, 1.0);

  std::vector<size_t> pos, neg;
  for (size_t i = 0; i < n; ++i) (signed_w[i] >= 0 ? pos : neg).push_back(i);
  const data::Matrix pp = pts.SelectRows(pos);
  const data::Matrix np = pts.SelectRows(neg);
  std::vector<double> pw, nw;
  for (const size_t i : pos) pw.push_back(signed_w[i]);
  for (const size_t i : neg) nw.push_back(-signed_w[i]);

  auto ptree = index::KdTree::Build(pp, pw, 8).ValueOrDie();
  auto ntree = index::KdTree::Build(np, nw, 8).ValueOrDie();

  const auto kernel = KernelParams::Gaussian(4.0);
  Evaluator::Options options;
  options.bounds = BoundKind::kKarl;
  auto ev = Evaluator::Create(ptree.get(), ntree.get(), kernel, options)
                .ValueOrDie();

  for (int trial = 0; trial < 15; ++trial) {
    std::vector<double> q(d);
    for (auto& v : q) v = rng.Uniform(0.0, 1.0);
    const double exact = ExactAggregate(pts, signed_w, kernel, q);
    EXPECT_NEAR(ev.QueryExact(q), exact, 1e-9);
    for (const double tau : {exact - 0.05, exact + 0.05, 0.0}) {
      EXPECT_EQ(ev.QueryThreshold(q, tau), exact > tau) << "tau=" << tau;
    }
  }
}

TEST(EvaluatorTest, DistanceKernelFamilyThresholdAndApproxCorrect) {
  // Laplacian and Cauchy ride the same convex-profile machinery as the
  // Gaussian; verify both bound kinds end to end.
  const auto wb = MakeBench(300, 4, 21, false);
  for (const auto kernel :
       {KernelParams::Laplacian(3.0), KernelParams::Cauchy(5.0)}) {
    for (const auto bound_kind : {BoundKind::kSota, BoundKind::kKarl}) {
      Evaluator::Options options;
      options.bounds = bound_kind;
      auto ev = Evaluator::Create(wb.tree.get(), nullptr, kernel, options)
                    .ValueOrDie();
      util::Rng rng(22);
      for (int trial = 0; trial < 10; ++trial) {
        std::vector<double> q(4);
        for (auto& v : q) v = rng.Uniform(-0.2, 1.2);
        const double exact = ExactAggregate(wb.points, wb.weights, kernel, q);
        EXPECT_EQ(ev.QueryThreshold(q, exact * 0.95), true)
            << KernelTypeToString(kernel.type);
        EXPECT_EQ(ev.QueryThreshold(q, exact * 1.05), false)
            << KernelTypeToString(kernel.type);
        const double approx = ev.QueryApproximate(q, 0.15);
        EXPECT_NEAR(approx, exact, 0.15 * exact + 1e-12);
      }
    }
  }
}

TEST(EvaluatorTest, InnerProductKernelThresholdCorrect) {
  const auto wb = MakeBench(250, 4, 9, false);
  for (const auto kernel :
       {KernelParams::Polynomial(0.5, 0.2, 3), KernelParams::Polynomial(0.5, 0.2, 2),
        KernelParams::Sigmoid(1.0, -0.3)}) {
    for (const auto bound_kind : {BoundKind::kSota, BoundKind::kKarl}) {
      Evaluator::Options options;
      options.bounds = bound_kind;
      auto ev = Evaluator::Create(wb.tree.get(), nullptr, kernel, options)
                    .ValueOrDie();
      util::Rng rng(10);
      for (int trial = 0; trial < 10; ++trial) {
        std::vector<double> q(4);
        for (auto& v : q) v = rng.Uniform(-1.0, 1.0);
        const double exact = ExactAggregate(wb.points, wb.weights, kernel, q);
        for (const double tau : {exact - 0.1, exact + 0.1}) {
          EXPECT_EQ(ev.QueryThreshold(q, tau), exact > tau)
              << KernelTypeToString(kernel.type) << " "
              << BoundKindToString(bound_kind);
        }
      }
    }
  }
}

TEST(EvaluatorTest, LevelCapZeroEqualsFullScan) {
  const auto wb = MakeBench(200, 3, 11, true);
  const auto kernel = KernelParams::Gaussian(2.0);
  Evaluator::Options options;
  options.max_level = 0;  // Root treated as leaf: pure scan.
  auto ev =
      Evaluator::Create(wb.tree.get(), nullptr, kernel, options).ValueOrDie();
  const std::vector<double> q(3, 0.5);
  EvalStats stats;
  const double exact = ExactAggregate(wb.points, wb.weights, kernel, q);
  EXPECT_EQ(ev.QueryThreshold(q, exact * 0.9, &stats), true);
  EXPECT_EQ(stats.kernel_evals, wb.points.rows());
  EXPECT_EQ(stats.nodes_expanded, 0u);
}

TEST(EvaluatorTest, LevelCapsAreCorrectAtEveryLevel) {
  const auto wb = MakeBench(256, 3, 12, true, /*leaf_capacity=*/4);
  const auto kernel = KernelParams::Gaussian(3.0);
  const std::vector<double> q(3, 0.4);
  const double exact = ExactAggregate(wb.points, wb.weights, kernel, q);

  for (int level = 0; level <= static_cast<int>(wb.tree->max_depth());
       ++level) {
    Evaluator::Options options;
    options.max_level = level;
    auto ev = Evaluator::Create(wb.tree.get(), nullptr, kernel, options)
                  .ValueOrDie();
    EXPECT_EQ(ev.QueryThreshold(q, exact * 0.95), true) << "level " << level;
    EXPECT_EQ(ev.QueryThreshold(q, exact * 1.05), false) << "level " << level;
  }
}

TEST(EvaluatorTest, KarlNeedsNoMoreIterationsThanSota) {
  const auto wb = MakeBench(1000, 4, 13, true, 8);
  const auto kernel = KernelParams::Gaussian(6.0);
  util::Rng rng(14);
  size_t sota_total = 0, karl_total = 0;
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<double> q(4);
    for (auto& v : q) v = rng.Uniform(0.0, 1.0);
    const double exact = ExactAggregate(wb.points, wb.weights, kernel, q);
    const double tau = exact * 1.1;
    for (const auto kind : {BoundKind::kSota, BoundKind::kKarl}) {
      Evaluator::Options options;
      options.bounds = kind;
      auto ev = Evaluator::Create(wb.tree.get(), nullptr, kernel, options)
                    .ValueOrDie();
      EvalStats stats;
      ev.QueryThreshold(q, tau, &stats);
      (kind == BoundKind::kSota ? sota_total : karl_total) +=
          stats.iterations;
    }
  }
  EXPECT_LE(karl_total, sota_total);
}

TEST(EvaluatorTest, TraceIsMonotoneAndConvergent) {
  const auto wb = MakeBench(500, 3, 15, true, 8);
  const auto kernel = KernelParams::Gaussian(5.0);
  Evaluator::Options options;
  auto ev =
      Evaluator::Create(wb.tree.get(), nullptr, kernel, options).ValueOrDie();

  const std::vector<double> q(3, 0.5);
  std::vector<double> lbs, ubs;
  TraceFn trace = [&](size_t, double lb, double ub) {
    lbs.push_back(lb);
    ubs.push_back(ub);
  };
  double lb = 0.0, ub = 0.0;
  ev.RefineToConvergence(q, 100000, &lb, &ub, &trace);

  ASSERT_GT(lbs.size(), 2u);
  const double exact = ExactAggregate(wb.points, wb.weights, kernel, q);
  for (size_t i = 0; i < lbs.size(); ++i) {
    EXPECT_LE(lbs[i], exact + 1e-6);
    EXPECT_GE(ubs[i], exact - 1e-6);
  }
  // Refinement tightens (allow tiny float slack between iterations).
  for (size_t i = 1; i < lbs.size(); ++i) {
    EXPECT_GE(lbs[i], lbs[i - 1] - 1e-7);
    EXPECT_LE(ubs[i], ubs[i - 1] + 1e-7);
  }
  EXPECT_NEAR(lb, exact, 1e-6);
  EXPECT_NEAR(ub, exact, 1e-6);
}

TEST(EvaluatorTest, BallTreeBackendAgrees) {
  util::Rng rng(16);
  const data::Matrix pts = data::SampleClustered(300, 4, 3, 0.08, rng);
  std::vector<double> weights(pts.rows(), 1.0);
  auto ball = index::BallTree::Build(pts, weights, 16).ValueOrDie();
  const auto kernel = KernelParams::Gaussian(4.0);
  Evaluator::Options options;
  auto ev =
      Evaluator::Create(ball.get(), nullptr, kernel, options).ValueOrDie();
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<double> q(4);
    for (auto& v : q) v = rng.Uniform(0.0, 1.0);
    const double exact = ExactAggregate(pts, weights, kernel, q);
    EXPECT_EQ(ev.QueryThreshold(q, exact * 0.9), true);
    EXPECT_EQ(ev.QueryThreshold(q, exact * 1.1), false);
    const double approx = ev.QueryApproximate(q, 0.1);
    EXPECT_NEAR(approx, exact, 0.1 * exact + 1e-12);
  }
}

TEST(EvaluatorTest, StatsAccumulateAcrossCalls) {
  const auto wb = MakeBench(200, 3, 17, true);
  const auto kernel = KernelParams::Gaussian(2.0);
  Evaluator::Options options;
  auto ev =
      Evaluator::Create(wb.tree.get(), nullptr, kernel, options).ValueOrDie();
  const std::vector<double> q(3, 0.5);
  EvalStats stats;
  ev.QueryThreshold(q, 1.0, &stats);
  const size_t after_one = stats.iterations + stats.kernel_evals;
  ev.QueryThreshold(q, 1.0, &stats);
  EXPECT_GE(stats.iterations + stats.kernel_evals, 2 * after_one);
}

// |F̂ − F| <= ε|F| up to a relative rounding slack, with no absolute floor.
bool MeetsEkaqContract(double approx, double exact, double eps) {
  return std::abs(approx - exact) <=
         eps * std::abs(exact) + 1e-9 * std::abs(exact);
}

// F ≈ 1e-15 at the centre of a ring of radius about 4, under γ = 3. The
// root and the top levels bound boxes that contain the centre, so they
// hold bounds of the size of the total weight (4000), and a running sum
// that adds and later subtracts them keeps a residue near 1e-13: far
// more than F. Answers and decisions must still be right.
TEST(EvaluatorTest, SmallAggregateUnderLargeTopBoundsKeepsTheContract) {
  constexpr size_t kN = 4000;
  std::vector<double> coords;
  std::vector<double> weights;
  for (size_t i = 0; i < kN; ++i) {
    const double t = static_cast<double>(i);
    const double radius = 4.0 + 0.3 * std::sin(7.1 * t);
    const double angle = 2.0 * M_PI * t / static_cast<double>(kN);
    coords.push_back(radius * std::cos(angle));
    coords.push_back(radius * std::sin(angle));
    weights.push_back(1.0 + 0.5 * std::sin(1.3 * t));
  }
  const data::Matrix points(kN, 2, std::move(coords));
  const auto kernel = KernelParams::Gaussian(3.0);
  std::vector<std::unique_ptr<index::TreeIndex>> trees;
  trees.push_back(index::KdTree::Build(points, weights, 16).ValueOrDie());
  trees.push_back(index::BallTree::Build(points, weights, 16).ValueOrDie());

  for (const auto& tree : trees) {
    for (const BoundKind kind : {BoundKind::kSota, BoundKind::kKarl}) {
      Evaluator::Options options;
      options.bounds = kind;
      auto ev =
          Evaluator::Create(tree.get(), nullptr, kernel, options).ValueOrDie();
      for (int i = 0; i < 25; ++i) {
        // Within 0.1 of the centre.
        const std::vector<double> q = {0.07 * std::sin(2.3 * i),
                                       0.07 * std::cos(1.7 * i)};
        const double exact = ExactAggregate(points, weights, kernel, q);
        ASSERT_GT(exact, 0.0);
        ASSERT_LT(exact, 1e-12);
        SCOPED_TRACE(std::string(index::IndexKindToString(tree->kind())) +
                     " " + std::string(BoundKindToString(kind)) + " query " +
                     std::to_string(i) + " exact " + std::to_string(exact));
        for (const double eps : {0.05, 0.3}) {
          const double approx = ev.QueryApproximate(q, eps);
          EXPECT_TRUE(MeetsEkaqContract(approx, exact, eps))
              << "eps " << eps << " answer " << approx;
        }
        for (const double rel : {0.6, 1.5}) {
          EXPECT_EQ(ev.QueryThreshold(q, rel * exact), rel < 1.0)
              << "tau " << rel << "·F";
        }
      }
    }
  }
}

// For ε >= 1 the lower side of the contract is vacuous, and the rule
// stops at the first enclosure on one side of zero, whatever ε: ε = 1
// and ε = 2.5 do the same work. The odd-degree polynomial gives
// aggregates of both signs.
TEST(EvaluatorTest, EpsAtLeastOneStopsOnOneSideOfZeroAndKeepsTheContract) {
  const auto wb = MakeBench(300, 4, 31, false);
  for (const auto kernel :
       {KernelParams::Gaussian(4.0), KernelParams::Polynomial(0.5, 0.2, 3)}) {
    for (const auto bound_kind : {BoundKind::kSota, BoundKind::kKarl}) {
      Evaluator::Options options;
      options.bounds = bound_kind;
      auto ev = Evaluator::Create(wb.tree.get(), nullptr, kernel, options)
                    .ValueOrDie();
      util::Rng rng(32);
      bool saw_negative = false;
      for (int trial = 0; trial < 12; ++trial) {
        std::vector<double> q(4);
        for (auto& v : q) v = rng.Uniform(-1.0, 1.0);
        const double exact = ExactAggregate(wb.points, wb.weights, kernel, q);
        saw_negative |= exact < 0.0;
        SCOPED_TRACE(std::string(KernelTypeToString(kernel.type)) + " " +
                     std::string(BoundKindToString(bound_kind)) + " trial " +
                     std::to_string(trial));
        EvalStats at_one;
        EvalStats at_more;
        const double one = ev.QueryApproximate(q, 1.0, &at_one);
        const double more = ev.QueryApproximate(q, 2.5, &at_more);
        EXPECT_TRUE(MeetsEkaqContract(one, exact, 1.0))
            << "exact " << exact << " answer " << one;
        EXPECT_TRUE(MeetsEkaqContract(more, exact, 2.5))
            << "exact " << exact << " answer " << more;
        EXPECT_EQ(at_one.iterations, at_more.iterations);
        EXPECT_EQ(at_one.kernel_evals, at_more.kernel_evals);
      }
      if (kernel.type == KernelType::kPolynomial) {
        EXPECT_TRUE(saw_negative);
      }
    }
  }
}

// A query so far away that every bound underflows to [0, 0]: the answer
// is 0 from the root, never the NaN of 0/0. The vector tiers clamp exp's
// argument at −708 (core/simd/simd.h), so their bounds stay just above
// 0; the scalar tier's reach it.
TEST(EvaluatorTest, FarQueryWithUnderflowedBoundsAnswersZero) {
  const simd::Tier saved = simd::ActiveTier();
  simd::ForceTier(simd::Tier::kScalar);
  const auto wb = MakeBench(200, 3, 33, false);
  const auto kernel = KernelParams::Gaussian(50.0);
  const std::vector<double> q(3, 40.0);
  ASSERT_EQ(ExactAggregate(wb.points, wb.weights, kernel, q), 0.0);
  for (const auto bound_kind : {BoundKind::kSota, BoundKind::kKarl}) {
    Evaluator::Options options;
    options.bounds = bound_kind;
    auto ev = Evaluator::Create(wb.tree.get(), nullptr, kernel, options)
                  .ValueOrDie();
    for (const double eps : {0.1, 1.0, 2.5}) {
      EvalStats stats;
      EXPECT_EQ(ev.QueryApproximate(q, eps, &stats), 0.0) << "eps " << eps;
      EXPECT_EQ(stats.iterations, 0u);
    }
    EXPECT_FALSE(ev.QueryThreshold(q, 0.0));
  }
  simd::ForceTier(saved);
}


// Asserts the reconciliation contract documented in traversal_profile.h
// between one query's profile and its (fresh) EvalStats.
void ExpectProfileReconciles(const TraversalProfile& profile,
                             const EvalStats& stats) {
  EXPECT_EQ(profile.iterations, stats.iterations);
  EXPECT_EQ(profile.nodes_expanded, stats.nodes_expanded);
  EXPECT_EQ(profile.kernel_evals, stats.kernel_evals);

  uint64_t visited = 0, expanded = 0, pruned = 0, leaves = 0, kevals = 0;
  for (const TraversalProfile::Level& level : profile.levels) {
    visited += level.visited;
    expanded += level.expanded;
    pruned += level.pruned;
    leaves += level.exact_leaves;
    kevals += level.kernel_evals;
  }
  EXPECT_EQ(expanded, stats.nodes_expanded);
  EXPECT_EQ(kevals, stats.kernel_evals);
  // Every visited node is expanded, pruned, or folded as an exact leaf.
  EXPECT_EQ(visited, expanded + pruned + leaves);

  if (!profile.timeline_truncated) {
    // Entry 0 is the post-admission state, then one entry per iteration.
    EXPECT_EQ(profile.timeline.size(), profile.iterations + 1);
  } else {
    EXPECT_EQ(profile.timeline.size(), TraversalProfile::kMaxTimeline);
  }
  for (const TraversalProfile::Iteration& it : profile.timeline) {
    EXPECT_LE(it.lb, it.ub + 1e-9);
    EXPECT_LE(it.kernel_evals, profile.kernel_evals);
  }
  // The bound interval tightens monotonically along the timeline.
  for (size_t i = 1; i < profile.timeline.size(); ++i) {
    EXPECT_GE(profile.timeline[i].lb, profile.timeline[i - 1].lb - 1e-7);
    EXPECT_LE(profile.timeline[i].ub, profile.timeline[i - 1].ub + 1e-7);
    EXPECT_GE(profile.timeline[i].kernel_evals,
              profile.timeline[i - 1].kernel_evals);
  }
}

class ExplainProfileTest : public ::testing::TestWithParam<BoundKind> {};

TEST_P(ExplainProfileTest, ThresholdProfileReconcilesWithStats) {
  const auto wb = MakeBench(400, 4, 31, false);
  const auto kernel = KernelParams::Gaussian(3.0);
  Evaluator::Options options;
  options.bounds = GetParam();
  auto ev =
      Evaluator::Create(wb.tree.get(), nullptr, kernel, options).ValueOrDie();

  util::Rng rng(32);
  for (int trial = 0; trial < 8; ++trial) {
    std::vector<double> q(4);
    for (auto& v : q) v = rng.Uniform(0.0, 1.0);
    const double exact = ExactAggregate(wb.points, wb.weights, kernel, q);
    // Near-threshold queries force deep refinement; far ones stop early.
    for (const double tau : {exact * 0.999, exact * 0.5, exact * 2.0}) {
      EvalStats stats;
      TraversalProfile profile;
      const bool above = ev.QueryThreshold(q, tau, &stats, nullptr, &profile);
      EXPECT_EQ(above, exact > tau);
      EXPECT_EQ(profile.bounds, GetParam());
      ExpectProfileReconciles(profile, stats);

      // Profiling is observational: a profile-free run of the same query
      // does identical work and reaches the identical answer.
      EvalStats bare;
      EXPECT_EQ(ev.QueryThreshold(q, tau, &bare), above);
      EXPECT_EQ(bare.iterations, stats.iterations);
      EXPECT_EQ(bare.nodes_expanded, stats.nodes_expanded);
      EXPECT_EQ(bare.kernel_evals, stats.kernel_evals);
    }
  }
}

TEST_P(ExplainProfileTest, ApproximateProfileReconcilesWithStats) {
  const auto wb = MakeBench(400, 4, 33, true);
  const auto kernel = KernelParams::Gaussian(4.0);
  Evaluator::Options options;
  options.bounds = GetParam();
  auto ev =
      Evaluator::Create(wb.tree.get(), nullptr, kernel, options).ValueOrDie();

  util::Rng rng(34);
  for (int trial = 0; trial < 8; ++trial) {
    std::vector<double> q(4);
    for (auto& v : q) v = rng.Uniform(0.0, 1.0);
    EvalStats stats;
    TraversalProfile profile;
    const double value = ev.QueryApproximate(q, 0.05, &stats, nullptr,
                                             &profile);
    ExpectProfileReconciles(profile, stats);

    EvalStats bare;
    EXPECT_EQ(ev.QueryApproximate(q, 0.05, &bare), value);  // Bit-identical.
    EXPECT_EQ(bare.kernel_evals, stats.kernel_evals);
  }
}

INSTANTIATE_TEST_SUITE_P(BothBounds, ExplainProfileTest,
                         ::testing::Values(BoundKind::kSota, BoundKind::kKarl),
                         [](const auto& info) {
                           return std::string(BoundKindToString(info.param));
                         });

TEST(ExplainProfileTest, TypeThreeProfileMergesBothTreesByDepth) {
  util::Rng rng(35);
  const size_t n = 300, d = 4;
  const data::Matrix pts = data::SampleClustered(n, d, 3, 0.1, rng);
  std::vector<double> signed_w(n);
  for (auto& w : signed_w) w = rng.Uniform(-1.0, 1.0);
  std::vector<size_t> pos, neg;
  for (size_t i = 0; i < n; ++i) (signed_w[i] >= 0 ? pos : neg).push_back(i);
  std::vector<double> pw, nw;
  for (const size_t i : pos) pw.push_back(signed_w[i]);
  for (const size_t i : neg) nw.push_back(-signed_w[i]);
  auto ptree =
      index::KdTree::Build(pts.SelectRows(pos), pw, 8).ValueOrDie();
  auto ntree =
      index::KdTree::Build(pts.SelectRows(neg), nw, 8).ValueOrDie();
  Evaluator::Options options;
  auto ev = Evaluator::Create(ptree.get(), ntree.get(),
                              KernelParams::Gaussian(4.0), options)
                .ValueOrDie();

  std::vector<double> q(d, 0.5);
  const double exact = ExactAggregate(pts, signed_w, KernelParams::Gaussian(4.0), q);
  EvalStats stats;
  TraversalProfile profile;
  ev.QueryThreshold(q, exact * 0.999, &stats, nullptr, &profile);
  ExpectProfileReconciles(profile, stats);
  // Both roots were admitted, so depth 0 saw two visits.
  ASSERT_FALSE(profile.levels.empty());
  EXPECT_EQ(profile.levels[0].visited, 2u);
}

TEST(ExplainProfileTest, ProfileClearsBetweenQueries) {
  const auto wb = MakeBench(200, 3, 36, true);
  Evaluator::Options options;
  auto ev = Evaluator::Create(wb.tree.get(), nullptr,
                              KernelParams::Gaussian(2.0), options)
                .ValueOrDie();
  const std::vector<double> q(3, 0.5);
  TraversalProfile profile;
  EvalStats first;
  ev.QueryThreshold(q, 1.0, &first, nullptr, &profile);
  // Reused profile must describe only the second query, not accumulate.
  EvalStats second;
  ev.QueryThreshold(q, 1.0, &second, nullptr, &profile);
  EXPECT_EQ(profile.iterations, second.iterations);
  EXPECT_EQ(profile.kernel_evals, second.kernel_evals);
}

// Occurrences of `needle` in `haystack`.
size_t CountOf(const std::string& haystack, const std::string& needle) {
  size_t count = 0;
  for (size_t at = haystack.find(needle); at != std::string::npos;
       at = haystack.find(needle, at + needle.size())) {
    ++count;
  }
  return count;
}

// The audit's ground-truth scan is not a user query: an audited query
// records only its own work in the metrics and only its own span.
TEST(EvaluatorTest, AuditScanIsNotRecordedAsAQuery) {
  const auto wb = MakeBench(500, 3, 41, true);
  const auto kernel = KernelParams::Gaussian(3.0);
  telemetry::Registry metrics;
  telemetry::TraceRecorder tracer;
  Evaluator::Options options;
  options.audit_bounds = true;
  options.metrics = &metrics;
  options.tracer = &tracer;
  auto ev =
      Evaluator::Create(wb.tree.get(), nullptr, kernel, options).ValueOrDie();

  const std::vector<double> q(3, 0.5);
  const double exact = ExactAggregate(wb.points, wb.weights, kernel, q);
  EvalStats stats;
  EXPECT_EQ(ev.QueryThreshold(q, 0.9 * exact, &stats), true);
  EXPECT_NEAR(ev.QueryApproximate(q, 0.05, &stats), exact, 0.05 * exact);

  EXPECT_EQ(metrics.GetCounter("karl_exact_queries_total")->value(), 0u);
  EXPECT_EQ(metrics.GetCounter("karl_tkaq_queries_total")->value(), 1u);
  EXPECT_EQ(metrics.GetCounter("karl_ekaq_queries_total")->value(), 1u);
  EXPECT_EQ(metrics.GetCounter("karl_kernel_evals_total")->value(),
            stats.kernel_evals);
  const std::string json = tracer.ToJson();
  EXPECT_EQ(CountOf(json, "\"name\": \"exact\""), 0u);
  EXPECT_EQ(CountOf(json, "\"name\": \"tkaq\""), 1u);
  EXPECT_EQ(CountOf(json, "\"name\": \"ekaq\""), 1u);
}

struct ChannelCase {
  bool signed_weights;  // Type III (two trees) instead of Type I/II.
  bool threshold;       // TKAQ instead of eKAQ.
};

class AllChannelsTest : public ::testing::TestWithParam<ChannelCase> {};

// Every observation channel attached to one query at once — profile,
// TraceFn, tracer, metrics and the audit — leaves the answer and the
// work bit-identical to the bare query, and the channels agree with one
// another, in every SIMD tier the CPU supports.
TEST_P(AllChannelsTest, ObservedQueryMatchesBareQuery) {
  const ChannelCase c = GetParam();
  util::Rng rng(51);
  const size_t n = 600, d = 3;
  const data::Matrix pts = data::SampleClustered(n, d, 3, 0.08, rng);
  std::vector<double> w(n);
  for (auto& v : w) {
    v = c.signed_weights ? rng.Uniform(-1.0, 1.0) : rng.Uniform(0.1, 2.0);
  }
  std::vector<size_t> pos, neg;
  for (size_t i = 0; i < n; ++i) (w[i] >= 0 ? pos : neg).push_back(i);
  std::vector<double> pw, nw;
  for (const size_t i : pos) pw.push_back(w[i]);
  for (const size_t i : neg) nw.push_back(-w[i]);
  auto ptree = index::KdTree::Build(pts.SelectRows(pos), pw, 8).ValueOrDie();
  std::unique_ptr<index::TreeIndex> ntree;
  if (!neg.empty()) {
    ntree = index::KdTree::Build(pts.SelectRows(neg), nw, 8).ValueOrDie();
  }
  ASSERT_EQ(ntree != nullptr, c.signed_weights);
  const auto kernel = KernelParams::Gaussian(4.0);
  const Evaluator bare =
      Evaluator::Create(ptree.get(), ntree.get(), kernel, {}).ValueOrDie();

  std::vector<simd::Tier> tiers;
  for (const simd::Tier tier :
       {simd::Tier::kScalar, simd::Tier::kAvx2, simd::Tier::kAvx512}) {
    if (simd::TierSupported(tier)) tiers.push_back(tier);
  }
  const simd::Tier saved = simd::ActiveTier();
  for (const simd::Tier tier : tiers) {
    simd::ForceTier(tier);
    for (int trial = 0; trial < 4; ++trial) {
      SCOPED_TRACE(std::string(simd::TierName(tier)) +
                   " trial=" + std::to_string(trial));
      std::vector<double> q(d);
      for (auto& v : q) v = rng.Uniform(0.0, 1.0);
      const double exact = ExactAggregate(pts, w, kernel, q);

      telemetry::Registry metrics;
      telemetry::TraceRecorder tracer;
      Evaluator::Options options;
      options.audit_bounds = true;
      options.metrics = &metrics;
      options.tracer = &tracer;
      const Evaluator observed =
          Evaluator::Create(ptree.get(), ntree.get(), kernel, options)
              .ValueOrDie();
      std::vector<size_t> trace_iterations;
      std::vector<std::pair<double, double>> trace_bounds;
      const TraceFn trace = [&](size_t iteration, double lb, double ub) {
        trace_iterations.push_back(iteration);
        trace_bounds.emplace_back(lb, ub);
      };
      TraversalProfile profile;
      EvalStats bare_stats, stats;
      if (c.threshold) {
        const double tau = 0.999 * exact;
        const bool expected = bare.QueryThreshold(q, tau, &bare_stats);
        EXPECT_EQ(observed.QueryThreshold(q, tau, &stats, &trace, &profile),
                  expected);
      } else {
        const double expected = bare.QueryApproximate(q, 0.01, &bare_stats);
        EXPECT_EQ(std::bit_cast<uint64_t>(observed.QueryApproximate(
                      q, 0.01, &stats, &trace, &profile)),
                  std::bit_cast<uint64_t>(expected));
      }
      EXPECT_EQ(stats.iterations, bare_stats.iterations);
      EXPECT_EQ(stats.nodes_expanded, bare_stats.nodes_expanded);
      EXPECT_EQ(stats.kernel_evals, bare_stats.kernel_evals);
      ExpectProfileReconciles(profile, stats);

      ASSERT_EQ(trace_iterations.size(), stats.iterations + 1);
      for (size_t i = 0; i < trace_iterations.size(); ++i) {
        EXPECT_EQ(trace_iterations[i], i);
      }
      for (size_t i = 0; i < profile.timeline.size(); ++i) {
        EXPECT_EQ(trace_bounds[i].first, profile.timeline[i].lb) << i;
        EXPECT_EQ(trace_bounds[i].second, profile.timeline[i].ub) << i;
      }

      const std::string json = tracer.ToJson();
      EXPECT_EQ(CountOf(json, "\"name\": \"karl.bounds\""),
                stats.iterations + 1);
      EXPECT_EQ(CountOf(json, "\"name\": \"karl.work\""),
                stats.iterations + 1);
      EXPECT_EQ(CountOf(json, "\"ph\": \"X\""), 1u);
      EXPECT_EQ(CountOf(json, c.threshold ? "\"name\": \"tkaq\""
                                          : "\"name\": \"ekaq\""),
                1u);
      EXPECT_EQ(metrics.GetCounter("karl_exact_queries_total")->value(), 0u);
      EXPECT_EQ(metrics.GetCounter("karl_kernel_evals_total")->value(),
                stats.kernel_evals);
    }
  }
  simd::ForceTier(saved);
}

INSTANTIATE_TEST_SUITE_P(
    WeightingAndQuery, AllChannelsTest,
    ::testing::Values(ChannelCase{false, true}, ChannelCase{false, false},
                      ChannelCase{true, true}, ChannelCase{true, false}),
    [](const auto& info) {
      return std::string(info.param.signed_weights ? "TypeIII" : "TypeI_II") +
             (info.param.threshold ? "_Tkaq" : "_Ekaq");
    });

}  // namespace
}  // namespace karl::core
