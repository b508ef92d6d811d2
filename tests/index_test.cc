// Unit tests for the index layer: bounding geometry, kd-tree, ball-tree,
// and the per-node weighted aggregates KARL's bounds consume.

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <string>
#include <vector>

#include "core/simd/soa_block.h"
#include "data/synthetic.h"
#include "index/ball_tree.h"
#include "index/bounding_ball.h"
#include "index/bounding_box.h"
#include "index/kd_tree.h"
#include "util/math_util.h"
#include "util/rng.h"

namespace karl::index {
namespace {

// Permuted point `i` of `tree`, gathered from its blocks.
std::vector<double> PermutedRow(const TreeIndex& tree, size_t i) {
  std::vector<double> row(tree.points().dims());
  for (size_t j = 0; j < row.size(); ++j) row[j] = tree.points().At(i, j);
  return row;
}

data::Matrix TestPoints() {
  // 6 points in 2-d.
  return data::Matrix(6, 2, {0, 0, 1, 0, 0, 1, 2, 2, 3, 1, 1, 3});
}

// Single-node kd-tree over `pts`: its root region is FitRange's box, and
// its DistanceBounds runs the serving geometry (simd::BoxGeometry).
std::unique_ptr<KdTree> OneBoxTree(const data::Matrix& pts) {
  const std::vector<double> weights(pts.rows(), 1.0);
  return KdTree::Build(pts, weights, pts.rows()).ValueOrDie();
}

// TreeIndex::DistanceBounds or TreeIndex::InnerProductBounds, and the
// exact quantity it bounds (util::SquaredDistance or util::Dot).
using NodeBounds = void (TreeIndex::*)(NodeId, std::span<const double>,
                                       double*, double*) const;
using PointValue = double (*)(std::span<const double>,
                              std::span<const double>);

// For every query of `queries` and every node of `tree`, `bounds` must
// enclose `truth(q, p)` at each point p in the node's range.
void ExpectEveryNodeSandwiches(const TreeIndex& tree,
                               const data::Matrix& queries, double slack,
                               NodeBounds bounds, PointValue truth) {
  for (size_t t = 0; t < queries.rows(); ++t) {
    const auto q = queries.Row(t);
    for (size_t id = 0; id < tree.num_nodes(); ++id) {
      double lo = 0.0, hi = 0.0;
      (tree.*bounds)(static_cast<NodeId>(id), q, &lo, &hi);
      const auto& nd = tree.node(static_cast<NodeId>(id));
      for (uint32_t i = nd.begin; i < nd.end; ++i) {
        const double value = truth(q, PermutedRow(tree, i));
        EXPECT_LE(lo, value + slack) << "node " << id << " point " << i;
        EXPECT_GE(hi, value - slack) << "node " << id << " point " << i;
      }
    }
  }
}

// ------------------------------ BoundingBox ------------------------------

TEST(BoundingBoxTest, FitRangeCoversAllPoints) {
  const auto pts = TestPoints();
  const BoundingBox box = BoundingBox::FitRange(pts, 0, pts.rows());
  EXPECT_DOUBLE_EQ(box.lower()[0], 0.0);
  EXPECT_DOUBLE_EQ(box.upper()[0], 3.0);
  EXPECT_DOUBLE_EQ(box.lower()[1], 0.0);
  EXPECT_DOUBLE_EQ(box.upper()[1], 3.0);
  for (size_t i = 0; i < pts.rows(); ++i) {
    for (size_t j = 0; j < pts.cols(); ++j) {
      EXPECT_LE(box.lower()[j], pts(i, j));
      EXPECT_GE(box.upper()[j], pts(i, j));
    }
  }
}

TEST(BoundingBoxTest, MinDistZeroInsideBox) {
  const auto tree = OneBoxTree(TestPoints());
  const std::vector<double> q{1.5, 1.5};
  double min_sq = 0.0, max_sq = 0.0;
  tree->DistanceBounds(tree->root(), q, &min_sq, &max_sq);
  EXPECT_DOUBLE_EQ(min_sq, 0.0);
  EXPECT_GT(max_sq, 0.0);
}

TEST(BoundingBoxTest, MinMaxDistOutsideBox) {
  const auto tree = OneBoxTree(data::Matrix(2, 2, {0, 0, 1, 1}));
  const std::vector<double> q{3.0, 0.0};
  double min_sq = 0.0, max_sq = 0.0;
  tree->DistanceBounds(tree->root(), q, &min_sq, &max_sq);
  EXPECT_DOUBLE_EQ(min_sq, 4.0);   // To (1,0).
  EXPECT_DOUBLE_EQ(max_sq, 10.0);  // To (0,1).
}

TEST(BoundingBoxTest, DistBoundsSandwichTruePoints) {
  util::Rng rng(1);
  const data::Matrix pts = data::SampleUniform(100, 4, -2.0, 2.0, rng);
  const std::vector<double> weights(pts.rows(), 1.0);
  const auto tree = KdTree::Build(pts, weights, 8).ValueOrDie();
  const data::Matrix queries = data::SampleUniform(20, 4, -4.0, 4.0, rng);
  ExpectEveryNodeSandwiches(*tree, queries, 1e-12,
                            &TreeIndex::DistanceBounds, util::SquaredDistance);
}

TEST(BoundingBoxTest, InnerProductBoundsSandwichTruePoints) {
  util::Rng rng(2);
  const data::Matrix pts = data::SampleUniform(100, 3, -1.0, 1.0, rng);
  const std::vector<double> weights(pts.rows(), 1.0);
  const auto tree = KdTree::Build(pts, weights, 4).ValueOrDie();
  const data::Matrix queries = data::SampleUniform(20, 3, -2.0, 2.0, rng);
  ExpectEveryNodeSandwiches(*tree, queries, 1e-12,
                            &TreeIndex::InnerProductBounds, util::Dot);
}

TEST(BoundingBoxTest, InnerProductBoundsNegativeQuery) {
  data::Matrix pts(2, 1, {1.0, 3.0});
  const BoundingBox box = BoundingBox::FitRange(pts, 0, 2);
  const std::vector<double> q{-2.0};
  double lo = 0.0, hi = 0.0;
  BoundingBox::InnerProductBoundsFlat(box.lower(), box.upper(), q, &lo, &hi);
  EXPECT_DOUBLE_EQ(lo, -6.0);
  EXPECT_DOUBLE_EQ(hi, -2.0);
}

// The kd-tree splits a node's box along its widest dimension: y spans 10
// here and x only 3, so the root's children separate on y.
TEST(BoundingBoxTest, WidestDimension) {
  const data::Matrix pts(4, 2, {0, 0, 1, 10, 2, 5, 3, 1});
  const std::vector<double> weights(pts.rows(), 1.0);
  const auto tree = KdTree::Build(pts, weights, 2).ValueOrDie();
  const auto& root = tree->node(tree->root());
  ASSERT_FALSE(root.is_leaf());
  const auto& left = tree->node(root.left);
  const auto& right = tree->node(root.right);
  for (uint32_t i = left.begin; i < left.end; ++i) {
    for (uint32_t k = right.begin; k < right.end; ++k) {
      EXPECT_LE(tree->points().At(i, 1), tree->points().At(k, 1));
    }
  }
}

// ------------------------------ BoundingBall -----------------------------

TEST(BoundingBallTest, CoversAllPoints) {
  const auto pts = TestPoints();
  const BoundingBall ball = BoundingBall::FitRange(pts, 0, pts.rows());
  for (size_t i = 0; i < pts.rows(); ++i) {
    const double dist =
        std::sqrt(util::SquaredDistance(pts.Row(i), ball.center()));
    EXPECT_LE(dist, ball.radius() + 1e-12);
  }
}

TEST(BoundingBallTest, SinglePointHasZeroRadius) {
  data::Matrix pts(1, 2, {3.0, 4.0});
  const BoundingBall ball = BoundingBall::FitRange(pts, 0, 1);
  EXPECT_DOUBLE_EQ(ball.radius(), 0.0);
  const std::vector<double> q{0.0, 0.0};
  double min_sq = 0.0, max_sq = 0.0;
  BoundingBall::DistanceBoundsFlat(ball.center(), ball.radius(), q, &min_sq,
                                   &max_sq);
  EXPECT_DOUBLE_EQ(min_sq, 25.0);
  EXPECT_DOUBLE_EQ(max_sq, 25.0);
}

TEST(BoundingBallTest, DistBoundsSandwichTruePoints) {
  util::Rng rng(3);
  const data::Matrix pts = data::SampleUniform(100, 5, 0.0, 1.0, rng);
  const std::vector<double> weights(pts.rows(), 1.0);
  const auto tree = BallTree::Build(pts, weights, 8).ValueOrDie();
  const data::Matrix queries = data::SampleUniform(20, 5, -1.0, 2.0, rng);
  ExpectEveryNodeSandwiches(*tree, queries, 1e-9,
                            &TreeIndex::DistanceBounds, util::SquaredDistance);
}

TEST(BoundingBallTest, InnerProductBoundsSandwichTruePoints) {
  util::Rng rng(4);
  const data::Matrix pts = data::SampleUniform(100, 3, -1.0, 1.0, rng);
  const std::vector<double> weights(pts.rows(), 1.0);
  const auto tree = BallTree::Build(pts, weights, 4).ValueOrDie();
  const data::Matrix queries = data::SampleUniform(20, 3, -2.0, 2.0, rng);
  ExpectEveryNodeSandwiches(*tree, queries, 1e-9,
                            &TreeIndex::InnerProductBounds, util::Dot);
}

TEST(BoundingBallTest, MinDistInsideBallIsZero) {
  util::Rng rng(5);
  const data::Matrix pts = data::SampleUniform(50, 2, 0.0, 1.0, rng);
  const BoundingBall ball = BoundingBall::FitRange(pts, 0, pts.rows());
  double min_sq = 0.0, max_sq = 0.0;
  BoundingBall::DistanceBoundsFlat(ball.center(), ball.radius(),
                                   ball.center(), &min_sq, &max_sq);
  EXPECT_DOUBLE_EQ(min_sq, 0.0);
}

// ----------------------- Tree structure invariants -----------------------

struct TreeCase {
  IndexKind kind;
  size_t leaf_capacity;
};

class TreeInvariantTest : public ::testing::TestWithParam<TreeCase> {
 protected:
  static std::unique_ptr<TreeIndex> BuildTree(const data::Matrix& pts,
                                              std::span<const double> weights,
                                              const TreeCase& tc) {
    if (tc.kind == IndexKind::kKdTree) {
      auto t = KdTree::Build(pts, weights, tc.leaf_capacity);
      EXPECT_TRUE(t.ok());
      return std::move(t).ValueOrDie();
    }
    auto t = BallTree::Build(pts, weights, tc.leaf_capacity);
    EXPECT_TRUE(t.ok());
    return std::move(t).ValueOrDie();
  }
};

TEST_P(TreeInvariantTest, StructureCoversAllPointsExactlyOnce) {
  util::Rng rng(10);
  const data::Matrix pts = data::SampleClustered(300, 4, 3, 0.1, rng);
  std::vector<double> weights(pts.rows(), 1.0);
  const auto tree = BuildTree(pts, weights, GetParam());

  // Root covers everything.
  EXPECT_EQ(tree->node(tree->root()).begin, 0u);
  EXPECT_EQ(tree->node(tree->root()).end, pts.rows());

  // Children partition the parent's range; leaves respect the capacity.
  size_t leaf_points = 0;
  for (size_t id = 0; id < tree->num_nodes(); ++id) {
    const auto& nd = tree->node(id);
    if (nd.is_leaf()) {
      EXPECT_LE(nd.count(), GetParam().leaf_capacity);
      leaf_points += nd.count();
    } else {
      const auto& left = tree->node(nd.left);
      const auto& right = tree->node(nd.right);
      EXPECT_EQ(left.begin, nd.begin);
      EXPECT_EQ(left.end, right.begin);
      EXPECT_EQ(right.end, nd.end);
      EXPECT_GT(left.count(), 0u);
      EXPECT_GT(right.count(), 0u);
      EXPECT_EQ(left.depth, nd.depth + 1);
      EXPECT_EQ(right.depth, nd.depth + 1);
    }
  }
  EXPECT_EQ(leaf_points, pts.rows());
}

TEST_P(TreeInvariantTest, PermutationIsBijective) {
  util::Rng rng(11);
  const data::Matrix pts = data::SampleUniform(128, 3, 0.0, 1.0, rng);
  std::vector<double> weights(pts.rows(), 2.0);
  const auto tree = BuildTree(pts, weights, GetParam());
  std::vector<bool> seen(pts.rows(), false);
  for (const size_t original : tree->original_indices()) {
    ASSERT_LT(original, pts.rows());
    EXPECT_FALSE(seen[original]);
    seen[original] = true;
  }
  // Permuted points match originals.
  for (size_t i = 0; i < pts.rows(); ++i) {
    const size_t orig = tree->original_indices()[i];
    for (size_t j = 0; j < pts.cols(); ++j) {
      EXPECT_DOUBLE_EQ(tree->points().At(i, j), pts(orig, j));
    }
  }
}

TEST_P(TreeInvariantTest, NodeRegionsContainTheirPoints) {
  util::Rng rng(12);
  const data::Matrix pts = data::SampleClustered(200, 3, 4, 0.08, rng);
  std::vector<double> weights(pts.rows(), 1.0);
  const auto tree = BuildTree(pts, weights, GetParam());
  std::vector<double> q(3, 0.5);
  for (size_t id = 0; id < tree->num_nodes(); ++id) {
    const auto& nd = tree->node(id);
    double min_sq = 0.0, max_sq = 0.0;
    tree->DistanceBounds(static_cast<NodeId>(id), q, &min_sq, &max_sq);
    for (uint32_t i = nd.begin; i < nd.end; ++i) {
      const double sq = util::SquaredDistance(q, PermutedRow(*tree, i));
      EXPECT_LE(min_sq, sq + 1e-9);
      EXPECT_GE(max_sq, sq - 1e-9);
    }
  }
}

TEST_P(TreeInvariantTest, WeightedAggregatesMatchDirectSums) {
  util::Rng rng(13);
  const data::Matrix pts = data::SampleUniform(150, 4, -1.0, 1.0, rng);
  std::vector<double> weights(pts.rows());
  for (auto& w : weights) w = rng.Uniform(0.1, 2.0);
  const auto tree = BuildTree(pts, weights, GetParam());

  for (size_t id = 0; id < tree->num_nodes(); ++id) {
    const auto& nd = tree->node(id);
    double w_sum = 0.0, b_sum = 0.0;
    std::vector<double> a_sum(pts.cols(), 0.0);
    for (uint32_t i = nd.begin; i < nd.end; ++i) {
      const double w = tree->points().WeightAt(i);
      const std::vector<double> row = PermutedRow(*tree, i);
      w_sum += w;
      b_sum += w * util::SquaredNorm(row);
      for (size_t j = 0; j < row.size(); ++j) a_sum[j] += w * row[j];
    }
    EXPECT_NEAR(tree->weight_sum(static_cast<NodeId>(id)), w_sum, 1e-9);
    EXPECT_NEAR(tree->weighted_sqnorm_sum(static_cast<NodeId>(id)), b_sum,
                1e-9);
    const auto stored = tree->weighted_point_sum(static_cast<NodeId>(id));
    for (size_t j = 0; j < a_sum.size(); ++j) {
      EXPECT_NEAR(stored[j], a_sum[j], 1e-9);
    }
  }
}

TEST_P(TreeInvariantTest, DuplicatePointsStayALeaf) {
  // 50 identical points can never be split; the build must terminate and
  // keep them in one (oversized) leaf.
  data::Matrix pts(50, 2);
  for (size_t i = 0; i < 50; ++i) {
    pts(i, 0) = 1.0;
    pts(i, 1) = 2.0;
  }
  std::vector<double> weights(50, 1.0);
  const auto tree = BuildTree(pts, weights, GetParam());
  EXPECT_EQ(tree->num_nodes(), 1u);
  EXPECT_TRUE(tree->node(0).is_leaf());
}

TEST_P(TreeInvariantTest, MemoryUsageIsPositive) {
  util::Rng rng(14);
  const data::Matrix pts = data::SampleUniform(64, 2, 0.0, 1.0, rng);
  std::vector<double> weights(pts.rows(), 1.0);
  const auto tree = BuildTree(pts, weights, GetParam());
  EXPECT_GT(tree->MemoryUsageBytes(), pts.rows() * 2 * sizeof(double));
}

INSTANTIATE_TEST_SUITE_P(
    AllTreeKinds, TreeInvariantTest,
    ::testing::Values(TreeCase{IndexKind::kKdTree, 1},
                      TreeCase{IndexKind::kKdTree, 8},
                      TreeCase{IndexKind::kKdTree, 64},
                      TreeCase{IndexKind::kBallTree, 1},
                      TreeCase{IndexKind::kBallTree, 8},
                      TreeCase{IndexKind::kBallTree, 64}),
    [](const ::testing::TestParamInfo<TreeCase>& info) {
      return std::string(info.param.kind == IndexKind::kKdTree ? "Kd"
                                                               : "Ball") +
             "Cap" + std::to_string(info.param.leaf_capacity);
    });

// ------------------------------ Build errors -----------------------------

TEST(TreeBuildTest, EmptyInputFails) {
  data::Matrix empty;
  std::vector<double> weights;
  EXPECT_FALSE(KdTree::Build(empty, weights, 8).ok());
  EXPECT_FALSE(BallTree::Build(empty, weights, 8).ok());
}

TEST(TreeBuildTest, WeightCountMismatchFails) {
  data::Matrix pts(3, 1, {1, 2, 3});
  std::vector<double> weights(2, 1.0);
  EXPECT_FALSE(KdTree::Build(pts, weights, 8).ok());
  EXPECT_FALSE(BallTree::Build(pts, weights, 8).ok());
}

TEST(TreeBuildTest, ZeroLeafCapacityFails) {
  data::Matrix pts(3, 1, {1, 2, 3});
  std::vector<double> weights(3, 1.0);
  EXPECT_FALSE(KdTree::Build(pts, weights, 0).ok());
  EXPECT_FALSE(BallTree::Build(pts, weights, 0).ok());
}

TEST(TreeBuildTest, SinglePointTree) {
  data::Matrix pts(1, 2, {0.5, 0.5});
  std::vector<double> weights(1, 3.0);
  auto tree = KdTree::Build(pts, weights, 8);
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(tree.value()->num_nodes(), 1u);
  EXPECT_DOUBLE_EQ(tree.value()->weight_sum(0), 3.0);
}

TEST(TreeBuildTest, KindNames) {
  EXPECT_EQ(IndexKindToString(IndexKind::kKdTree), "kd-tree");
  EXPECT_EQ(IndexKindToString(IndexKind::kBallTree), "ball-tree");
}

TEST(TreeBuildTest, LeafCapacityOneGivesLogDepth) {
  util::Rng rng(20);
  const data::Matrix pts = data::SampleUniform(256, 2, 0.0, 1.0, rng);
  std::vector<double> weights(pts.rows(), 1.0);
  auto tree = KdTree::Build(pts, weights, 1);
  ASSERT_TRUE(tree.ok());
  // Balanced splits (on block boundaries down to 16 points, at the
  // median below) give depth exactly ceil(log2(256)) = 8.
  EXPECT_EQ(tree.value()->max_depth(), 8u);
}

// Nodes of a kd tree over `n` distinct points that splits every node
// at its median.
size_t MedianSplitNodes(size_t n, size_t capacity) {
  if (n <= capacity) return 1;
  return 1 + MedianSplitNodes(n / 2, capacity) +
         MedianSplitNodes(n - n / 2, capacity);
}

// A node of at least two blocks splits on a block boundary, so both
// children start on one; the one exception is a node the median would
// cut into two leaves and no boundary inside it can, which keeps the
// median. Leaves stay within capacity, and alignment never adds a node.
TEST(KdSplitTest, NodesOfTwoBlocksOrMoreSplitOnABlockBoundary) {
  constexpr size_t kB = core::simd::SoaLeafBlocks::kBlockPoints;
  auto spec = data::FindDataset("home").ValueOrDie();
  for (const size_t n : {2000u, 3200u, 4099u}) {
    spec.n = n;
    const data::Matrix pts = data::MakeUciLike(spec);
    const std::vector<double> weights(n, 1.0);
    for (const size_t capacity : {8u, 40u, 80u, 100u, 320u}) {
      SCOPED_TRACE("n " + std::to_string(n) + " capacity " +
                   std::to_string(capacity));
      const auto tree = KdTree::Build(pts, weights, capacity).ValueOrDie();
      EXPECT_LE(tree->num_nodes(), MedianSplitNodes(n, capacity));
      for (size_t id = 0; id < tree->num_nodes(); ++id) {
        const auto& nd = tree->node(static_cast<NodeId>(id));
        if (nd.is_leaf()) {
          EXPECT_LE(nd.count(), capacity) << "node " << id;
          continue;
        }
        if (nd.count() < 2 * kB) continue;
        const uint32_t mid = tree->node(nd.left).end;
        EXPECT_EQ(nd.begin % kB, 0u) << "node " << id;
        // Within a block of the median.
        EXPECT_LT(std::abs(2.0 * (mid - nd.begin) - nd.count()), 2.0 * kB)
            << "node " << id;
        if (mid % kB == 0) continue;
        EXPECT_TRUE(tree->node(nd.left).is_leaf() &&
                    tree->node(nd.right).is_leaf())
            << "node " << id;
        for (uint32_t c = (nd.begin / kB + 1) * kB; c < nd.end; c += kB) {
          EXPECT_TRUE(c - nd.begin > capacity || nd.end - c > capacity)
              << "node " << id << " could split at " << c;
        }
      }
    }
  }
}

}  // namespace
}  // namespace karl::index
