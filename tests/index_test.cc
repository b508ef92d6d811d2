// Unit tests for the index layer: bounding geometry, kd-tree, ball-tree,
// and the per-node weighted aggregates KARL's bounds consume.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include "core/simd/soa_block.h"
#include "data/synthetic.h"
#include "index/ball_tree.h"
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

// Single-node kd-tree over `pts`: its root region is the box over all of
// `pts`, and its DistanceBounds runs the serving geometry
// (simd::BoxGeometry).
std::unique_ptr<KdTree> OneBoxTree(const data::Matrix& pts) {
  const std::vector<double> weights(pts.rows(), 1.0);
  return KdTree::Build(pts, weights, pts.rows()).ValueOrDie();
}

// Single-node ball-tree over `pts`: its root region is the ball over all
// of `pts`.
std::unique_ptr<BallTree> OneBallTree(const data::Matrix& pts) {
  const std::vector<double> weights(pts.rows(), 1.0);
  return BallTree::Build(pts, weights, pts.rows()).ValueOrDie();
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

TEST(BoundingBoxTest, RootBoxIsTheTightBox) {
  const auto pts = TestPoints();
  const auto tree = OneBoxTree(pts);
  const auto lower = tree->region_data_a();
  const auto upper = tree->region_data_b();
  ASSERT_EQ(lower.size(), pts.cols());
  ASSERT_EQ(upper.size(), pts.cols());
  for (size_t j = 0; j < pts.cols(); ++j) {
    double lo = pts(0, j), hi = pts(0, j);
    for (size_t i = 1; i < pts.rows(); ++i) {
      lo = std::min(lo, pts(i, j));
      hi = std::max(hi, pts(i, j));
    }
    EXPECT_EQ(lower[j], lo) << j;
    EXPECT_EQ(upper[j], hi) << j;
  }
  EXPECT_DOUBLE_EQ(lower[0], 0.0);
  EXPECT_DOUBLE_EQ(upper[0], 3.0);
  EXPECT_DOUBLE_EQ(lower[1], 0.0);
  EXPECT_DOUBLE_EQ(upper[1], 3.0);
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
  const std::vector<double> lower{1.0}, upper{3.0}, q{-2.0};
  double lo = 0.0, hi = 0.0;
  BoundingBox::InnerProductBoundsFlat(lower, upper, q, &lo, &hi);
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
  const auto tree = OneBallTree(pts);
  const auto center = tree->region_data_a();
  const double radius = tree->region_data_b()[0];
  // Centred at the centroid, radius the farthest point: brute force.
  std::vector<double> centroid(pts.cols(), 0.0);
  for (size_t i = 0; i < pts.rows(); ++i) {
    for (size_t j = 0; j < pts.cols(); ++j) centroid[j] += pts(i, j);
  }
  double farthest = 0.0;
  for (auto& c : centroid) c /= static_cast<double>(pts.rows());
  for (size_t i = 0; i < pts.rows(); ++i) {
    farthest = std::max(farthest, util::SquaredDistance(pts.Row(i), centroid));
  }
  for (size_t j = 0; j < pts.cols(); ++j) {
    EXPECT_DOUBLE_EQ(center[j], centroid[j]) << j;
  }
  EXPECT_DOUBLE_EQ(radius, std::sqrt(farthest));
  for (size_t i = 0; i < pts.rows(); ++i) {
    const double dist = std::sqrt(util::SquaredDistance(pts.Row(i), center));
    EXPECT_LE(dist, radius + 1e-12);
  }
}

TEST(BoundingBallTest, SinglePointHasZeroRadius) {
  const auto tree = OneBallTree(data::Matrix(1, 2, {3.0, 4.0}));
  EXPECT_DOUBLE_EQ(tree->region_data_b()[0], 0.0);
  const std::vector<double> q{0.0, 0.0};
  double min_sq = 0.0, max_sq = 0.0;
  tree->DistanceBounds(tree->root(), q, &min_sq, &max_sq);
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
  const auto tree = OneBallTree(pts);
  double min_sq = 0.0, max_sq = 0.0;
  tree->DistanceBounds(tree->root(), tree->region_data_a(), &min_sq,
                       &max_sq);
  EXPECT_DOUBLE_EQ(min_sq, 0.0);
}

// Both trees refuse a non-finite coordinate or weight, naming where it
// is: such a tree answers as if the point were infinitely far away, and
// its snapshot can never attach. The root's split pass finds a bad
// coordinate; a root that stays a leaf (capacity 64) is scanned.
TEST(TreeBuildTest, RejectsNonFiniteInputNamingRowAndColumn) {
  util::Rng rng(6);
  const data::Matrix clean = data::SampleUniform(40, 4, -1.0, 1.0, rng);
  for (const double bad : {std::nan(""), HUGE_VAL, -HUGE_VAL}) {
    for (const size_t capacity : {size_t{4}, size_t{64}}) {
      data::Matrix pts = clean;
      pts(13, 3) = bad;
      std::vector<double> weights(clean.rows(), 1.0);
      const auto kd = KdTree::Build(pts, weights, capacity);
      const auto ball = BallTree::Build(pts, weights, capacity);
      for (const util::Status& st : {kd.status(), ball.status()}) {
        EXPECT_EQ(st.code(), util::StatusCode::kInvalidArgument);
        EXPECT_NE(st.message().find("at row 13, column 3"),
                  std::string::npos)
            << st.message();
      }
      weights[22] = bad;
      const auto kd_w = KdTree::Build(clean, weights, capacity);
      const auto ball_w = BallTree::Build(clean, weights, capacity);
      for (const util::Status& st : {kd_w.status(), ball_w.status()}) {
        EXPECT_EQ(st.code(), util::StatusCode::kInvalidArgument);
        EXPECT_NE(st.message().find("weight"), std::string::npos);
        EXPECT_NE(st.message().find("at row 22"), std::string::npos)
            << st.message();
      }
    }
  }
}

// Each kd box is exactly what one std::min / std::max scan of the node's
// rows, in tree order, gives, signed zeros included: the builder fits
// only the leaves and merges inner boxes from their children.
TEST(TreeBuildTest, KdBoxesMatchAScanOfTheirRowsBitForBit) {
  util::Rng rng(8);
  const double values[] = {-0.0, 0.0, -1.0, 1.0, 0.5};
  data::Matrix pts(301, 3);
  for (size_t i = 0; i < pts.rows(); ++i) {
    for (size_t j = 0; j < pts.cols(); ++j) {
      pts(i, j) = values[rng.UniformInt(5)];
    }
  }
  const std::vector<double> weights(pts.rows(), 1.0);
  for (const size_t capacity : {size_t{1}, size_t{3}, size_t{16}}) {
    const auto tree = KdTree::Build(pts, weights, capacity).ValueOrDie();
    const size_t d = pts.cols();
    for (size_t id = 0; id < tree->num_nodes(); ++id) {
      const auto& nd = tree->node(static_cast<NodeId>(id));
      for (size_t j = 0; j < d; ++j) {
        double lo = std::numeric_limits<double>::infinity();
        double hi = -lo;
        for (uint32_t i = nd.begin; i < nd.end; ++i) {
          lo = std::min(lo, tree->points().At(i, j));
          hi = std::max(hi, tree->points().At(i, j));
        }
        const double got_lo = tree->region_data_a()[id * d + j];
        const double got_hi = tree->region_data_b()[id * d + j];
        EXPECT_EQ(std::bit_cast<uint64_t>(got_lo), std::bit_cast<uint64_t>(lo))
            << "capacity " << capacity << " node " << id << " dim " << j;
        EXPECT_EQ(std::bit_cast<uint64_t>(got_hi), std::bit_cast<uint64_t>(hi))
            << "capacity " << capacity << " node " << id << " dim " << j;
      }
    }
  }
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
