#include "index/ball_tree.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/math_util.h"

namespace karl::index {

util::Result<std::unique_ptr<BallTree>> BallTree::Build(
    const data::Matrix& points, std::span<const double> weights,
    size_t leaf_capacity) {
  if (points.empty()) {
    return util::Status::InvalidArgument(
        "cannot build ball-tree on empty data");
  }
  if (weights.size() != points.rows()) {
    return util::Status::InvalidArgument(
        "weight count " + std::to_string(weights.size()) +
        " does not match point count " + std::to_string(points.rows()));
  }
  if (leaf_capacity < 1) {
    return util::Status::InvalidArgument("leaf capacity must be >= 1");
  }
  std::unique_ptr<BallTree> tree(new BallTree());
  tree->BuildShared(points, weights, leaf_capacity);
  return tree;
}

size_t BallTree::Partition(const data::Matrix& input_points,
                           std::vector<size_t>& perm, size_t begin,
                           size_t end) {
  const size_t d = input_points.cols();

  // Farthest-pair heuristic: pivot A = farthest point from the centroid,
  // pivot B = farthest point from A; partition by nearer pivot.
  std::vector<double> centroid(d, 0.0);
  for (size_t i = begin; i < end; ++i) {
    const auto row = input_points.Row(perm[i]);
    for (size_t j = 0; j < d; ++j) centroid[j] += row[j];
  }
  const double inv_n = 1.0 / static_cast<double>(end - begin);
  for (auto& c : centroid) c *= inv_n;

  size_t pivot_a = begin;
  double best = -1.0;
  for (size_t i = begin; i < end; ++i) {
    const double sq =
        util::SquaredDistance(input_points.Row(perm[i]), centroid);
    if (sq > best) {
      best = sq;
      pivot_a = i;
    }
  }
  const std::vector<double> a(input_points.Row(perm[pivot_a]).begin(),
                              input_points.Row(perm[pivot_a]).end());
  size_t pivot_b = begin;
  best = -1.0;
  for (size_t i = begin; i < end; ++i) {
    const double sq = util::SquaredDistance(input_points.Row(perm[i]), a);
    if (sq > best) {
      best = sq;
      pivot_b = i;
    }
  }
  const std::vector<double> b(input_points.Row(perm[pivot_b]).begin(),
                              input_points.Row(perm[pivot_b]).end());

  if (best <= 0.0) return begin;  // All points identical: stay a leaf.

  // Stable two-way partition: nearer to A goes left.
  const auto nearer_a = [&](size_t original_index) {
    const auto row = input_points.Row(original_index);
    return util::SquaredDistance(row, a) <= util::SquaredDistance(row, b);
  };
  size_t mid = static_cast<size_t>(
      std::stable_partition(perm.begin() + begin, perm.begin() + end,
                            nearer_a) -
      perm.begin());

  // Both pivots exist, but ties can still empty one side; force a
  // median-by-pivot-distance split in that case.
  if (mid == begin || mid == end) {
    mid = begin + (end - begin) / 2;
    std::nth_element(perm.begin() + begin, perm.begin() + mid,
                     perm.begin() + end, [&](size_t x, size_t y) {
                       return util::SquaredDistance(input_points.Row(x), a) <
                              util::SquaredDistance(input_points.Row(y), a);
                     });
  }
  return mid;
}

util::Result<std::unique_ptr<BallTree>> BallTree::Attach(
    const TreeIndexView& view) {
  const size_t num = view.nodes.size();
  if (view.region_a.size() != num * view.cols ||
      view.region_b.size() != num) {
    return util::Status::InvalidArgument(
        "attach: ball-tree centre/radius arrays have " +
        std::to_string(view.region_a.size()) + "/" +
        std::to_string(view.region_b.size()) + " values, want " +
        std::to_string(num * view.cols) + "/" + std::to_string(num));
  }
  std::unique_ptr<BallTree> tree(new BallTree());
  KARL_RETURN_NOT_OK(tree->AttachShared(view));
  tree->region_a_ = view.region_a;
  tree->region_b_ = view.region_b;
  return tree;
}

void BallTree::ComputeRegions(const data::Matrix& points) {
  const size_t num = num_nodes();
  const size_t d = points.cols();
  owned_balls_.assign(num * d + num, 0.0);
  double* centers = owned_balls_.data();
  double* radii = centers + num * d;
  for (size_t id = 0; id < num; ++id) {
    const Node& nd = node(static_cast<NodeId>(id));
    const BoundingBall ball = BoundingBall::FitRange(points, nd.begin, nd.end);
    std::copy(ball.center().begin(), ball.center().end(), centers + id * d);
    radii[id] = ball.radius();
  }
  region_a_ = {centers, num * d};
  region_b_ = {radii, num};
}

}  // namespace karl::index
