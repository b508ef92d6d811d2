#include "index/ball_tree.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "index/row_ops.h"
#include "util/math_util.h"

namespace karl::index {
namespace {

// Adds rows rows[0, count) of `points` into `sums`, one row after the
// other.
template <typename Rows>
void SumRows(const Rows& points, const size_t* rows, size_t count,
             double* sums) {
  for (size_t i = 0; i < count; ++i) {
    row_ops::Add(points.Row(rows[i]).data(), points.cols, sums);
  }
}

}  // namespace

util::Result<std::unique_ptr<BallTree>> BallTree::Build(
    const data::Matrix& points, std::span<const double> weights,
    size_t leaf_capacity, std::span<const size_t> rows) {
  std::unique_ptr<BallTree> tree(new BallTree());
  KARL_RETURN_NOT_OK(
      tree->BuildShared(points, rows, weights, leaf_capacity, {}));
  return tree;
}

size_t BallTree::Partition(const BuildRows& input_points,
                           std::vector<size_t>& perm, size_t begin,
                           size_t end, PartitionScratch& scratch) {
  const size_t d = input_points.cols;

  // Farthest-pair heuristic: pivot A = farthest point from the centroid,
  // pivot B = farthest point from A; partition by nearer pivot.
  const std::span<double> centroid(scratch.dims.data(), d);
  std::fill(centroid.begin(), centroid.end(), 0.0);
  SumRows(input_points, perm.data() + begin, end - begin, centroid.data());
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
  const auto a = input_points.Row(perm[pivot_a]);
  // Each row's squared distance to A, kept for the split below.
  KeyedRow* keyed = scratch.rows.data();
  const size_t count = end - begin;
  size_t pivot_b = begin;
  best = -1.0;
  for (size_t i = 0; i < count; ++i) {
    const size_t row = perm[begin + i];
    const double sq = util::SquaredDistance(input_points.Row(row), a);
    keyed[i] = {sq, row};
    if (sq > best) {
      best = sq;
      pivot_b = begin + i;
    }
  }
  const auto b = input_points.Row(perm[pivot_b]);

  if (best <= 0.0) return begin;  // All points identical: stay a leaf.

  // Stable two-way partition: nearer to A goes left, in order, into
  // perm; the rest, in order, into the front of `keyed`, then after.
  size_t mid = begin;
  size_t far = 0;
  for (size_t i = 0; i < count; ++i) {
    const KeyedRow k = keyed[i];
    if (k.key <= util::SquaredDistance(input_points.Row(k.row), b)) {
      perm[mid++] = k.row;
    } else {
      keyed[far++].row = k.row;
    }
  }
  for (size_t i = 0; i < far; ++i) perm[mid + i] = keyed[i].row;

  // Both pivots exist, but ties can still empty one side; force a
  // median-by-pivot-distance split in that case. One side empty leaves
  // perm and `keyed` as they were.
  if (mid == begin || mid == end) {
    mid = begin + count / 2;
    std::nth_element(keyed, keyed + count / 2, keyed + count,
                     [](const KeyedRow& x, const KeyedRow& y) {
                       return x.key < y.key;
                     });
    for (size_t i = 0; i < count; ++i) perm[begin + i] = keyed[i].row;
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

void BallTree::ComputeRegions(const BuildRows& rows) {
  const size_t num = num_nodes();
  const size_t d = rows.cols;
  owned_balls_.assign(num * d + num, 0.0);
  double* centers = owned_balls_.data();
  double* radii = centers + num * d;
  // Every ball is centred at its node's centroid, summed over the node's
  // rows in order, with radius the farthest row from it: an exact cover,
  // not the minimal ball.
  for (size_t id = 0; id < num; ++id) {
    const Node& nd = node(static_cast<NodeId>(id));
    double* center = centers + id * d;
    for (size_t i = nd.begin; i < nd.end; ++i) {
      row_ops::Add(rows.Row(i).data(), d, center);
    }
    const double inv_n = 1.0 / static_cast<double>(nd.count());
    for (size_t j = 0; j < d; ++j) center[j] *= inv_n;
    double max_sq = 0.0;
    for (size_t i = nd.begin; i < nd.end; ++i) {
      const double* row = rows.Row(i).data();
      double sq = 0.0;
      for (size_t j = 0; j < d; ++j) {
        const double diff = row[j] - center[j];
        sq += diff * diff;
      }
      max_sq = std::max(max_sq, sq);
    }
    radii[id] = std::sqrt(max_sq);
  }
  region_a_ = {centers, num * d};
  region_b_ = {radii, num};
}

}  // namespace karl::index
