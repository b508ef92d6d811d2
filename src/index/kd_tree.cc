#include "index/kd_tree.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "core/simd/soa_block.h"

namespace karl::index {
namespace {

// The rank at which a node of [begin, end) splits: the median, moved to
// the nearest multiple of kBlockPoints strictly inside the node, so each
// child range starts on a SoA block and a leaf scan reads only its own
// blocks (DESIGN.md §5). Where the median split would give two leaves,
// the boundary on the other side is taken if the nearest one would
// leave a child over `capacity`; if neither fits (capacity not a
// multiple of kBlockPoints), the median stays, so alignment never adds
// a split. Nodes under two blocks keep the median.
size_t SplitRank(size_t begin, size_t end, size_t capacity) {
  constexpr size_t kB = core::simd::SoaLeafBlocks::kBlockPoints;
  const size_t median = begin + (end - begin) / 2;
  if (end - begin < 2 * kB) return median;
  // The block boundaries below and above the exact median
  // (begin + end) / 2, nearest first; a tie takes the lower one.
  const size_t below = median / kB * kB;
  size_t boundary[2] = {below, below + kB};
  if (2 * (below + kB) - (begin + end) < (begin + end) - 2 * below) {
    std::swap(boundary[0], boundary[1]);
  }
  const auto inside = [&](size_t c) { return begin < c && c < end; };
  const auto fits = [&](size_t c) {
    return c - begin <= capacity && end - c <= capacity;
  };
  if (!fits(median)) return inside(boundary[0]) ? boundary[0] : boundary[1];
  for (const size_t c : boundary) {
    if (inside(c) && fits(c)) return c;
  }
  return median;
}

}  // namespace

util::Result<std::unique_ptr<KdTree>> KdTree::Build(
    const data::Matrix& points, std::span<const double> weights,
    size_t leaf_capacity) {
  if (points.empty()) {
    return util::Status::InvalidArgument("cannot build kd-tree on empty data");
  }
  if (weights.size() != points.rows()) {
    return util::Status::InvalidArgument(
        "weight count " + std::to_string(weights.size()) +
        " does not match point count " + std::to_string(points.rows()));
  }
  if (leaf_capacity < 1) {
    return util::Status::InvalidArgument("leaf capacity must be >= 1");
  }
  std::unique_ptr<KdTree> tree(new KdTree());
  tree->BuildShared(points, weights, leaf_capacity);
  return tree;
}

size_t KdTree::Partition(const data::Matrix& input_points,
                         std::vector<size_t>& perm, size_t begin,
                         size_t end) {
  // Split dimension: widest extent over the node's points.
  const size_t d = input_points.cols();
  size_t split_dim = 0;
  double best_extent = -1.0;
  for (size_t j = 0; j < d; ++j) {
    double lo = std::numeric_limits<double>::infinity();
    double hi = -lo;
    for (size_t i = begin; i < end; ++i) {
      const double v = input_points(perm[i], j);
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
    if (hi - lo > best_extent) {
      best_extent = hi - lo;
      split_dim = j;
    }
  }
  if (best_extent <= 0.0) return begin;  // All points identical: stay a leaf.

  const size_t mid = SplitRank(begin, end, leaf_capacity());
  std::nth_element(perm.begin() + begin, perm.begin() + mid,
                   perm.begin() + end, [&](size_t a, size_t b) {
                     return input_points(a, split_dim) <
                            input_points(b, split_dim);
                   });
  return mid;
}

util::Result<std::unique_ptr<KdTree>> KdTree::Attach(
    const TreeIndexView& view) {
  const size_t want = view.nodes.size() * view.cols;
  if (view.region_a.size() != want || view.region_b.size() != want) {
    return util::Status::InvalidArgument(
        "attach: kd-tree corner arrays have " +
        std::to_string(view.region_a.size()) + "/" +
        std::to_string(view.region_b.size()) + " values, want " +
        std::to_string(want));
  }
  std::unique_ptr<KdTree> tree(new KdTree());
  KARL_RETURN_NOT_OK(tree->AttachShared(view));
  tree->region_a_ = view.region_a;
  tree->region_b_ = view.region_b;
  return tree;
}

void KdTree::ComputeRegions(const data::Matrix& points) {
  const size_t num = num_nodes();
  const size_t d = points.cols();
  owned_corners_.assign(2 * num * d, 0.0);
  double* lo = owned_corners_.data();
  double* up = lo + num * d;
  for (size_t id = 0; id < num; ++id) {
    const Node& nd = node(static_cast<NodeId>(id));
    const BoundingBox box = BoundingBox::FitRange(points, nd.begin, nd.end);
    std::copy(box.lower().begin(), box.lower().end(), lo + id * d);
    std::copy(box.upper().begin(), box.upper().end(), up + id * d);
  }
  region_a_ = {lo, num * d};
  region_b_ = {up, num * d};
}

}  // namespace karl::index
