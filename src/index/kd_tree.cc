#include "index/kd_tree.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <utility>

#include "core/simd/soa_block.h"
#include "index/row_ops.h"

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

// Asks the cache for every line of a row ahead of its read. A hint only.
void PrefetchRow(std::span<const double> row) {
  constexpr size_t kDoublesPerLine = 8;  // A 64-byte cache line.
  for (size_t j = 0; j < row.size(); j += kDoublesPerLine) {
    __builtin_prefetch(row.data() + j);
  }
  if (!row.empty()) __builtin_prefetch(&row.back());
}

// Folds rows rows[0, count) of `points` into the per-dimension minima
// `lo` and maxima `hi`, reading each row once, four at a time. The
// extents only choose the split dimension, so which of two equal zeros
// they keep does not matter.
template <typename Rows>
void FoldExtents(const Rows& points, const size_t* rows, size_t count,
                 double* lo, double* hi) {
  constexpr size_t kAhead = 8;  // Rows prefetched ahead of the fold.
  const size_t d = points.cols;
  size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    for (size_t r = i + kAhead; r < std::min(i + 4 + kAhead, count); ++r) {
      PrefetchRow(points.Row(rows[r]));
    }
    const double* four[4] = {
        points.Row(rows[i]).data(), points.Row(rows[i + 1]).data(),
        points.Row(rows[i + 2]).data(), points.Row(rows[i + 3]).data()};
    row_ops::FoldMinMax4(four, d, lo, hi);
  }
  for (; i < count; ++i) {
    row_ops::FoldMinMax(points.Row(rows[i]).data(), d, lo, hi);
  }
}

}  // namespace

util::Result<std::unique_ptr<KdTree>> KdTree::Build(
    const data::Matrix& points, std::span<const double> weights,
    size_t leaf_capacity, Frame frame, std::span<const size_t> rows) {
  std::unique_ptr<KdTree> tree(new KdTree());
  KARL_RETURN_NOT_OK(tree->BuildShared(points, rows, weights, leaf_capacity,
                                       std::move(frame)));
  return tree;
}

size_t KdTree::Partition(const BuildRows& input_rows,
                         std::vector<size_t>& perm, size_t begin, size_t end,
                         PartitionScratch& scratch) {
  // Split dimension: widest extent over the node's points, all d
  // extents from one read of each row; the root's came with the rows.
  const size_t d = input_rows.cols;
  const double* lo = scratch.root_extents.data();
  const double* hi = lo + d;
  if (end - begin < input_rows.rows) {
    double* node_lo = scratch.dims.data();
    double* node_hi = node_lo + d;
    std::fill(node_lo, node_hi, std::numeric_limits<double>::infinity());
    std::fill(node_hi, node_hi + d, -std::numeric_limits<double>::infinity());
    FoldExtents(input_rows, perm.data() + begin, end - begin, node_lo,
                node_hi);
    lo = node_lo;
    hi = node_hi;
  }
  size_t split_dim = 0;
  double best_extent = -1.0;
  for (size_t j = 0; j < d; ++j) {
    if (hi[j] - lo[j] > best_extent) {
      best_extent = hi[j] - lo[j];
      split_dim = j;
    }
  }
  if (best_extent <= 0.0) return begin;  // All points identical: stay a leaf.

  // Select on (key, row) pairs, so a comparison reads no input row.
  const size_t mid = SplitRank(begin, end, leaf_capacity());
  KeyedRow* keyed = scratch.rows.data();
  const size_t count = end - begin;
  for (size_t i = 0; i < count; ++i) {
    const size_t row = perm[begin + i];
    keyed[i] = {input_rows(row, split_dim), row};
  }
  std::nth_element(keyed, keyed + (mid - begin), keyed + count,
                   [](const KeyedRow& a, const KeyedRow& b) {
                     return a.key < b.key;
                   });
  for (size_t i = 0; i < count; ++i) perm[begin + i] = keyed[i].row;
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

void KdTree::ComputeRegions(const BuildRows& rows) {
  const size_t num = num_nodes();
  const size_t d = rows.cols;
  owned_corners_.assign(2 * num * d, 0.0);
  double* lo = owned_corners_.data();
  double* up = lo + num * d;
  // Leaves are fitted from their rows; an inner box is its children's,
  // merged left first. Both give what one scan of the node's rows in
  // order gives: std::min and std::max keep the first of equal values,
  // so even a signed zero comes out the same.
  for (size_t id = num; id-- > 0;) {
    const Node& nd = node(static_cast<NodeId>(id));
    double* l = lo + id * d;
    double* u = up + id * d;
    if (nd.is_leaf()) {
      std::fill(l, l + d, std::numeric_limits<double>::infinity());
      std::fill(u, u + d, -std::numeric_limits<double>::infinity());
      size_t i = nd.begin;
      for (; i + 4 <= nd.end; i += 4) {
        const double* four[4] = {rows.Row(i).data(), rows.Row(i + 1).data(),
                                 rows.Row(i + 2).data(),
                                 rows.Row(i + 3).data()};
        row_ops::FoldMinMax4(four, d, l, u);
      }
      for (; i < nd.end; ++i) row_ops::FoldMinMax(rows.Row(i).data(), d, l, u);
    } else {
      const size_t left = static_cast<size_t>(nd.left) * d;
      const size_t right = static_cast<size_t>(nd.right) * d;
      for (size_t j = 0; j < d; ++j) {
        l[j] = std::min(lo[left + j], lo[right + j]);
        u[j] = std::max(up[left + j], up[right + j]);
      }
    }
  }
  region_a_ = {lo, num * d};
  region_b_ = {up, num * d};
}

}  // namespace karl::index
