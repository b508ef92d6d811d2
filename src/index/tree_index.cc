#include "index/tree_index.h"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>
#include <limits>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "core/simd/simd.h"
#include "index/bounding_ball.h"
#include "index/bounding_box.h"
#include "index/principal_frame.h"
#include "index/row_ops.h"
#include "util/check.h"

namespace karl::index {

std::string_view IndexKindToString(IndexKind kind) {
  switch (kind) {
    case IndexKind::kKdTree:
      return "kd-tree";
    case IndexKind::kBallTree:
      return "ball-tree";
  }
  return "unknown";
}

namespace {

// Index of the first non-finite value in `values`, or values.size().
// The all-finite case runs without a branch per value, ORing
// NonFiniteBits over eight independent lanes.
size_t FirstNonFinite(std::span<const double> values) {
  constexpr size_t kLanes = 8;
  uint64_t bits[kLanes] = {};
  size_t i = 0;
  for (; i + kLanes <= values.size(); i += kLanes) {
    for (size_t k = 0; k < kLanes; ++k) {
      bits[k] |= NonFiniteBits(values[i + k]);
    }
  }
  for (; i < values.size(); ++i) bits[0] |= NonFiniteBits(values[i]);
  uint64_t any = 0;
  for (const uint64_t b : bits) any |= b;
  if ((any >> 63) == 0) return values.size();
  return static_cast<size_t>(
      std::find_if(values.begin(), values.end(),
                   [](double v) { return !std::isfinite(v); }) -
      values.begin());
}

// `v` in the shortest form that reads back to it ("1e+39", not
// std::to_string's 40 digits).
std::string FormatValue(double v) {
  char buf[32];
  return std::string(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
}

// OK iff `perm` is a permutation of [0, perm.size()): in range and no
// repeats.
util::Status CheckPermutation(std::span<const size_t> perm) {
  const size_t n = perm.size();
  std::vector<uint64_t> seen((n + 63) / 64);
  for (size_t i = 0; i < n; ++i) {
    const size_t p = perm[i];
    if (p >= n) {
      return util::Status::InvalidArgument(
          "attach: permutation entry out of range");
    }
    const uint64_t bit = uint64_t{1} << (p % 64);
    if ((seen[p / 64] & bit) != 0) {
      return util::Status::InvalidArgument(
          "attach: permutation entry " + std::to_string(p) + " repeats");
    }
    seen[p / 64] |= bit;
  }
  return util::Status::OK();
}

}  // namespace

util::Status CheckFinitePoints(const data::Matrix& points) {
  const auto values = points.Flat();
  const size_t bad = FirstNonFinite(values);
  if (bad == values.size()) return util::Status::OK();
  return util::Status::InvalidArgument(
      "non-finite value " + std::to_string(values[bad]) + " at row " +
      std::to_string(bad / points.cols()) + ", column " +
      std::to_string(bad % points.cols()));
}

namespace {

// Rows written per step of the build's first pass: the rows just written
// are folded while they are still in L1.
constexpr size_t kFillChunkRows = 64;

// Stores every value of `count` row-major rows of `d` values below 2^-126
// in magnitude as ±0, as the planes will (core/simd/soa_block.h), and
// folds the rows into the per-dimension minima `lo` and maxima `hi`, four
// rows at a time. Returns the index of the first value that is not
// finite or that the planes cannot hold, or count·d.
size_t FoldRows(double* rows, size_t count, size_t d, double* lo,
                double* hi) {
  const std::span<double> values(rows, count * d);
  // One branch-free, read-only pass finds what needs writing (flushes
  // are rare), in the top bits of two ORs over eight lanes: mag + c
  // carries into bit 63 iff mag >= 2^128's bits (or NaN's), and
  // (mag − m) & ~(mag − 1) has it iff 0 < mag < 2^-126's bits.
  constexpr uint64_t kLimit = std::bit_cast<uint64_t>(core::simd::kPlaneLimit);
  constexpr uint64_t kMin =
      std::bit_cast<uint64_t>(core::simd::kPlaneMinNormal);
  constexpr uint64_t kAbs = ~(uint64_t{1} << 63);
  constexpr size_t kLanes = 8;
  uint64_t bad[kLanes] = {};
  uint64_t tiny[kLanes] = {};
  const auto fold = [&](size_t k, double v) {
    const uint64_t mag = std::bit_cast<uint64_t>(v) & kAbs;
    bad[k] |= mag + ((uint64_t{1} << 63) - kLimit);
    tiny[k] |= (mag - kMin) & ~(mag - 1);
  };
  size_t at = 0;
  for (; at + kLanes <= values.size(); at += kLanes) {
    for (size_t k = 0; k < kLanes; ++k) fold(k, values[at + k]);
  }
  for (; at < values.size(); ++at) fold(0, values[at]);
  uint64_t any_bad = 0;
  uint64_t any_tiny = 0;
  for (size_t k = 0; k < kLanes; ++k) {
    any_bad |= bad[k];
    any_tiny |= tiny[k];
  }
  if ((any_tiny >> 63) != 0) {
    for (double& v : values) v = core::simd::FlushToPlane(v);
  }
  if ((any_bad >> 63) != 0) {
    return static_cast<size_t>(
        std::find_if(rows, rows + count * d,
                     [](double v) {
                       return !(std::abs(v) < core::simd::kPlaneLimit);
                     }) -
        rows);
  }
  size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    const double* four[4] = {rows + i * d, rows + (i + 1) * d,
                             rows + (i + 2) * d, rows + (i + 3) * d};
    row_ops::FoldMinMax4(four, d, lo, hi);
  }
  for (; i < count; ++i) row_ops::FoldMinMax(rows + i * d, d, lo, hi);
  return count * d;
}

// Moves row perm[i] of the `cols`-wide row-major `rows` to row i for
// every i, in place: each cycle of the permutation is walked once with
// one row held aside.
void PermuteRowsInPlace(std::span<const size_t> perm, size_t cols,
                        double* rows) {
  const size_t n = perm.size();
  std::vector<uint64_t> done((n + 63) / 64);
  std::vector<double> held(cols);
  const auto row = [&](size_t i) { return rows + i * cols; };
  for (size_t start = 0; start < n; ++start) {
    if ((done[start / 64] >> (start % 64) & 1) != 0 || perm[start] == start) {
      continue;
    }
    std::copy(row(start), row(start) + cols, held.begin());
    size_t to = start;
    for (;;) {
      done[to / 64] |= uint64_t{1} << (to % 64);
      const size_t from = perm[to];
      if (from == start) {
        std::copy(held.begin(), held.end(), row(to));
        break;
      }
      std::copy(row(from), row(from) + cols, row(to));
      to = from;
    }
  }
}

}  // namespace

util::Status TreeIndex::BuildShared(const data::Matrix& input_points,
                                    std::span<const size_t> input_rows,
                                    std::span<const double> input_weights,
                                    size_t leaf_capacity, Frame frame) {
  const size_t n = input_rows.empty() ? input_points.rows() : input_rows.size();
  const size_t d = input_points.cols();
  if (n == 0 || d == 0) {
    return util::Status::InvalidArgument(
        "cannot build " + std::string(IndexKindToString(kind_)) +
        " on empty data");
  }
  if (input_weights.size() != n) {
    return util::Status::InvalidArgument(
        "weight count " + std::to_string(input_weights.size()) +
        " does not match point count " + std::to_string(n));
  }
  for (const size_t row : input_rows) {
    if (row >= input_points.rows()) {
      return util::Status::InvalidArgument(
          "row " + std::to_string(row) + " of " +
          std::to_string(input_points.rows()));
    }
  }
  if (leaf_capacity < 1) {
    return util::Status::InvalidArgument("leaf capacity must be >= 1");
  }
  const bool framed = !frame.reflectors.empty();
  if (framed && (d > kMaxFrameDims || frame.reflectors.size() % d != 0)) {
    return util::Status::InvalidArgument(
        "a frame of " + std::to_string(frame.reflectors.size()) +
        " reflector values for " + std::to_string(d) +
        " dimensions (want k×d, d <= " + std::to_string(kMaxFrameDims) + ")");
  }
  const size_t bad_weight = FirstNonFinite(input_weights);
  if (bad_weight < input_weights.size()) {
    return util::Status::InvalidArgument(
        "non-finite weight " + std::to_string(input_weights[bad_weight]) +
        " at row " + std::to_string(bad_weight));
  }
  for (size_t i = 0; i < n; ++i) {
    if (!(std::abs(input_weights[i]) < core::simd::kPlaneLimit)) {
      return util::Status::InvalidArgument(
          "weight " + FormatValue(input_weights[i]) + " at row " +
          std::to_string(i) + " is too large to store (|w| must be below "
          "2^128)");
    }
  }

  // Phase 1: every row, in the tree's frame, into the storage that
  // becomes the planes, row-major for now. The pass checks every value
  // it writes, flushes the tiny ones and folds the root's extents for
  // the first split.
  core::simd::BlockStorage coords(
      core::simd::SoaLeafBlocks::StorageDoubles(n, d));
  PartitionScratch scratch;
  scratch.root_extents.assign(d, std::numeric_limits<double>::infinity());
  scratch.root_extents.resize(2 * d, -std::numeric_limits<double>::infinity());
  double* lo = scratch.root_extents.data();
  double* hi = lo + d;
  // A subset's rows are gathered a chunk at a time, so that only the
  // blocks ever hold all of them.
  std::vector<double> gathered(input_rows.empty() ? 0 : kFillChunkRows * d);
  for (size_t first = 0; first < n; first += kFillChunkRows) {
    const size_t count = std::min(kFillChunkRows, n - first);
    const double* in = nullptr;
    if (input_rows.empty()) {
      in = input_points.Row(first).data();
    } else {
      for (size_t i = 0; i < count; ++i) {
        const auto row = input_points.Row(input_rows[first + i]);
        std::copy(row.begin(), row.end(), gathered.begin() + i * d);
      }
      in = gathered.data();
    }
    double* out = coords.data() + first * d;
    if (framed) {
      core::simd::ReflectRows(frame.reflectors, d, in, count, out);
    } else {
      std::copy(in, in + count * d, out);
    }
    const size_t bad = FoldRows(out, count, d, lo, hi);
    if (bad == count * d) continue;
    // A reflection keeps a non-finite input value non-finite somewhere
    // in its row; name the input's.
    KARL_RETURN_NOT_OK(CheckFinitePoints(input_points));
    const size_t row =
        input_rows.empty() ? first + bad / d : input_rows[first + bad / d];
    if (std::isfinite(out[bad])) {
      return util::Status::InvalidArgument(
          "value " + FormatValue(out[bad]) + " at row " +
          std::to_string(row) + ", column " + std::to_string(bad % d) +
          (framed ? " of the principal frame" : "") +
          " is too large to store (|x| must be below 2^128)");
    }
    return util::Status::InvalidArgument(
        "row " + std::to_string(row) +
        " overflows when reflected into the principal frame");
  }

  leaf_capacity_ = leaf_capacity;
  owned_perm_.resize(n);
  std::iota(owned_perm_.begin(), owned_perm_.end(), size_t{0});

  // Phase 2: recursive structure build over the permutation. Explicit
  // stack to stay robust on deep trees (leaf capacity 1, skewed splits).
  owned_nodes_.clear();
  struct Pending {
    NodeId id;
    size_t begin, end;
  };
  std::vector<Pending> stack;
  owned_nodes_.push_back(Node{kInvalidNode, kInvalidNode, 0,
                              static_cast<uint32_t>(n), 0});
  stack.push_back({0, 0, n});
  max_depth_ = 0;
  const BuildRows rows{coords.data(), n, d};
  if (n > leaf_capacity) {
    scratch.rows.resize(n);
    scratch.dims.resize(kPartitionDimArrays * d);
  }

  while (!stack.empty()) {
    const Pending pending = stack.back();
    stack.pop_back();
    Node& nd = owned_nodes_[pending.id];
    if (nd.count() <= leaf_capacity) continue;

    const size_t mid =
        Partition(rows, owned_perm_, pending.begin, pending.end, scratch);
    // A degenerate split (all points identical) keeps the node a leaf.
    if (mid <= pending.begin || mid >= pending.end) continue;

    const uint16_t child_depth =
        static_cast<uint16_t>(owned_nodes_[pending.id].depth + 1);
    const NodeId left_id = static_cast<NodeId>(owned_nodes_.size());
    owned_nodes_.push_back(Node{kInvalidNode, kInvalidNode,
                                static_cast<uint32_t>(pending.begin),
                                static_cast<uint32_t>(mid), child_depth});
    const NodeId right_id = static_cast<NodeId>(owned_nodes_.size());
    owned_nodes_.push_back(Node{kInvalidNode, kInvalidNode,
                                static_cast<uint32_t>(mid),
                                static_cast<uint32_t>(pending.end),
                                child_depth});
    owned_nodes_[pending.id].left = left_id;
    owned_nodes_[pending.id].right = right_id;
    max_depth_ = std::max(max_depth_, static_cast<size_t>(child_depth));
    stack.push_back({left_id, pending.begin, mid});
    stack.push_back({right_id, mid, pending.end});
  }

  scratch = {};  // Freed before the rows are moved.

  // Phase 3: the rows into tree order in place, with the weights
  // gathered beside, flushed as the planes will hold them; the
  // aggregates and the subclass's regions from them while they are still
  // row-major; then each 16-row group into its planes — the tree's only
  // copy of the points.
  PermuteRowsInPlace(owned_perm_, d, coords.data());
  std::vector<double> weights(n);
  for (size_t i = 0; i < n; ++i) {
    weights[i] = core::simd::FlushToPlane(input_weights[owned_perm_[i]]);
  }
  const BuildRows ordered{coords.data(), n, d};
  ComputeSummaries(ordered, weights);
  // The read-side spans point at the owned storage from here on (every
  // vector has reached its final size); the regions read nodes().
  nodes_ = owned_nodes_;
  perm_ = owned_perm_;
  weight_sums_ = owned_weight_sums_;
  sqnorm_sums_ = owned_sqnorm_sums_;
  point_sums_ = owned_point_sums_;
  owned_frame_ = std::move(frame.reflectors);
  frame_ = owned_frame_;
  frame_extent_ratio_ = frame.extent_ratio;
  ComputeRegions(ordered);
  soa_.BuildFromRows(n, d, std::move(coords), weights);
  return util::Status::OK();
}

util::Status TreeIndex::AttachShared(const TreeIndexView& view) {
  const size_t n = view.rows;
  const size_t d = view.cols;
  const size_t num = view.nodes.size();
  if (num == 0 || n == 0 || d == 0) {
    return util::Status::InvalidArgument(
        "attach: empty tree (nodes=" + std::to_string(num) +
        ", rows=" + std::to_string(n) + ", cols=" + std::to_string(d) + ")");
  }
  if (view.leaf_capacity < 1) {
    return util::Status::InvalidArgument("attach: leaf capacity must be >= 1");
  }
  if (view.perm.size() != n) {
    return util::Status::InvalidArgument(
        "attach: perm length does not match row count");
  }
  if (view.weight_sums.size() != num || view.sqnorm_sums.size() != num ||
      view.point_sums.size() != num * d) {
    return util::Status::InvalidArgument(
        "attach: aggregate array length does not match node count");
  }
  // Structural sweep: the root covers every point at depth 0, every
  // internal node's children appear after it, tile its range exactly and
  // sit one level deeper, the recorded max depth is the deepest node's,
  // and perm is a permutation of the rows. This is what the traversal,
  // the level cap and the bottom-up aggregate contract rely on; a
  // snapshot that passed the checksum but violates these is rejected
  // rather than trusted.
  const auto& nodes = view.nodes;
  if (nodes[0].begin != 0 || nodes[0].end != n) {
    return util::Status::InvalidArgument("attach: root does not cover all points");
  }
  if (nodes[0].depth != 0) {
    return util::Status::InvalidArgument("attach: root has depth " +
                                         std::to_string(nodes[0].depth));
  }
  size_t deepest = 0;
  for (size_t id = 0; id < num; ++id) {
    const TreeIndex::Node& nd = nodes[id];
    if (nd.begin > nd.end || nd.end > n) {
      return util::Status::InvalidArgument(
          "attach: node " + std::to_string(id) + " has bad point range");
    }
    const bool has_left = nd.left != kInvalidNode;
    const bool has_right = nd.right != kInvalidNode;
    if (has_left != has_right) {
      return util::Status::InvalidArgument(
          "attach: node " + std::to_string(id) + " has exactly one child");
    }
    if (has_left) {
      if (nd.left <= static_cast<NodeId>(id) ||
          nd.right <= static_cast<NodeId>(id) ||
          static_cast<size_t>(nd.left) >= num ||
          static_cast<size_t>(nd.right) >= num) {
        return util::Status::InvalidArgument(
            "attach: node " + std::to_string(id) + " has bad child ids");
      }
      const TreeIndex::Node& l = nodes[nd.left];
      const TreeIndex::Node& r = nodes[nd.right];
      if (l.begin != nd.begin || l.end != r.begin || r.end != nd.end) {
        return util::Status::InvalidArgument(
            "attach: children of node " + std::to_string(id) +
            " do not tile its range");
      }
      if (l.depth != nd.depth + 1 || r.depth != nd.depth + 1) {
        return util::Status::InvalidArgument(
            "attach: a child of node " + std::to_string(id) +
            " is not at depth " + std::to_string(nd.depth + 1));
      }
    }
    deepest = std::max(deepest, static_cast<size_t>(nd.depth));
  }
  if (view.max_depth != deepest) {
    return util::Status::InvalidArgument(
        "attach: max_depth " + std::to_string(view.max_depth) +
        " differs from the deepest node's depth " + std::to_string(deepest));
  }
  // Non-finite aggregates or geometry would turn every bound through the
  // node into NaN rather than fail.
  const std::pair<const char*, std::span<const double>> finite_arrays[] = {
      {"weight_sums", view.weight_sums}, {"sqnorm_sums", view.sqnorm_sums},
      {"point_sums", view.point_sums},   {"region_a", view.region_a},
      {"region_b", view.region_b}};
  for (const auto& [name, values] : finite_arrays) {
    const size_t bad = FirstNonFinite(values);
    if (bad < values.size()) {
      return util::Status::InvalidArgument(
          std::string("attach: non-finite value in ") + name + "[" +
          std::to_string(bad) + "]");
    }
  }
  KARL_RETURN_NOT_OK(CheckPermutation(view.perm));
  if (!view.frame.empty()) {
    if (kind_ != IndexKind::kKdTree) {
      return util::Status::InvalidArgument(
          "attach: a frame on a " + std::string(IndexKindToString(kind_)));
    }
    if (d < 2 || d > kMaxFrameDims || view.frame.size() % d != 0 ||
        view.frame.size() > d * d) {
      return util::Status::InvalidArgument(
          "attach: a frame of " + std::to_string(view.frame.size()) +
          " values at d = " + std::to_string(d) + " (a frame is k×d, 1 <= k "
          "<= d, 2 <= d <= " + std::to_string(kMaxFrameDims) + ")");
    }
    // Reflections through unit vectors compose to an orthonormal map, so
    // each vector's norm is all there is to check.
    for (size_t r = 0; r < view.frame.size() / d; ++r) {
      const double error = FrameReflectorNormError(view.frame.subspan(r * d, d));
      if (!(error <= FrameReflectorNormTolerance(d))) {
        return util::Status::InvalidArgument(
            "attach: frame reflector " + std::to_string(r) +
            " is not a unit vector (|‖v‖² − 1| = " + std::to_string(error) +
            ")");
      }
    }
  }
  if (!std::isfinite(view.frame_extent_ratio) ||
      view.frame_extent_ratio <= 0.0) {
    return util::Status::InvalidArgument(
        "attach: frame extent ratio " +
        std::to_string(view.frame_extent_ratio) + " is not positive");
  }

  const util::Status planes = soa_.Attach(n, d, view.planes);
  if (!planes.ok()) {
    return util::Status::InvalidArgument("attach: " + planes.message());
  }
  leaf_capacity_ = view.leaf_capacity;
  max_depth_ = view.max_depth;
  nodes_ = view.nodes;
  perm_ = view.perm;
  weight_sums_ = view.weight_sums;
  sqnorm_sums_ = view.sqnorm_sums;
  point_sums_ = view.point_sums;
  frame_ = view.frame;
  frame_extent_ratio_ = view.frame_extent_ratio;
  return util::Status::OK();
}

void TreeIndex::ComputeSummaries(const BuildRows& rows,
                                 std::span<const double> weights) {
  const size_t d = rows.cols;
  const size_t num = owned_nodes_.size();
  owned_weight_sums_.assign(num, 0.0);
  owned_sqnorm_sums_.assign(num, 0.0);
  owned_point_sums_.assign(num * d, 0.0);

  // Bottom-up: children appear after parents in the node array, so a
  // reverse pass can merge child aggregates into parents. Leaves are
  // computed directly.
  for (size_t idx = num; idx-- > 0;) {
    const Node& nd = owned_nodes_[idx];
    double* sums = owned_point_sums_.data() + idx * d;
    if (nd.is_leaf()) {
      double w_sum = 0.0;
      double b_sum = 0.0;
      // Row by row, in the order util::SquaredNorm sums a row.
      for (size_t i = nd.begin; i < nd.end; ++i) {
        const double w = weights[i];
        const double* row = rows.Row(i).data();
        double sq = 0.0;
        for (size_t j = 0; j < d; ++j) sq += row[j] * row[j];
        w_sum += w;
        b_sum += w * sq;
        row_ops::AddScaled(w, row, d, sums);
      }
      owned_weight_sums_[idx] = w_sum;
      owned_sqnorm_sums_[idx] = b_sum;
    } else {
      owned_weight_sums_[idx] =
          owned_weight_sums_[nd.left] + owned_weight_sums_[nd.right];
      owned_sqnorm_sums_[idx] =
          owned_sqnorm_sums_[nd.left] + owned_sqnorm_sums_[nd.right];
      const double* left =
          owned_point_sums_.data() + static_cast<size_t>(nd.left) * d;
      const double* right =
          owned_point_sums_.data() + static_cast<size_t>(nd.right) * d;
      for (size_t j = 0; j < d; ++j) sums[j] = left[j] + right[j];
    }
  }
}

void TreeIndex::DistanceBounds(NodeId id, std::span<const double> q,
                               double* min_sq, double* max_sq) const {
  const size_t d = soa_.dims();
  const size_t off = static_cast<size_t>(id) * d;
  if (kind_ == IndexKind::kKdTree) {
    // The one box-distance pass; its q·a_P is not needed here.
    const core::simd::NodeGeometry g = core::simd::BoxGeometry(
        region_a_.subspan(off, d), region_b_.subspan(off, d),
        weighted_point_sum(id), q);
    *min_sq = g.min_sq;
    *max_sq = g.max_sq;
  } else {
    BoundingBall::DistanceBoundsFlat(region_a_.subspan(off, d),
                                     region_b_[id], q, min_sq, max_sq);
  }
}

void TreeIndex::InnerProductBounds(NodeId id, std::span<const double> q,
                                   double* ip_min, double* ip_max) const {
  const size_t d = soa_.dims();
  const size_t off = static_cast<size_t>(id) * d;
  if (kind_ == IndexKind::kKdTree) {
    BoundingBox::InnerProductBoundsFlat(region_a_.subspan(off, d),
                                        region_b_.subspan(off, d), q, ip_min,
                                        ip_max);
  } else {
    BoundingBall::InnerProductBoundsFlat(region_a_.subspan(off, d),
                                         region_b_[id], q, ip_min, ip_max);
  }
}

size_t TreeIndex::MemoryUsageBytes() const {
  return nodes_.size() * sizeof(Node) +
         (weight_sums_.size() + sqnorm_sums_.size() + point_sums_.size() +
          region_a_.size() + region_b_.size() + frame_.size()) *
             sizeof(double) +
         perm_.size() * sizeof(size_t) + soa_.MemoryUsageBytes();
}

}  // namespace karl::index
