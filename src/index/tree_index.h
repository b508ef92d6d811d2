// Common interface and storage for KARL's hierarchical indexes (kd-tree,
// ball-tree).
//
// A TreeIndex holds the point set and its weights in tree-permuted order
// (each node's points are contiguous), stored once in hi/lo planes
// (core/simd/soa_block.h), and per-node *weighted aggregates*
// that let KARL's linear bound functions be evaluated in O(d) per node
// (paper Lemma 2 / Lemma 5):
//
//   weight_sum            w_P  = Σ w_i
//   weighted_point_sum    a_P  = Σ w_i · p_i        (length-d vector)
//   weighted_sqnorm_sum   b_P  = Σ w_i · ||p_i||²
//
// Concrete trees supply the split rule and fit each node's region
// (a box or a ball); the region arrays, and the distance and
// inner-product bounds over them, are shared.
//
// Frame: a kd tree may store its points in an orthonormal frame of its
// own, x' = Tᵀx, with Tᵀ a product of Householder reflections
// (DESIGN.md §17). Every array above then holds reflected coordinates,
// and a query must be reflected the same way before it meets them;
// core::Evaluator does that once per query. frame() is empty for the
// identity, which is what ball trees and trees outside
// [2, kMaxFrameDims] dimensions always keep.
//
// Storage duality: a tree is either *built* (BuildShared — it owns every
// array) or *attached* (AttachShared — node, point block, permutation,
// aggregate and geometry arrays are non-owning views into caller-provided
// memory, typically an mmap(2)-ed snapshot; see registry/snapshot.h).
// All read accessors go through spans that point at whichever storage is
// active, so the query path is identical for both, and an attach copies
// nothing: it validates the arrays and points at them.

#ifndef KARL_INDEX_TREE_INDEX_H_
#define KARL_INDEX_TREE_INDEX_H_

#include <bit>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "core/simd/soa_block.h"
#include "data/matrix.h"
#include "util/status.h"

namespace karl::index {

/// Identifier of a node inside a TreeIndex; the root is node 0.
using NodeId = int32_t;
inline constexpr NodeId kInvalidNode = -1;

/// Which concrete index structure to build.
enum class IndexKind {
  kKdTree,
  kBallTree,
};

/// Human-readable name ("kd-tree" / "ball-tree").
std::string_view IndexKindToString(IndexKind kind);

/// Widest point set a tree is built in a fitted frame for; the reflected
/// query then fits in a stack buffer of this many values.
inline constexpr size_t kMaxFrameDims = 64;

/// The frame a tree stores its points in: x' = Tᵀx.
struct Frame {
  /// Tᵀ = H_{k−1}⋯H_0, H_r = I − 2·v_r·v_rᵀ: the k unit vectors v_r, k×d
  /// row-major. Points and queries alike are reflected with them
  /// (core::simd::ReflectRows, 2·k·d multiply-adds per row). Empty means
  /// identity.
  std::vector<double> reflectors;
  /// The fit's reading that decided the frame: the sample's summed
  /// per-axis extent in the principal frame over that in the data
  /// frame. 1 when no fit ran.
  double extent_ratio = 1.0;
};

/// The finiteness test the builder folds into its reads: the top bit of
/// NonFiniteBits(v) is set iff `v` is NaN or ±inf (adding one to an
/// all-ones exponent field carries into the sign bit). ORing it over
/// values and testing the top bit checks them all without a branch per
/// value.
inline uint64_t NonFiniteBits(double v) {
  constexpr uint64_t kExponent = 0x7ff0000000000000ull;
  constexpr uint64_t kExponentOne = 0x0010000000000000ull;
  return (std::bit_cast<uint64_t>(v) & kExponent) + kExponentOne;
}

/// OK iff every value of `points` is finite; otherwise InvalidArgument
/// naming the first non-finite value's row and column.
util::Status CheckFinitePoints(const data::Matrix& points);

struct TreeIndexView;

/// Abstract hierarchical index over a weighted point set.
class TreeIndex {
 public:
  /// Tree node: children plus the contiguous range of permuted points it
  /// covers. Leaves have left == right == kInvalidNode.
  ///
  /// The layout is part of the snapshot format (registry/snapshot.h):
  /// 20 bytes, little-endian, two zero padding bytes after `depth`.
  struct Node {
    NodeId left = kInvalidNode;
    NodeId right = kInvalidNode;
    uint32_t begin = 0;  ///< First permuted point index (inclusive).
    uint32_t end = 0;    ///< Last permuted point index (exclusive).
    uint16_t depth = 0;  ///< Root has depth 0.
    uint16_t pad = 0;    ///< Always zero (reserved, keeps layout explicit).

    bool is_leaf() const { return left == kInvalidNode; }
    size_t count() const { return end - begin; }
  };
  static_assert(sizeof(Node) == 20, "Node layout is a serialized format");

  virtual ~TreeIndex() = default;

  TreeIndex(const TreeIndex&) = delete;
  TreeIndex& operator=(const TreeIndex&) = delete;

  /// Root node id (always 0 for a non-empty tree).
  NodeId root() const { return 0; }

  /// Number of nodes.
  size_t num_nodes() const { return nodes_.size(); }

  /// Node accessor.
  const Node& node(NodeId id) const { return nodes_[id]; }

  /// All nodes, in build order (children after parents).
  std::span<const Node> nodes() const { return nodes_; }

  /// Deepest node depth (root = 0).
  size_t max_depth() const { return max_depth_; }

  /// Leaf capacity the tree was built with.
  size_t leaf_capacity() const { return leaf_capacity_; }

  /// The permuted points and weights in hi/lo planes — the one copy of
  /// the point set, read by every leaf kernel tier. Node ranges index
  /// into it directly: row i is At(i, ·) / WeightAt(i).
  const core::simd::SoaLeafBlocks& points() const { return soa_; }

  /// Same object as points(), under the name it had when it was a
  /// mirror; kept for callers outside the library.
  const core::simd::SoaLeafBlocks& soa() const { return soa_; }

  /// Maps permuted position -> original row index in the input matrix.
  std::span<const size_t> original_indices() const { return perm_; }

  /// w_P of the node (Σ w_i).
  double weight_sum(NodeId id) const { return weight_sums_[id]; }

  /// b_P of the node (Σ w_i ||p_i||²).
  double weighted_sqnorm_sum(NodeId id) const { return sqnorm_sums_[id]; }

  /// a_P of the node (Σ w_i p_i), as a length-d span.
  std::span<const double> weighted_point_sum(NodeId id) const {
    const size_t d = soa_.dims();
    return point_sums_.subspan(static_cast<size_t>(id) * d, d);
  }

  /// Whole per-node aggregate arrays (snapshot serialization).
  std::span<const double> node_weight_sums() const { return weight_sums_; }
  std::span<const double> node_sqnorm_sums() const { return sqnorm_sums_; }
  std::span<const double> node_point_sums() const { return point_sums_; }

  /// Flat per-node region geometry, read by the bound functions and the
  /// snapshot writer. The meaning is kind-specific: kd-tree → (box lower
  /// corners num_nodes×d, box upper corners num_nodes×d); ball-tree →
  /// (ball centres num_nodes×d, ball radii num_nodes).
  std::span<const double> region_data_a() const { return region_a_; }
  std::span<const double> region_data_b() const { return region_b_; }

  /// Squared-distance bounds of the node region from `q`:
  /// mindist(q,R)² and maxdist(q,R)².
  void DistanceBounds(NodeId id, std::span<const double> q, double* min_sq,
                      double* max_sq) const;

  /// Inner-product bounds of the node region: [min q·p, max q·p].
  void InnerProductBounds(NodeId id, std::span<const double> q,
                          double* ip_min, double* ip_max) const;

  /// The concrete index kind.
  IndexKind kind() const { return kind_; }

  /// The reflectors of the frame the points are stored in (k×d
  /// row-major, see Frame::reflectors); empty for the identity.
  std::span<const double> frame() const { return frame_; }

  /// Frame::extent_ratio of the frame (1 when no fit ran).
  double frame_extent_ratio() const { return frame_extent_ratio_; }

  /// Total bytes of index data reachable from this tree (diagnostics).
  /// For an attached tree this counts the mapped sections it references,
  /// not heap — mapped pages are resident memory all the same.
  size_t MemoryUsageBytes() const;

 protected:
  explicit TreeIndex(IndexKind kind) : kind_(kind) {}

  /// Shared build driver: writes every input row, reflected into `frame`
  /// (copied for the identity), into the storage that becomes the
  /// planes, checking each value, storing those below 2^-126 in
  /// magnitude as ±0 and folding the root's extents as it goes;
  /// recursively partitions the permutation over those rows using the
  /// subclass's Partition hook; permutes the rows into tree order in
  /// place; computes the per-node aggregates and the subclass's
  /// ComputeRegions from them; and splits each 16-row group into its
  /// planes. No other n×d buffer is allocated. Fails with
  /// InvalidArgument on empty input, a weight count that is not the point
  /// count, a zero leaf capacity, reflectors that are not k×d, a
  /// non-finite weight or coordinate (naming its row and column): a
  /// non-finite value would build a tree whose snapshot can never attach,
  /// or a weight or coordinate (in the tree's frame) of magnitude 2^128
  /// or more, which the planes cannot hold (naming value, row and
  /// column).
  /// `input_rows` picks the rows of `input_points` to index, in order
  /// (input_weights[i] is row input_rows[i]'s); empty means every row.
  util::Status BuildShared(const data::Matrix& input_points,
                           std::span<const size_t> input_rows,
                           std::span<const double> input_weights,
                           size_t leaf_capacity, Frame frame);

  /// Shared attach driver: adopts pre-built arrays (typically views into
  /// an mmap-ed snapshot section — see registry/snapshot.h) without
  /// copying anything. Validates structural invariants (array lengths,
  /// root coverage, child ranges and depths, the recorded max depth, perm
  /// a permutation of the rows, zero pad lanes, finite aggregates and
  /// region geometry) and fails rather than adopt an inconsistent tree.
  /// Region geometry stays with the subclass (see KdTree::Attach /
  /// BallTree::Attach).
  util::Status AttachShared(const TreeIndexView& view);

  /// The rows a build partitions: row-major, in the tree's frame, in
  /// input order (the order of `input_rows`, if given).
  struct BuildRows {
    const double* data = nullptr;
    size_t rows = 0;
    size_t cols = 0;

    std::span<const double> Row(size_t i) const {
      return {data + i * cols, cols};
    }
    double operator()(size_t i, size_t j) const { return data[i * cols + j]; }
  };

  /// A row of the input and the key it is selected by.
  struct KeyedRow {
    double key;
    size_t row;
  };

  /// Work arrays every Partition call reuses: BuildShared sizes them at
  /// the root and frees them with the build, so a split allocates
  /// nothing.
  struct PartitionScratch {
    std::vector<KeyedRow> rows;  ///< One entry per input row.
    std::vector<double> dims;    ///< kPartitionDimArrays × cols values.
    /// Per-dimension minima then maxima of every row, folded by the pass
    /// that wrote the rows.
    std::vector<double> root_extents;
  };
  static constexpr size_t kPartitionDimArrays = 2;

  /// Subclass hook: reorders perm[begin, end) (indices into `rows`) and
  /// returns the split position `mid` in (begin, end) so children cover
  /// [begin, mid) and [mid, end), or `begin` to keep the node a leaf.
  /// Called only when end - begin > leaf capacity, on finite rows.
  virtual size_t Partition(const BuildRows& rows, std::vector<size_t>& perm,
                           size_t begin, size_t end,
                           PartitionScratch& scratch) = 0;

  /// Subclass hook: compute each node's region geometry from its
  /// contiguous range of `rows`, the tree's rows in tree order, still
  /// row-major (row i is the one the blocks will hold as row i).
  virtual void ComputeRegions(const BuildRows& rows) = 0;

  // Region geometry (see region_data_a()), pointed at owned or attached
  // storage by the subclass's ComputeRegions / Attach.
  std::span<const double> region_a_;
  std::span<const double> region_b_;

 private:
  // The per-node aggregates from the rows in tree order and their
  // weights.
  void ComputeSummaries(const BuildRows& rows,
                        std::span<const double> weights);

  // Owned storage; empty for an attached tree.
  std::vector<Node> owned_nodes_;
  std::vector<size_t> owned_perm_;
  std::vector<double> owned_weight_sums_;
  std::vector<double> owned_sqnorm_sums_;
  std::vector<double> owned_point_sums_;  // num_nodes x d, flattened.

  // Active storage: spans over the owned vectors (built tree) or over
  // caller-provided memory (attached tree). All read accessors go here.
  std::span<const Node> nodes_;
  std::span<const size_t> perm_;
  std::span<const double> weight_sums_;
  std::span<const double> sqnorm_sums_;
  std::span<const double> point_sums_;

  std::vector<double> owned_frame_;
  std::span<const double> frame_;  // Empty: identity.
  double frame_extent_ratio_ = 1.0;

  core::simd::SoaLeafBlocks soa_;  // Points and weights, built or attached.
  IndexKind kind_;
  size_t leaf_capacity_ = 0;
  size_t max_depth_ = 0;
};

/// Non-owning description of a fully materialised tree, used to attach a
/// TreeIndex over external (e.g. mmap-ed) memory. All spans must stay
/// valid for the lifetime of the attached tree.
struct TreeIndexView {
  std::span<const TreeIndex::Node> nodes;
  size_t rows = 0;
  size_t cols = 0;
  /// The hi/lo planes of points and weights,
  /// SoaLeafBlocks::PlaneWords(rows, cols) words (soa_block.h).
  std::span<const uint32_t> planes;
  std::span<const size_t> perm;         ///< rows.
  std::span<const double> weight_sums;  ///< num_nodes.
  std::span<const double> sqnorm_sums;  ///< num_nodes.
  std::span<const double> point_sums;   ///< num_nodes × cols.
  std::span<const double> region_a;     ///< kd: lower; ball: centres.
  std::span<const double> region_b;     ///< kd: upper; ball: radii.
  size_t leaf_capacity = 0;
  size_t max_depth = 0;
  /// The reflectors of the tree's frame, k × cols, or empty for the
  /// identity.
  std::span<const double> frame;
  double frame_extent_ratio = 1.0;
};

}  // namespace karl::index

#endif  // KARL_INDEX_TREE_INDEX_H_
