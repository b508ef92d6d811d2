// kd-tree index [Samet'06, §1.5] with bounding-rectangle node regions:
// splits on the widest dimension at the median, moved to the nearest
// SoA block boundary (a multiple of SoaLeafBlocks::kBlockPoints) once a
// node holds two blocks, so leaf ranges start on a block and a leaf
// scan reads no lanes of its neighbour (DESIGN.md §5 gives the rule and
// its exceptions, §14 the scan).

#ifndef KARL_INDEX_KD_TREE_H_
#define KARL_INDEX_KD_TREE_H_

#include <memory>

#include "index/tree_index.h"
#include "util/status.h"

namespace karl::index {

/// kd-tree over a weighted point set.
///
/// Node rectangles are kept as two packed corner arrays (lower and upper,
/// each num_nodes × d: region_data_a() / region_data_b()) rather than
/// per-node objects, so an attached tree can read them straight out of a
/// memory-mapped snapshot section.
class KdTree final : public TreeIndex {
 public:
  /// Builds a kd-tree. Fails on empty input or mismatched weight count.
  static util::Result<std::unique_ptr<KdTree>> Build(
      const data::Matrix& points, std::span<const double> weights,
      size_t leaf_capacity);

  /// Attaches over pre-built external storage (see TreeIndexView):
  /// region_a = packed lower corners, region_b = packed upper corners,
  /// each num_nodes × d. Nothing is copied.
  static util::Result<std::unique_ptr<KdTree>> Attach(
      const TreeIndexView& view);

 private:
  KdTree() : TreeIndex(IndexKind::kKdTree) {}

  size_t Partition(const data::Matrix& input_points,
                   std::vector<size_t>& perm, size_t begin, size_t end,
                   PartitionScratch& scratch) override;
  void ComputeRegions() override;

  // Owned backing (build path): lower corners then upper corners, the
  // region_a_ / region_b_ arrays (each num_nodes × d).
  std::vector<double> owned_corners_;
};

}  // namespace karl::index

#endif  // KARL_INDEX_KD_TREE_H_
