// Ball-tree index [Uhlmann'91, Moore'00]: nodes are bounding balls, split
// by the farthest-pair heuristic.

#ifndef KARL_INDEX_BALL_TREE_H_
#define KARL_INDEX_BALL_TREE_H_

#include <memory>

#include "index/tree_index.h"
#include "util/status.h"

namespace karl::index {

/// Ball-tree over a weighted point set.
///
/// Node balls are kept as a packed centre array (num_nodes × d) plus a
/// radius array (num_nodes), region_data_a() / region_data_b(), rather
/// than per-node objects, so an attached tree can read them straight out
/// of a memory-mapped snapshot section.
class BallTree final : public TreeIndex {
 public:
  /// Builds a ball-tree. Fails on empty input or mismatched weight count.
  static util::Result<std::unique_ptr<BallTree>> Build(
      const data::Matrix& points, std::span<const double> weights,
      size_t leaf_capacity);

  /// Attaches over pre-built external storage (see TreeIndexView):
  /// region_a = packed centres (num_nodes × d), region_b = radii
  /// (num_nodes). Nothing is copied.
  static util::Result<std::unique_ptr<BallTree>> Attach(
      const TreeIndexView& view);

 private:
  BallTree() : TreeIndex(IndexKind::kBallTree) {}

  size_t Partition(const data::Matrix& input_points,
                   std::vector<size_t>& perm, size_t begin, size_t end,
                   PartitionScratch& scratch) override;
  void ComputeRegions() override;

  // Owned backing (build path): centres (num_nodes × d) then radii
  // (num_nodes), the region_a_ / region_b_ arrays.
  std::vector<double> owned_balls_;
};

}  // namespace karl::index

#endif  // KARL_INDEX_BALL_TREE_H_
