#ifndef GEOSIR_RANGESEARCH_KD_TREE_INDEX_H_
#define GEOSIR_RANGESEARCH_KD_TREE_INDEX_H_

#include <string>
#include <vector>

#include "rangesearch/simplex_index.h"

namespace geosir::rangesearch {

/// Static 2D kd-tree over the indexed points. Nodes carry their subtree's
/// bounding box and size so that fully covered subtrees are counted in
/// O(1) and reported in O(size). Triangle queries prune with an exact
/// triangle/box separating-axis test, prepared once per call. Worst-case
/// O(sqrt n + k) per rectangle query; the classic practical middle ground
/// between the grid and the range tree.
///
/// Nodes are stored in preorder (left subtree before right), a layout
/// fixed by the subtree sizes alone, so Build splits the subtrees below
/// the top levels in parallel on util::ThreadPool::Shared() and still
/// produces the serial build's node and point arrays. Queries visit the
/// nodes in that preorder, so a report sequence is ReportInRect(all)
/// filtered by the query.
class KdTreeIndex : public SimplexIndex {
 public:
  explicit KdTreeIndex(size_t leaf_size = 8)
      : leaf_size_(leaf_size > 0 ? leaf_size : 1) {}

  void Build(std::vector<IndexedPoint> points) override;
  size_t CountInTriangle(const geom::Triangle& t) const override;
  void ReportInTriangle(const geom::Triangle& t,
                        const Visitor& visit) const override;
  size_t CountInRect(const geom::BoundingBox& box) const override;
  void ReportInRect(const geom::BoundingBox& box,
                    const Visitor& visit) const override;
  std::string name() const override { return "kd-tree"; }
  size_t size() const override { return points_.size(); }

 private:
  struct Node {
    geom::BoundingBox bounds;
    uint32_t begin = 0;  // Point slice [begin, end) in points_.
    uint32_t end = 0;
    int32_t left = -1;   // Child node indices; -1 for leaves.
    int32_t right = -1;
  };

  /// A node whose slot and point slice are known but whose points are
  /// not yet split.
  struct BuildTask {
    int32_t id = 0;
    uint32_t begin = 0;
    uint32_t end = 0;
    int depth = 0;
  };

  void Split(const BuildTask& task, BuildTask children[2]);
  void BuildSubtree(const BuildTask& root);

  template <typename Classify, typename ContainsPoint>
  size_t Query(const Classify& classify, const ContainsPoint& contains,
               const Visitor* visit) const;

  size_t leaf_size_;
  std::vector<IndexedPoint> points_;  // Reordered during build.
  std::vector<Node> nodes_;
  int32_t root_ = -1;
};

}  // namespace geosir::rangesearch

#endif  // GEOSIR_RANGESEARCH_KD_TREE_INDEX_H_
