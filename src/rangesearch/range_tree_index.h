#ifndef GEOSIR_RANGESEARCH_RANGE_TREE_INDEX_H_
#define GEOSIR_RANGESEARCH_RANGE_TREE_INDEX_H_

#include <string>
#include <vector>

#include "rangesearch/simplex_index.h"

namespace geosir::rangesearch {

/// Two-dimensional layered range tree with fractional cascading.
///
/// The primary tree is a static balanced BST over the points sorted by x.
/// Every internal node stores its subtree's points sorted by y, and — the
/// fractional-cascading part — for each position in that list, the
/// positions of the smallest y-successor in each child's list. A
/// rectangle query then performs a single O(log n) binary search at the
/// root and walks to the O(log n) canonical nodes following the cascade
/// pointers in O(1) per node, giving O(log n + k) reporting and
/// O(log n) counting.
///
/// This is the structure the paper leans on for its poly-logarithmic
/// query bound: triangle queries run a rectangle query on the triangle's
/// bounding box and filter the output with the exact containment test
/// (envelope-difference triangles are thin and axis-diverse, so the
/// filter rejects a bounded fraction).
class RangeTreeIndex : public SimplexIndex {
 public:
  explicit RangeTreeIndex(size_t leaf_size = 4) : leaf_size_(leaf_size) {}

  void Build(std::vector<IndexedPoint> points) override;
  size_t CountInTriangle(const geom::Triangle& t) const override;
  void ReportInTriangle(const geom::Triangle& t,
                        const Visitor& visit) const override;
  size_t CountInRect(const geom::BoundingBox& box) const override;
  void ReportInRect(const geom::BoundingBox& box,
                    const Visitor& visit) const override;
  std::string name() const override { return "range-tree-fc"; }
  size_t size() const override { return points_.size(); }

  /// Total number of cascaded list entries (space diagnostic).
  size_t TotalListEntries() const { return ys_.size(); }

 private:
  struct Node {
    uint32_t begin = 0;     // Point slice [begin, end) in x-sorted points_.
    uint32_t end = 0;
    double split_x = 0.0;   // Max x in left child (route left if x <= split).
    int32_t left = -1;
    int32_t right = -1;
    uint32_t list_off = 0;  // Offset of this node's y-sorted list (+1
                            // sentinel) in the pooled arrays.
  };

  int32_t BuildNode(uint32_t begin, uint32_t end,
                    std::vector<uint32_t> by_y);

  /// Reports/counts entries [ylo, yhi) of `node`'s y-list.
  void EmitRange(const Node& n, uint32_t ylo, uint32_t yhi,
                 const Visitor* visit, size_t* count, StatsTally* tally) const;

  /// Core walk shared by counting and reporting.
  void QueryRect(const geom::BoundingBox& box, const Visitor* visit,
                 size_t* count) const;

  size_t leaf_size_;
  std::vector<IndexedPoint> points_;  // Sorted by x (ties by y).
  std::vector<Node> nodes_;
  int32_t root_ = -1;

  // Pooled per-node y-lists. Entry i of a node's list of length L lives at
  // [list_off + i]; index list_off + L is the sentinel used by cascade
  // pointers. `ys_`/`pts_` have no sentinel slot semantics beyond bounds.
  std::vector<double> ys_;        // y-coordinate of each list entry.
  std::vector<uint32_t> pts_;     // Index into points_.
  std::vector<uint32_t> lcasc_;   // Cascade into the left child's list.
  std::vector<uint32_t> rcasc_;   // Cascade into the right child's list.
};

}  // namespace geosir::rangesearch

#endif  // GEOSIR_RANGESEARCH_RANGE_TREE_INDEX_H_
