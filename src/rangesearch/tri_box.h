#ifndef GEOSIR_RANGESEARCH_TRI_BOX_H_
#define GEOSIR_RANGESEARCH_TRI_BOX_H_

#include "geom/point.h"

namespace geosir::rangesearch {

/// True if the triangle contains all four corners of the box (so every
/// point of the box is inside the triangle).
bool TriangleContainsBox(const geom::Triangle& t, const geom::BoundingBox& box);

/// True if the triangle and the box share at least one point. Exact
/// separating-axis test over the box axes and the three edge normals.
bool TriangleIntersectsBox(const geom::Triangle& t,
                           const geom::BoundingBox& box);

/// A triangle prepared for many box tests. Its bounding box, its
/// non-degenerate edge-normal axes and its projection interval on each
/// are computed once, with the same expressions TriangleIntersectsBox
/// evaluates per box; a box is projected from its sign-selected corners
/// (round-to-nearest multiply and add are monotone, so that is the
/// four-corner min/max bit for bit). Classify therefore makes exactly
/// the decisions of TriangleIntersectsBox + TriangleContainsBox.
class PreparedTriangle {
 public:
  enum class Overlap { kDisjoint, kPartial, kContained };

  explicit PreparedTriangle(const geom::Triangle& t);

  const geom::BoundingBox& bounds() const { return bounds_; }

  /// TriangleIntersectsBox(t, box) for the prepared triangle t.
  bool Intersects(const geom::BoundingBox& box) const {
    return Test</*kClassify=*/false>(box) != Overlap::kDisjoint;
  }

  /// kDisjoint iff !TriangleIntersectsBox(t, box); otherwise kContained
  /// iff TriangleContainsBox(t, box). The exact
  /// four-corner test runs only for boxes that pass a projection
  /// prefilter: inside the triangle's bounding box and, on every axis,
  /// inside the triangle's interval widened by `slack_`. The slack
  /// bounds the rounding of both projections, so the prefilter never
  /// declines a box the exact test accepts.
  Overlap Classify(const geom::BoundingBox& box) const {
    return Test</*kClassify=*/true>(box);
  }

 private:
  template <bool kClassify>
  Overlap Test(const geom::BoundingBox& box) const {
    if (!bounds_.Intersects(box)) return Overlap::kDisjoint;
    bool inside = kClassify && box.min_x >= bounds_.min_x &&
                  box.max_x <= bounds_.max_x && box.min_y >= bounds_.min_y &&
                  box.max_y <= bounds_.max_y;
    for (int k = 0; k < num_axes_; ++k) {
      const geom::Point n = axis_[k];
      const double blo = geom::Point{n.x >= 0.0 ? box.min_x : box.max_x,
                                     n.y >= 0.0 ? box.min_y : box.max_y}
                             .Dot(n);
      const double bhi = geom::Point{n.x >= 0.0 ? box.max_x : box.min_x,
                                     n.y >= 0.0 ? box.max_y : box.min_y}
                             .Dot(n);
      if (hi_[k] < blo || bhi < lo_[k]) return Overlap::kDisjoint;
      inside = inside && blo >= lo_[k] - slack_[k] && bhi <= hi_[k] + slack_[k];
    }
    return inside && TriangleContainsBox(t_, box) ? Overlap::kContained
                                                  : Overlap::kPartial;
  }

  geom::Triangle t_;
  geom::BoundingBox bounds_;
  int num_axes_ = 0;
  geom::Point axis_[3];
  double lo_[3] = {};
  double hi_[3] = {};
  double slack_[3] = {};
};

}  // namespace geosir::rangesearch

#endif  // GEOSIR_RANGESEARCH_TRI_BOX_H_
