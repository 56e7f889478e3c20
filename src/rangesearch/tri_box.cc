#include "rangesearch/tri_box.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace geosir::rangesearch {

using geom::BoundingBox;
using geom::Point;
using geom::Triangle;

bool TriangleContainsBox(const Triangle& t, const BoundingBox& box) {
  if (box.empty()) return false;
  return t.Contains(Point{box.min_x, box.min_y}) &&
         t.Contains(Point{box.max_x, box.min_y}) &&
         t.Contains(Point{box.max_x, box.max_y}) &&
         t.Contains(Point{box.min_x, box.max_y});
}

bool TriangleIntersectsBox(const Triangle& t, const BoundingBox& box) {
  return PreparedTriangle(t).Intersects(box);
}

PreparedTriangle::PreparedTriangle(const Triangle& t)
    : t_(t), bounds_(t.Bounds()) {
  // A point of the triangle's bounding box projects onto `axis` with an
  // absolute rounding error below eps * m (two roundings of
  // |x * axis.x| + |y * axis.y| <= m, plus gradual underflow), and the
  // triangle's interval end carries the same error. A box inside the
  // triangle lies inside its bounding box, and its exact projection lies
  // inside the triangle's exact interval for any axis, so twice that
  // bound (doubled again for margin) can never decline a contained box.
  const double max_x = std::max(std::abs(bounds_.min_x), std::abs(bounds_.max_x));
  const double max_y = std::max(std::abs(bounds_.min_y), std::abs(bounds_.max_y));
  const Point edges[3] = {t.b - t.a, t.c - t.b, t.a - t.c};
  for (const Point& e : edges) {
    const Point axis = e.Perp();
    if (axis.SquaredNorm() == 0.0) continue;
    const double pa = t.a.Dot(axis);
    const double pb = t.b.Dot(axis);
    const double pc = t.c.Dot(axis);
    const double m = max_x * std::abs(axis.x) + max_y * std::abs(axis.y);
    axis_[num_axes_] = axis;
    lo_[num_axes_] = std::min({pa, pb, pc});
    hi_[num_axes_] = std::max({pa, pb, pc});
    slack_[num_axes_] = 4.0 * std::numeric_limits<double>::epsilon() * m +
                        8.0 * std::numeric_limits<double>::denorm_min();
    ++num_axes_;
  }
}

}  // namespace geosir::rangesearch
