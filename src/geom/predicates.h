#ifndef GEOSIR_GEOM_PREDICATES_H_
#define GEOSIR_GEOM_PREDICATES_H_

#include "geom/point.h"
#include "geom/polyline.h"

namespace geosir::geom {

namespace internal {

/// Machine epsilon for rounding-error analysis: 2^-53 (half of
/// DBL_EPSILON, Shewchuk's convention).
constexpr double kMacheps = 1.1102230246251565e-16;
/// Shewchuk's orient2d stage-A relative error bound, (3 + 16 eps) eps.
constexpr double kCcwErrBoundA = (3.0 + 16.0 * kMacheps) * kMacheps;

/// Orientation's second stage: the exact sign of (b - a) x (c - a) by
/// full expansion arithmetic.
int OrientationExact(Point a, Point b, Point c);

}  // namespace internal

/// Sign of the orientation of the triple (a, b, c): +1 counterclockwise,
/// -1 clockwise, 0 exactly collinear. Adaptive-precision exact predicate
/// (Shewchuk two-stage): a filtered float evaluation handles the common
/// case, and expansion arithmetic decides the sign exactly whenever the
/// filter is inconclusive — there is no epsilon and no misclassification
/// for finite inputs. The filter is inline: point-in-triangle tests run
/// it several times per point on the range-search hot path.
inline int Orientation(Point a, Point b, Point c) {
  const double detleft = (b.x - a.x) * (c.y - a.y);
  const double detright = (b.y - a.y) * (c.x - a.x);
  const double det = detleft - detright;
  double detsum;
  if (detleft > 0.0) {
    if (detright <= 0.0) return det > 0.0 ? 1 : (det < 0.0 ? -1 : 0);
    detsum = detleft + detright;
  } else if (detleft < 0.0) {
    if (detright >= 0.0) return det > 0.0 ? 1 : (det < 0.0 ? -1 : 0);
    detsum = -detleft - detright;
  } else {
    return det > 0.0 ? 1 : (det < 0.0 ? -1 : 0);  // det == -detright, exact.
  }
  if (det >= internal::kCcwErrBoundA * detsum) return 1;
  if (-det >= internal::kCcwErrBoundA * detsum) return -1;
  return internal::OrientationExact(a, b, c);
}

/// Triangle::Contains, inline for callers that test many points (the
/// range-search leaves). Exact orientation signs: boundary points (sign
/// 0) count as inside, and sliver triangles cannot misclassify near-edge
/// points.
inline bool TriangleContains(const Triangle& t, Point p) {
  const int d1 = Orientation(t.a, t.b, p);
  const int d2 = Orientation(t.b, t.c, p);
  const int d3 = Orientation(t.c, t.a, p);
  // All three zero: the corners are collinear (or coincide) and p is on
  // their line; the triangle is then the segment (or point) spanned by
  // the corners, i.e. its bounding box along that line.
  if (d1 == 0 && d2 == 0 && d3 == 0) return t.Bounds().Contains(p);
  const bool has_neg = d1 < 0 || d2 < 0 || d3 < 0;
  const bool has_pos = d1 > 0 || d2 > 0 || d3 > 0;
  return !(has_neg && has_pos);
}

/// True if point p lies on segment s (within eps).
bool OnSegment(Point p, const Segment& s, double eps = 1e-12);

/// True if the closed segments intersect (including endpoint touches and
/// collinear overlap).
bool SegmentsIntersect(const Segment& s1, const Segment& s2,
                       double eps = 1e-12);

/// True if the open interiors of the segments cross properly (shared
/// endpoints and touches do not count).
bool SegmentsCrossProperly(const Segment& s1, const Segment& s2,
                           double eps = 1e-12);

/// If the segments intersect in a single point, returns it.
util::Result<Point> SegmentIntersectionPoint(const Segment& s1,
                                             const Segment& s2,
                                             double eps = 1e-12);

/// Intersection point of two infinite lines through (s1.a, s1.b) and
/// (s2.a, s2.b); fails when (nearly) parallel.
util::Result<Point> LineIntersectionPoint(const Segment& s1,
                                          const Segment& s2,
                                          double eps = 1e-12);

/// Point-in-polygon by the crossing-number rule; boundary points count as
/// inside. `poly` must be closed.
bool PolygonContainsPoint(const Polyline& poly, Point p, double eps = 1e-12);

/// True if closed polygon `outer` contains closed polygon `inner`
/// entirely (all vertices inside and no boundary crossing).
bool PolygonContainsPolygon(const Polyline& outer, const Polyline& inner,
                            double eps = 1e-12);

/// True if the boundaries of the two closed polygons cross, or one
/// contains a vertex of the other while neither fully contains the other —
/// i.e. the paper's "overlap" relation (proper boundary overlap, not
/// containment).
bool PolygonsOverlap(const Polyline& a, const Polyline& b, double eps = 1e-12);

/// True if the two closed polygons share no point at all.
bool PolygonsDisjoint(const Polyline& a, const Polyline& b,
                      double eps = 1e-12);

}  // namespace geosir::geom

#endif  // GEOSIR_GEOM_PREDICATES_H_
