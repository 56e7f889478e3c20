#include "geom/predicates.h"

#include <algorithm>
#include <cmath>

namespace geosir::geom {

namespace {

bool BoxesOverlap(const Segment& s1, const Segment& s2, double eps) {
  return std::min(s1.a.x, s1.b.x) <= std::max(s2.a.x, s2.b.x) + eps &&
         std::min(s2.a.x, s2.b.x) <= std::max(s1.a.x, s1.b.x) + eps &&
         std::min(s1.a.y, s1.b.y) <= std::max(s2.a.y, s2.b.y) + eps &&
         std::min(s2.a.y, s2.b.y) <= std::max(s1.a.y, s1.b.y) + eps;
}

// ---------------------------------------------------------------------------
// Adaptive-precision exact orientation (Shewchuk-style).
//
// Stage 1 (inline in predicates.h) evaluates the 2x2 determinant in
// plain floating point and certifies the sign with Shewchuk's orient2d
// stage-A error bound: the computed value can differ from the true
// determinant by at most kCcwErrBoundA * (|detleft| + |detright|), so any
// larger magnitude has a provably correct sign. Only the rare
// inconclusive triples (nearly or exactly collinear) fall through to
// stage 2, which computes the determinant *exactly* as a multi-term
// floating-point expansion:
// expanding (b-a) x (c-a) cancels the a.x*a.y terms, leaving six
// products; each is split into an exact (head, tail) pair with an FMA
// two-product, and the twelve components are summed with two-sum
// expansion arithmetic. The sign of a nonoverlapping expansion is the
// sign of its largest-magnitude component, so the result is the
// mathematically exact sign for every finite input whose products do not
// overflow (coordinates below ~1e150, far beyond validated shapes).
// ---------------------------------------------------------------------------

/// Exact product: a * b == *head + *tail, |tail| <= ulp(head)/2.
inline void TwoProduct(double a, double b, double* head, double* tail) {
  *head = a * b;
  *tail = std::fma(a, b, -*head);
}

/// Exact sum: a + b == *head + *tail (Knuth's branchless two-sum).
inline void TwoSum(double a, double b, double* head, double* tail) {
  const double s = a + b;
  const double bv = s - a;
  const double av = s - bv;
  *tail = (a - av) + (b - bv);
  *head = s;
}

/// Adds `value` to the nonoverlapping expansion e[0..*n) in place
/// (Shewchuk's GROW-EXPANSION). Components stay in increasing order of
/// magnitude; *n grows by at most one.
inline void GrowExpansion(double* e, int* n, double value) {
  double q = value;
  int out = 0;
  for (int i = 0; i < *n; ++i) {
    double h;
    TwoSum(q, e[i], &q, &h);
    if (h != 0.0) e[out++] = h;
  }
  if (q != 0.0 || out == 0) e[out++] = q;
  *n = out;
}

}  // namespace

namespace internal {

int OrientationExact(Point a, Point b, Point c) {
  // det = b.x*c.y - b.x*a.y - a.x*c.y - b.y*c.x + b.y*a.x + a.y*c.x
  // (the a.x*a.y terms of the two expanded products cancel exactly).
  const double factors[6][2] = {{b.x, c.y}, {-b.x, a.y}, {-a.x, c.y},
                                {-b.y, c.x}, {b.y, a.x},  {a.y, c.x}};
  double e[16];
  int n = 0;
  for (const auto& f : factors) {
    double head, tail;
    TwoProduct(f[0], f[1], &head, &tail);
    GrowExpansion(e, &n, tail);
    GrowExpansion(e, &n, head);
  }
  // Largest-magnitude (last) component carries the sign of the sum.
  const double top = n > 0 ? e[n - 1] : 0.0;
  if (top > 0.0) return 1;
  if (top < 0.0) return -1;
  return 0;
}

}  // namespace internal

bool OnSegment(Point p, const Segment& s, double eps) {
  if (Orientation(s.a, s.b, p) != 0) return false;
  return p.x >= std::min(s.a.x, s.b.x) - eps &&
         p.x <= std::max(s.a.x, s.b.x) + eps &&
         p.y >= std::min(s.a.y, s.b.y) - eps &&
         p.y <= std::max(s.a.y, s.b.y) + eps;
}

bool SegmentsIntersect(const Segment& s1, const Segment& s2, double eps) {
  if (!BoxesOverlap(s1, s2, eps)) return false;
  const int o1 = Orientation(s1.a, s1.b, s2.a);
  const int o2 = Orientation(s1.a, s1.b, s2.b);
  const int o3 = Orientation(s2.a, s2.b, s1.a);
  const int o4 = Orientation(s2.a, s2.b, s1.b);
  if (o1 != o2 && o3 != o4) return true;
  // Collinear / touching cases.
  if (o1 == 0 && OnSegment(s2.a, s1, eps)) return true;
  if (o2 == 0 && OnSegment(s2.b, s1, eps)) return true;
  if (o3 == 0 && OnSegment(s1.a, s2, eps)) return true;
  if (o4 == 0 && OnSegment(s1.b, s2, eps)) return true;
  return false;
}

bool SegmentsCrossProperly(const Segment& s1, const Segment& s2, double eps) {
  (void)eps;  // Orientation is exact now; eps remains for API stability.
  const int o1 = Orientation(s1.a, s1.b, s2.a);
  const int o2 = Orientation(s1.a, s1.b, s2.b);
  const int o3 = Orientation(s2.a, s2.b, s1.a);
  const int o4 = Orientation(s2.a, s2.b, s1.b);
  return o1 != 0 && o2 != 0 && o3 != 0 && o4 != 0 && o1 != o2 && o3 != o4;
}

util::Result<Point> LineIntersectionPoint(const Segment& s1, const Segment& s2,
                                          double eps) {
  const Point d1 = s1.Direction();
  const Point d2 = s2.Direction();
  const double denom = d1.Cross(d2);
  const double scale = std::max(d1.Norm() * d2.Norm(), 1e-300);
  if (std::fabs(denom) <= eps * scale) {
    return util::Status::FailedPrecondition(
        "LineIntersectionPoint: lines are (nearly) parallel");
  }
  const double t = (s2.a - s1.a).Cross(d2) / denom;
  return s1.a + d1 * t;
}

util::Result<Point> SegmentIntersectionPoint(const Segment& s1,
                                             const Segment& s2, double eps) {
  if (!SegmentsIntersect(s1, s2, eps)) {
    return util::Status::NotFound("segments do not intersect");
  }
  auto line = LineIntersectionPoint(s1, s2, eps);
  if (line.ok()) return line;
  // Collinear overlap: report a shared endpoint if one exists.
  for (Point p : {s2.a, s2.b}) {
    if (OnSegment(p, s1, eps)) return p;
  }
  for (Point p : {s1.a, s1.b}) {
    if (OnSegment(p, s2, eps)) return p;
  }
  return util::Status::Internal("collinear segments without shared point");
}

bool PolygonContainsPoint(const Polyline& poly, Point p, double eps) {
  if (!poly.closed() || poly.size() < 3) return false;
  // Boundary counts as inside.
  const size_t n = poly.NumEdges();
  for (size_t i = 0; i < n; ++i) {
    if (OnSegment(p, poly.Edge(i), eps)) return true;
  }
  // Crossing number with the horizontal ray to +x.
  bool inside = false;
  for (size_t i = 0; i < n; ++i) {
    const Segment e = poly.Edge(i);
    const bool a_above = e.a.y > p.y;
    const bool b_above = e.b.y > p.y;
    if (a_above == b_above) continue;
    const double t = (p.y - e.a.y) / (e.b.y - e.a.y);
    const double x_cross = e.a.x + t * (e.b.x - e.a.x);
    if (x_cross > p.x) inside = !inside;
  }
  return inside;
}

namespace {

bool BoundariesIntersect(const Polyline& a, const Polyline& b, double eps) {
  if (!a.Bounds().Intersects(b.Bounds())) return false;
  const size_t na = a.NumEdges();
  const size_t nb = b.NumEdges();
  for (size_t i = 0; i < na; ++i) {
    const Segment ea = a.Edge(i);
    for (size_t j = 0; j < nb; ++j) {
      if (SegmentsIntersect(ea, b.Edge(j), eps)) return true;
    }
  }
  return false;
}

}  // namespace

bool PolygonContainsPolygon(const Polyline& outer, const Polyline& inner,
                            double eps) {
  if (!outer.closed() || !inner.closed()) return false;
  if (inner.empty() || outer.size() < 3) return false;
  for (Point p : inner.vertices()) {
    if (!PolygonContainsPoint(outer, p, eps)) return false;
  }
  // All vertices inside; boundaries must not cross properly (touching is
  // still containment by our convention).
  const size_t no = outer.NumEdges();
  const size_t ni = inner.NumEdges();
  for (size_t i = 0; i < no; ++i) {
    const Segment eo = outer.Edge(i);
    for (size_t j = 0; j < ni; ++j) {
      if (SegmentsCrossProperly(eo, inner.Edge(j), eps)) return false;
    }
  }
  return true;
}

bool PolygonsOverlap(const Polyline& a, const Polyline& b, double eps) {
  if (!a.closed() || !b.closed()) return false;
  if (PolygonContainsPolygon(a, b, eps) || PolygonContainsPolygon(b, a, eps)) {
    return false;
  }
  if (BoundariesIntersect(a, b, eps)) return true;
  return false;
}

bool PolygonsDisjoint(const Polyline& a, const Polyline& b, double eps) {
  if (BoundariesIntersect(a, b, eps)) return false;
  // No boundary contact: disjoint unless one contains the other.
  if (a.closed() && !b.empty() &&
      PolygonContainsPoint(a, b.vertex(0), eps)) {
    return false;
  }
  if (b.closed() && !a.empty() &&
      PolygonContainsPoint(b, a.vertex(0), eps)) {
    return false;
  }
  return true;
}

}  // namespace geosir::geom
