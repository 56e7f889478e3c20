#ifndef GEOSIR_GEOM_POINT_H_
#define GEOSIR_GEOM_POINT_H_

#include <cmath>
#include <iosfwd>

namespace geosir::geom {

/// A 2D point / vector. Kept as a trivially copyable value type; the
/// distinction between points and displacement vectors is by convention.
struct Point {
  double x = 0.0;
  double y = 0.0;

  constexpr Point() = default;
  constexpr Point(double px, double py) : x(px), y(py) {}

  constexpr Point operator+(Point o) const { return {x + o.x, y + o.y}; }
  constexpr Point operator-(Point o) const { return {x - o.x, y - o.y}; }
  constexpr Point operator*(double s) const { return {x * s, y * s}; }
  constexpr Point operator/(double s) const { return {x / s, y / s}; }
  constexpr Point operator-() const { return {-x, -y}; }
  Point& operator+=(Point o) {
    x += o.x;
    y += o.y;
    return *this;
  }
  Point& operator-=(Point o) {
    x -= o.x;
    y -= o.y;
    return *this;
  }

  constexpr double Dot(Point o) const { return x * o.x + y * o.y; }
  /// Z component of the 3D cross product (signed parallelogram area).
  constexpr double Cross(Point o) const { return x * o.y - y * o.x; }
  double Norm() const { return std::hypot(x, y); }
  constexpr double SquaredNorm() const { return x * x + y * y; }
  /// Counterclockwise rotation by 90 degrees.
  constexpr Point Perp() const { return {-y, x}; }
  /// Unit-length copy; the zero vector is returned unchanged.
  Point Normalized() const {
    double n = Norm();
    return n > 0.0 ? Point{x / n, y / n} : *this;
  }

  friend constexpr bool operator==(Point a, Point b) {
    return a.x == b.x && a.y == b.y;
  }
  friend constexpr bool operator!=(Point a, Point b) { return !(a == b); }
};

constexpr Point operator*(double s, Point p) { return p * s; }

inline double Distance(Point a, Point b) { return (a - b).Norm(); }
inline constexpr double SquaredDistance(Point a, Point b) {
  return (a - b).SquaredNorm();
}

std::ostream& operator<<(std::ostream& os, Point p);

/// A directed line segment.
struct Segment {
  Point a;
  Point b;

  Point Direction() const { return b - a; }
  double Length() const { return Distance(a, b); }
  Point Midpoint() const { return (a + b) * 0.5; }
  /// Point at parameter t in [0,1] along the segment.
  Point At(double t) const { return a + (b - a) * t; }
};

/// An axis-aligned bounding box. Default-constructed boxes are empty and
/// absorb points via Extend().
struct BoundingBox {
  double min_x = 1.0;
  double min_y = 1.0;
  double max_x = 0.0;
  double max_y = 0.0;

  BoundingBox() = default;
  BoundingBox(Point lo, Point hi)
      : min_x(lo.x), min_y(lo.y), max_x(hi.x), max_y(hi.y) {}

  bool empty() const { return min_x > max_x || min_y > max_y; }

  void Extend(Point p) {
    if (empty()) {
      min_x = max_x = p.x;
      min_y = max_y = p.y;
      return;
    }
    if (p.x < min_x) min_x = p.x;
    if (p.x > max_x) max_x = p.x;
    if (p.y < min_y) min_y = p.y;
    if (p.y > max_y) max_y = p.y;
  }

  void Extend(const BoundingBox& o) {
    if (o.empty()) return;
    Extend(Point{o.min_x, o.min_y});
    Extend(Point{o.max_x, o.max_y});
  }

  /// Grows the box by `margin` on every side.
  void Inflate(double margin) {
    if (empty()) return;
    min_x -= margin;
    min_y -= margin;
    max_x += margin;
    max_y += margin;
  }

  bool Contains(Point p) const {
    return !empty() && p.x >= min_x && p.x <= max_x && p.y >= min_y &&
           p.y <= max_y;
  }

  bool Intersects(const BoundingBox& o) const {
    return !empty() && !o.empty() && min_x <= o.max_x && o.min_x <= max_x &&
           min_y <= o.max_y && o.min_y <= max_y;
  }

  double Width() const { return empty() ? 0.0 : max_x - min_x; }
  double Height() const { return empty() ? 0.0 : max_y - min_y; }
  Point Center() const { return {(min_x + max_x) * 0.5, (min_y + max_y) * 0.5}; }
};

/// A triangle given by its three corners, in any orientation.
struct Triangle {
  Point a;
  Point b;
  Point c;

  BoundingBox Bounds() const {
    BoundingBox box;
    box.Extend(a);
    box.Extend(b);
    box.Extend(c);
    return box;
  }

  /// Signed area (positive when a,b,c are counterclockwise).
  double SignedArea() const { return 0.5 * (b - a).Cross(c - a); }

  /// Inclusive containment test (boundary points count as inside). A
  /// degenerate triangle contains exactly the segment or point its
  /// corners span.
  bool Contains(Point p) const;
};

}  // namespace geosir::geom

#endif  // GEOSIR_GEOM_POINT_H_
