#include "geom/point.h"

#include <ostream>

#include "geom/predicates.h"

namespace geosir::geom {

std::ostream& operator<<(std::ostream& os, Point p) {
  return os << "(" << p.x << ", " << p.y << ")";
}

bool Triangle::Contains(Point p) const { return TriangleContains(*this, p); }

}  // namespace geosir::geom
