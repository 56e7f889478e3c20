#include "rangesearch/convex_layers.h"

#include <algorithm>
#include <cmath>

namespace geosir::rangesearch {

using geom::Point;

namespace {

constexpr double kTwoPi = 6.283185307179586;

double NormalAngle(Point a, Point b) {
  // Outward normal of a CCW polygon edge a->b is the clockwise
  // perpendicular of the edge direction.
  const Point d = b - a;
  const Point outward{d.y, -d.x};
  double angle = std::atan2(outward.y, outward.x);
  if (angle < 0.0) angle += kTwoPi;
  return angle;
}

/// Monotone-chain hull over `order` (indices into pts sorted by (x, y)).
/// Returns hull positions *within order*, CCW, collinear points excluded.
std::vector<size_t> HullOfSorted(const std::vector<IndexedPoint>& pts,
                                 const std::vector<uint32_t>& order) {
  const size_t n = order.size();
  std::vector<size_t> hull;
  if (n == 0) return hull;
  if (n == 1) return {0};
  hull.resize(2 * n);
  size_t k = 0;
  auto cross = [&](size_t o, size_t a, size_t b) {
    return (pts[order[a]].p - pts[order[o]].p)
        .Cross(pts[order[b]].p - pts[order[o]].p);
  };
  for (size_t i = 0; i < n; ++i) {
    while (k >= 2 && cross(hull[k - 2], hull[k - 1], i) <= 0.0) --k;
    hull[k++] = i;
  }
  for (size_t i = n - 1, t = k + 1; i-- > 0;) {
    while (k >= t && cross(hull[k - 2], hull[k - 1], i) <= 0.0) --k;
    hull[k++] = i;
  }
  hull.resize(k > 1 ? k - 1 : k);
  return hull;
}

}  // namespace

void ConvexLayersIndex::Build(std::vector<IndexedPoint> points) {
  layers_.clear();
  total_points_ = points.size();
  if (points.empty()) return;

  std::sort(points.begin(), points.end(),
            [](const IndexedPoint& a, const IndexedPoint& b) {
              if (a.p.x != b.p.x) return a.p.x < b.p.x;
              if (a.p.y != b.p.y) return a.p.y < b.p.y;
              return a.id < b.id;
            });
  std::vector<uint32_t> alive(points.size());
  for (uint32_t i = 0; i < alive.size(); ++i) alive[i] = i;

  while (!alive.empty()) {
    const std::vector<size_t> hull_pos = HullOfSorted(points, alive);
    Layer layer;
    layer.hull.reserve(hull_pos.size());
    std::vector<bool> on_hull(alive.size(), false);
    for (size_t pos : hull_pos) {
      on_hull[pos] = true;
      layer.hull.push_back(points[alive[pos]]);
    }

    const size_t h = layer.hull.size();
    if (h >= 3) {
      layer.edge_angles.resize(h);
      for (size_t i = 0; i < h; ++i) {
        layer.edge_angles[i] =
            NormalAngle(layer.hull[i].p, layer.hull[(i + 1) % h].p);
      }
      // Rotate so the angle sequence is ascending (it is cyclically
      // monotone for a CCW convex polygon).
      size_t rot = 0;
      for (size_t i = 1; i < h; ++i) {
        if (layer.edge_angles[i] < layer.edge_angles[i - 1]) {
          rot = i;
          break;
        }
      }
      std::rotate(layer.edge_angles.begin(), layer.edge_angles.begin() + rot,
                  layer.edge_angles.end());
      layer.angle_rotation = rot;
    }
    layers_.push_back(std::move(layer));

    std::vector<uint32_t> next;
    next.reserve(alive.size() - hull_pos.size());
    for (size_t i = 0; i < alive.size(); ++i) {
      if (!on_hull[i]) next.push_back(alive[i]);
    }
    // Safety: guarantee progress on degenerate inputs.
    if (next.size() == alive.size()) next.pop_back();
    alive = std::move(next);
  }
}

size_t ConvexLayersIndex::ExtremeVertex(const Layer& layer,
                                        Point direction) const {
  const size_t h = layer.hull.size();
  if (h < 3 || layer.edge_angles.empty()) {
    size_t best = 0;
    double best_dot = layer.hull[0].p.Dot(direction);
    for (size_t i = 1; i < h; ++i) {
      const double d = layer.hull[i].p.Dot(direction);
      if (d < best_dot) {
        best_dot = d;
        best = i;
      }
    }
    return best;
  }
  // The vertex minimizing direction . p is extreme in direction
  // -direction: binary search for the first edge whose outward normal
  // angle reaches theta; its start vertex is the extreme one.
  double theta = std::atan2(-direction.y, -direction.x);
  if (theta < 0.0) theta += kTwoPi;
  const auto it = std::lower_bound(layer.edge_angles.begin(),
                                   layer.edge_angles.end(), theta);
  const size_t pos = it == layer.edge_angles.end()
                         ? 0
                         : static_cast<size_t>(it - layer.edge_angles.begin());
  const size_t edge = (pos + layer.angle_rotation) % h;
  // Verify against neighbors to absorb exact ties and rounding.
  size_t best = edge;
  double best_dot = layer.hull[best].p.Dot(direction);
  for (size_t cand : {(edge + h - 1) % h, (edge + 1) % h}) {
    const double d = layer.hull[cand].p.Dot(direction);
    if (d < best_dot) {
      best_dot = d;
      best = cand;
    }
  }
  return best;
}

void ConvexLayersIndex::ReportInHalfPlane(
    const HalfPlane& hp, const SimplexIndex::Visitor& visit) const {
  for (const Layer& layer : layers_) {
    const size_t h = layer.hull.size();
    if (h == 0) break;
    const size_t start = ExtremeVertex(layer, hp.normal);
    if (!hp.Contains(layer.hull[start].p)) {
      // This layer misses the half-plane. If a deeper layer had a point
      // in the half-plane, its boundary line would either cut this layer
      // (leaving a vertex on each side) or leave this layer entirely
      // inside; both would put a vertex of this layer in the half-plane.
      break;
    }
    visit(layer.hull[start]);
    bool wrapped = true;
    size_t stop = start;
    for (size_t i = (start + 1) % h; i != start; i = (i + 1) % h) {
      if (!hp.Contains(layer.hull[i].p)) {
        wrapped = false;
        stop = i;
        break;
      }
      visit(layer.hull[i]);
    }
    if (!wrapped) {
      for (size_t i = (start + h - 1) % h; i != stop && i != start;
           i = (i + h - 1) % h) {
        if (!hp.Contains(layer.hull[i].p)) break;
        visit(layer.hull[i]);
      }
    }
  }
}

size_t ConvexLayersIndex::CountInHalfPlane(const HalfPlane& hp) const {
  size_t count = 0;
  ReportInHalfPlane(hp, [&count](const IndexedPoint&) { ++count; });
  return count;
}

namespace {

/// Half-plane of triangle edge a->b containing the triangle's interior
/// (the triangle must be counterclockwise).
HalfPlane EdgeHalfPlane(Point a, Point b) {
  // Interior lies left of a->b: (b-a).Perp() . (p-a) >= 0, i.e.
  // -(b-a).Perp() . p <= -(b-a).Perp() . a.
  const Point n = (b - a).Perp() * -1.0;
  return HalfPlane{n, n.Dot(a)};
}

}  // namespace

void ConvexLayersIndex::ReportInTriangle(const geom::Triangle& t,
                                         const Visitor& visit) const {
  geom::Triangle ccw = t;
  if (ccw.SignedArea() < 0.0) std::swap(ccw.b, ccw.c);
  // Enumerate the shortest edge's half-plane (usually the most
  // selective for sliver queries) and filter with the exact test.
  const double ab = (ccw.b - ccw.a).SquaredNorm();
  const double bc = (ccw.c - ccw.b).SquaredNorm();
  const double ca = (ccw.a - ccw.c).SquaredNorm();
  HalfPlane hp;
  if (ab <= bc && ab <= ca) {
    hp = EdgeHalfPlane(ccw.a, ccw.b);
  } else if (bc <= ca) {
    hp = EdgeHalfPlane(ccw.b, ccw.c);
  } else {
    hp = EdgeHalfPlane(ccw.c, ccw.a);
  }
  StatsTally tally(&stats_);
  ReportInHalfPlane(hp, [&](const IndexedPoint& ip) {
    ++tally.points_tested;
    if (t.Contains(ip.p)) {
      ++tally.points_reported;
      visit(ip);
    }
  });
}

size_t ConvexLayersIndex::CountInTriangle(const geom::Triangle& t) const {
  size_t count = 0;
  ReportInTriangle(t, [&count](const IndexedPoint&) { ++count; });
  return count;
}

void ConvexLayersIndex::ReportInRect(const geom::BoundingBox& box,
                                     const Visitor& visit) const {
  if (box.empty()) return;
  // Enumerate the x <= max_x half-plane, filter by the box.
  const HalfPlane hp{Point{1.0, 0.0}, box.max_x};
  StatsTally tally(&stats_);
  ReportInHalfPlane(hp, [&](const IndexedPoint& ip) {
    ++tally.points_tested;
    if (box.Contains(ip.p)) {
      ++tally.points_reported;
      visit(ip);
    }
  });
}

size_t ConvexLayersIndex::CountInRect(const geom::BoundingBox& box) const {
  size_t count = 0;
  ReportInRect(box, [&count](const IndexedPoint&) { ++count; });
  return count;
}

}  // namespace geosir::rangesearch
