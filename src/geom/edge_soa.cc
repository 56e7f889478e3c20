#include "geom/edge_soa.h"

#include <cassert>
#include <cmath>
#include <limits>

namespace geosir::geom {

namespace {
/// Lane-group width the padded arrays round up to (the AVX2 kernel's
/// 8-edges-per-iteration main loop then never needs a tail).
constexpr size_t kPad = 8;
}  // namespace

EdgeSoA::EdgeSoA(const Polyline& shape) { Assign(shape); }

void EdgeSoA::Assign(const Polyline& shape) {
  num_edges_ = shape.NumEdges();
  padded_ = 0;
  has_vertex_ = false;
  if (num_edges_ == 0) {
    if (!shape.empty()) {
      has_vertex_ = true;
      vertex_ = shape.vertex(0);
      assert(std::isfinite(vertex_.x) && std::isfinite(vertex_.y) &&
             "EdgeSoA requires finite coordinates");
    }
    return;
  }
  padded_ = (num_edges_ + kPad - 1) / kPad * kPad;
  ax_.resize(padded_);
  ay_.resize(padded_);
  dx_.resize(padded_);
  dy_.resize(padded_);
  inv_len2_.resize(padded_);
  for (size_t i = 0; i < num_edges_; ++i) {
    const Segment e = shape.Edge(i);
    assert(std::isfinite(e.a.x) && std::isfinite(e.a.y) &&
           std::isfinite(e.b.x) && std::isfinite(e.b.y) &&
           "EdgeSoA requires finite coordinates");
    ax_[i] = e.a.x;
    ay_[i] = e.a.y;
    dx_[i] = e.b.x - e.a.x;
    dy_[i] = e.b.y - e.a.y;
    const double len2 = dx_[i] * dx_[i] + dy_[i] * dy_[i];
    // Degenerate edges (zero-length, or so short the reciprocal
    // overflows and could breed 0*inf NaNs in the kernel) measure the
    // distance to their start point via t = 0.
    const double inv = len2 > 0.0 ? 1.0 / len2 : 0.0;
    inv_len2_[i] = std::isfinite(inv) ? inv : 0.0;
  }
  for (size_t i = num_edges_; i < padded_; ++i) {
    ax_[i] = ax_[0];
    ay_[i] = ay_[0];
    dx_[i] = dx_[0];
    dy_[i] = dy_[0];
    inv_len2_[i] = inv_len2_[0];
  }
}

EdgeSpanView EdgeSoA::PaddedView() const {
  return {ax_.data(), ay_.data(), dx_.data(), dy_.data(), inv_len2_.data(),
          padded_};
}

double EdgeSoA::MinDistanceSq(Point p) const {
  if (num_edges_ == 0) return std::numeric_limits<double>::infinity();
  return BatchMinDistanceSq(PaddedView(), p);
}

double EdgeSoA::MinDistance(Point p) const {
  if (num_edges_ == 0) {
    return has_vertex_ ? Distance(p, vertex_)
                       : std::numeric_limits<double>::infinity();
  }
  return std::sqrt(BatchMinDistanceSq(PaddedView(), p));
}

void EdgeSoA::MinDistances(const Point* points, size_t count,
                           double* out) const {
  if (num_edges_ == 0) {
    for (size_t i = 0; i < count; ++i) out[i] = MinDistance(points[i]);
    return;
  }
  const EdgeSpanView view = PaddedView();
  for (size_t i = 0; i < count; ++i) {
    out[i] = std::sqrt(BatchMinDistanceSq(view, points[i]));
  }
  CountBatchedEdges(count * num_edges_);
}

}  // namespace geosir::geom
