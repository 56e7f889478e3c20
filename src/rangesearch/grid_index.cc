#include "rangesearch/grid_index.h"

#include <algorithm>
#include <cmath>

#include "rangesearch/tri_box.h"

namespace geosir::rangesearch {

using geom::BoundingBox;
using geom::Triangle;

void GridIndex::Build(std::vector<IndexedPoint> points) {
  points_ = std::move(points);
  bounds_ = BoundingBox();
  for (const IndexedPoint& ip : points_) bounds_.Extend(ip.p);
  const size_t n = points_.size();
  if (n == 0) {
    nx_ = ny_ = 0;
    cell_start_.assign(1, 0);
    return;
  }
  const double cells = std::max(1.0, n / target_points_per_cell_);
  const double aspect =
      bounds_.Height() > 0.0 && bounds_.Width() > 0.0
          ? bounds_.Width() / bounds_.Height()
          : 1.0;
  nx_ = std::max(1, static_cast<int>(std::lround(std::sqrt(cells * aspect))));
  ny_ = std::max(1, static_cast<int>(std::lround(cells / nx_)));
  cell_w_ = bounds_.Width() > 0.0 ? bounds_.Width() / nx_ : 1.0;
  cell_h_ = bounds_.Height() > 0.0 ? bounds_.Height() / ny_ : 1.0;

  // Counting sort points into cells.
  auto cell_of = [&](geom::Point p) {
    int cx = static_cast<int>((p.x - bounds_.min_x) / cell_w_);
    int cy = static_cast<int>((p.y - bounds_.min_y) / cell_h_);
    cx = std::clamp(cx, 0, nx_ - 1);
    cy = std::clamp(cy, 0, ny_ - 1);
    return cy * nx_ + cx;
  };
  const size_t num_cells = static_cast<size_t>(nx_) * ny_;
  cell_start_.assign(num_cells + 1, 0);
  for (const IndexedPoint& ip : points_) ++cell_start_[cell_of(ip.p) + 1];
  for (size_t i = 1; i <= num_cells; ++i) cell_start_[i] += cell_start_[i - 1];
  std::vector<IndexedPoint> sorted(n);
  std::vector<uint32_t> cursor(cell_start_.begin(), cell_start_.end() - 1);
  for (const IndexedPoint& ip : points_) {
    sorted[cursor[cell_of(ip.p)]++] = ip;
  }
  points_ = std::move(sorted);
}

BoundingBox GridIndex::CellBounds(int cx, int cy) const {
  return BoundingBox(
      geom::Point{bounds_.min_x + cx * cell_w_, bounds_.min_y + cy * cell_h_},
      geom::Point{bounds_.min_x + (cx + 1) * cell_w_,
                  bounds_.min_y + (cy + 1) * cell_h_});
}

void GridIndex::CellRange(const BoundingBox& box, int* x0, int* y0, int* x1,
                          int* y1) const {
  *x0 = std::clamp(
      static_cast<int>((box.min_x - bounds_.min_x) / cell_w_), 0, nx_ - 1);
  *x1 = std::clamp(
      static_cast<int>((box.max_x - bounds_.min_x) / cell_w_), 0, nx_ - 1);
  *y0 = std::clamp(
      static_cast<int>((box.min_y - bounds_.min_y) / cell_h_), 0, ny_ - 1);
  *y1 = std::clamp(
      static_cast<int>((box.max_y - bounds_.min_y) / cell_h_), 0, ny_ - 1);
}

size_t GridIndex::CountInTriangle(const Triangle& t) const {
  size_t count = 0;
  ReportInTriangle(t, [&count](const IndexedPoint&) { ++count; });
  return count;
}

void GridIndex::ReportInTriangle(const Triangle& t,
                                 const Visitor& visit) const {
  if (points_.empty()) return;
  const PreparedTriangle tri(t);
  if (!tri.bounds().Intersects(bounds_)) return;
  StatsTally tally(&stats_);
  int x0, y0, x1, y1;
  CellRange(tri.bounds(), &x0, &y0, &x1, &y1);
  for (int cy = y0; cy <= y1; ++cy) {
    for (int cx = x0; cx <= x1; ++cx) {
      ++tally.nodes_visited;
      const PreparedTriangle::Overlap overlap = tri.Classify(CellBounds(cx, cy));
      if (overlap == PreparedTriangle::Overlap::kDisjoint) continue;
      const size_t c = static_cast<size_t>(cy) * nx_ + cx;
      const bool full = overlap == PreparedTriangle::Overlap::kContained;
      for (uint32_t i = cell_start_[c]; i < cell_start_[c + 1]; ++i) {
        if (!full) {
          ++tally.points_tested;
          if (!t.Contains(points_[i].p)) continue;
        }
        ++tally.points_reported;
        visit(points_[i]);
      }
    }
  }
}

size_t GridIndex::CountInRect(const BoundingBox& box) const {
  size_t count = 0;
  ReportInRect(box, [&count](const IndexedPoint&) { ++count; });
  return count;
}

void GridIndex::ReportInRect(const BoundingBox& box,
                             const Visitor& visit) const {
  if (points_.empty() || box.empty() || !box.Intersects(bounds_)) return;
  StatsTally tally(&stats_);
  int x0, y0, x1, y1;
  CellRange(box, &x0, &y0, &x1, &y1);
  for (int cy = y0; cy <= y1; ++cy) {
    for (int cx = x0; cx <= x1; ++cx) {
      ++tally.nodes_visited;
      const BoundingBox cell = CellBounds(cx, cy);
      const bool full = cell.min_x >= box.min_x && cell.max_x <= box.max_x &&
                        cell.min_y >= box.min_y && cell.max_y <= box.max_y;
      const size_t c = static_cast<size_t>(cy) * nx_ + cx;
      for (uint32_t i = cell_start_[c]; i < cell_start_[c + 1]; ++i) {
        if (full || box.Contains(points_[i].p)) {
          ++tally.points_reported;
          visit(points_[i]);
        } else {
          ++tally.points_tested;
        }
      }
    }
  }
}

}  // namespace geosir::rangesearch
