#include "rangesearch/brute_force_index.h"

namespace geosir::rangesearch {

void BruteForceIndex::Build(std::vector<IndexedPoint> points) {
  points_ = std::move(points);
}

size_t BruteForceIndex::CountInTriangle(const geom::Triangle& t) const {
  size_t count = 0;
  ReportInTriangle(t, [&count](const IndexedPoint&) { ++count; });
  return count;
}

void BruteForceIndex::ReportInTriangle(const geom::Triangle& t,
                                       const Visitor& visit) const {
  const geom::BoundingBox box = t.Bounds();
  StatsTally tally(&stats_);
  tally.points_tested = points_.size();
  for (const IndexedPoint& ip : points_) {
    if (box.Contains(ip.p) && t.Contains(ip.p)) {
      ++tally.points_reported;
      visit(ip);
    }
  }
}

size_t BruteForceIndex::CountInRect(const geom::BoundingBox& box) const {
  size_t count = 0;
  ReportInRect(box, [&count](const IndexedPoint&) { ++count; });
  return count;
}

void BruteForceIndex::ReportInRect(const geom::BoundingBox& box,
                                   const Visitor& visit) const {
  StatsTally tally(&stats_);
  tally.points_tested = points_.size();
  for (const IndexedPoint& ip : points_) {
    if (box.Contains(ip.p)) {
      ++tally.points_reported;
      visit(ip);
    }
  }
}

}  // namespace geosir::rangesearch
