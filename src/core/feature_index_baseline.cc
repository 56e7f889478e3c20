#include "core/feature_index_baseline.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_map>

#include "geom/transform.h"

namespace geosir::core {

FeatureIndexBaseline::FeatureIndexBaseline(FeatureIndexOptions options)
    : options_(options) {}

std::vector<double> FeatureIndexBaseline::MakeVector(
    const geom::Polyline& boundary, size_t edge_idx, bool forward) const {
  const geom::Segment edge = boundary.Edge(edge_idx);
  const geom::Point a = forward ? edge.a : edge.b;
  const geom::Point b = forward ? edge.b : edge.a;
  auto transform = geom::AffineTransform::MapSegmentToUnitBase(a, b);
  if (!transform.ok()) return {};
  const geom::Polyline normalized = boundary.Transformed(*transform);

  // Resample the boundary at uniform arc-length steps, starting from the
  // normalization edge's start vertex so corresponding features align.
  const double perimeter = normalized.Perimeter();
  if (perimeter <= 0.0) return {};
  // Arc-length offset of the edge start within the shape.
  double offset = 0.0;
  for (size_t i = 0; i < edge_idx; ++i) {
    offset += normalized.Edge(i).Length();
  }
  if (!forward) offset += normalized.Edge(edge_idx).Length();

  std::vector<double> vec;
  vec.reserve(2 * options_.samples);
  for (size_t s = 0; s < options_.samples; ++s) {
    double arc = offset + perimeter * static_cast<double>(s) /
                              static_cast<double>(options_.samples);
    if (normalized.closed()) {
      arc = std::fmod(arc, perimeter);
    } else if (arc > perimeter) {
      arc = perimeter;  // Open shapes clamp at the far end.
    }
    const geom::Point p = normalized.AtArcLength(arc);
    vec.push_back(p.x);
    vec.push_back(p.y);
  }
  return vec;
}

util::Status FeatureIndexBaseline::Add(ShapeId id,
                                       const geom::Polyline& boundary) {
  GEOSIR_RETURN_IF_ERROR(boundary.Validate());
  const size_t num_edges = boundary.NumEdges();
  size_t added = 0;
  for (size_t e = 0; e < num_edges; ++e) {
    for (bool forward : {true, false}) {
      std::vector<double> vec = MakeVector(boundary, e, forward);
      if (vec.empty()) continue;
      entries_.push_back(Entry{id, std::move(vec)});
      ++added;
    }
  }
  if (added == 0) {
    return util::Status::InvalidArgument("no usable edges in shape");
  }
  return util::Status::OK();
}

std::vector<FeatureIndexBaseline::QueryResult> FeatureIndexBaseline::Query(
    const geom::Polyline& query, size_t k) const {
  std::unordered_map<ShapeId, double> best;
  const size_t num_edges = query.NumEdges();
  for (size_t e = 0; e < num_edges; ++e) {
    // Matching Mehrotra & Gary: one query orientation suffices because
    // both orientations of every database edge are stored.
    const std::vector<double> qvec = MakeVector(query, e, /*forward=*/true);
    if (qvec.empty()) continue;
    for (const Entry& entry : entries_) {
      double d2 = 0.0;
      for (size_t i = 0; i < qvec.size() && i < entry.vec.size(); ++i) {
        const double diff = qvec[i] - entry.vec[i];
        d2 += diff * diff;
      }
      const double d = std::sqrt(d2);
      auto [it, inserted] = best.try_emplace(entry.shape_id, d);
      if (!inserted && d < it->second) it->second = d;
    }
  }
  std::vector<QueryResult> results;
  results.reserve(best.size());
  for (const auto& [id, d] : best) results.push_back(QueryResult{id, d});
  RankResults(&results, k);
  return results;
}

}  // namespace geosir::core
