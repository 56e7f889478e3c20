#include "core/chamfer_baseline.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_map>

#include "core/normalize.h"

namespace geosir::core {

namespace {

constexpr double kMinX = -0.05, kMaxX = 1.05;
constexpr double kMinY = -1.05, kMaxY = 1.05;
constexpr float kInf = std::numeric_limits<float>::infinity();
// Unseeded cells use a large finite value: infinities make the EDT's
// intersection formula produce NaNs (inf - inf) and corrupt the hull.
constexpr float kFar = 1e12f;

/// 1D squared Euclidean distance transform (Felzenszwalb-Huttenlocher).
void Edt1d(const float* f, int n, float* out, int* v, float* z) {
  int k = 0;
  v[0] = 0;
  z[0] = -kInf;
  z[1] = kInf;
  for (int q = 1; q < n; ++q) {
    float s;
    while (true) {
      s = ((f[q] + q * q) - (f[v[k]] + v[k] * v[k])) / (2.0f * (q - v[k]));
      if (s > z[k]) break;
      --k;
    }
    ++k;
    v[k] = q;
    z[k] = s;
    z[k + 1] = kInf;
  }
  k = 0;
  for (int q = 0; q < n; ++q) {
    while (z[k + 1] < q) ++k;
    const int dq = q - v[k];
    out[q] = dq * dq + f[v[k]];
  }
}

}  // namespace

ChamferBaseline::ChamferBaseline(ChamferOptions options)
    : options_(options) {}

bool ChamferBaseline::ToCell(geom::Point p, int* cx, int* cy) const {
  const int w = options_.grid_width;
  const int h = options_.grid_height;
  *cx = static_cast<int>((p.x - kMinX) / (kMaxX - kMinX) * w);
  *cy = static_cast<int>((p.y - kMinY) / (kMaxY - kMinY) * h);
  return *cx >= 0 && *cx < w && *cy >= 0 && *cy < h;
}

util::Status ChamferBaseline::Add(ShapeId id, const geom::Polyline& boundary) {
  Shape shape;
  shape.id = id;
  shape.boundary = boundary;
  NormalizeOptions norm;
  norm.use_alpha_diameters = false;  // Both diameter orientations.
  GEOSIR_ASSIGN_OR_RETURN(std::vector<NormalizedCopy> copies,
                          NormalizeShape(shape, norm));

  const int w = options_.grid_width;
  const int h = options_.grid_height;
  const double cell_w = (kMaxX - kMinX) / w;
  for (const NormalizedCopy& copy : copies) {
    DistanceMap map;
    map.shape_id = id;
    map.cells.assign(static_cast<size_t>(w) * h, kFar);
    // Seed boundary cells by dense sampling along each edge.
    for (size_t e = 0; e < copy.shape.NumEdges(); ++e) {
      const geom::Segment edge = copy.shape.Edge(e);
      const int steps =
          std::max(2, static_cast<int>(edge.Length() / (cell_w * 0.5)));
      for (int s = 0; s <= steps; ++s) {
        int cx, cy;
        if (ToCell(edge.At(static_cast<double>(s) / steps), &cx, &cy)) {
          map.cells[static_cast<size_t>(cy) * w + cx] = 0.0f;
        }
      }
    }
    // Exact squared EDT: columns then rows.
    std::vector<float> scratch(std::max(w, h));
    std::vector<float> out(std::max(w, h));
    std::vector<int> v(std::max(w, h));
    std::vector<float> z(std::max(w, h) + 1);
    for (int x = 0; x < w; ++x) {
      for (int y = 0; y < h; ++y) {
        scratch[y] = map.cells[static_cast<size_t>(y) * w + x];
      }
      Edt1d(scratch.data(), h, out.data(), v.data(), z.data());
      for (int y = 0; y < h; ++y) {
        map.cells[static_cast<size_t>(y) * w + x] = out[y];
      }
    }
    for (int y = 0; y < h; ++y) {
      Edt1d(&map.cells[static_cast<size_t>(y) * w], w, out.data(), v.data(),
            z.data());
      for (int x = 0; x < w; ++x) {
        // Store linear distance in normalized units.
        map.cells[static_cast<size_t>(y) * w + x] =
            std::sqrt(out[x]) * static_cast<float>(cell_w);
      }
    }
    maps_.push_back(std::move(map));
  }
  return util::Status::OK();
}

double ChamferBaseline::Sample(const DistanceMap& map, geom::Point p) const {
  int cx, cy;
  if (!ToCell(p, &cx, &cy)) {
    // Outside the lune window: penalize by the window diagonal.
    return 2.0;
  }
  return map.cells[static_cast<size_t>(cy) * options_.grid_width + cx];
}

std::vector<ChamferBaseline::QueryResult> ChamferBaseline::Query(
    const geom::Polyline& query, size_t k) const {
  auto qnorm = NormalizeQuery(query);
  if (!qnorm.ok()) return {};
  // Contour samples of the normalized query.
  std::vector<geom::Point> samples;
  const double perimeter = qnorm->shape.Perimeter();
  for (int s = 0; s < options_.contour_samples; ++s) {
    samples.push_back(qnorm->shape.AtArcLength(
        perimeter * s / options_.contour_samples));
  }
  std::unordered_map<ShapeId, double> best;
  for (const DistanceMap& map : maps_) {
    double sum = 0.0;
    for (geom::Point p : samples) sum += Sample(map, p);
    const double score = sum / samples.size();
    auto [it, inserted] = best.try_emplace(map.shape_id, score);
    if (!inserted && score < it->second) it->second = score;
  }
  std::vector<QueryResult> results;
  results.reserve(best.size());
  for (const auto& [id, score] : best) results.push_back({id, score});
  RankResults(&results, k);
  return results;
}

}  // namespace geosir::core
