#ifndef GEOSIR_CORE_CHAMFER_BASELINE_H_
#define GEOSIR_CORE_CHAMFER_BASELINE_H_

#include <cstdint>
#include <vector>

#include "core/match_types.h"
#include "core/shape.h"
#include "util/status.h"

namespace geosir::core {

struct ChamferOptions {
  /// Resolution of the per-shape distance map (covers the normalized
  /// lune bounding box [-0.05, 1.05] x [-1.05, 1.05]).
  int grid_width = 96;
  int grid_height = 160;
  /// Contour samples per query evaluation.
  int contour_samples = 64;
};

/// Chamfer-matching baseline (related work: Barrow et al.; Borgefors'
/// hierarchical variant): every database shape is normalized about its
/// diameter and rasterized into a distance map (exact Euclidean distance
/// to the boundary, computed by the Felzenszwalb-Huttenlocher two-pass
/// transform); a query is scored by averaging the distance-map values
/// along its normalized contour. The paper's related-work critique —
/// "involves lengthy computations on every extracted contour per query"
/// — shows up as a large per-shape scan cost and a heavy preprocessing
/// footprint, which the baseline-comparison benchmark measures.
class ChamferBaseline {
 public:
  explicit ChamferBaseline(ChamferOptions options = ChamferOptions());

  /// Adds a shape (both diameter orientations are stored).
  util::Status Add(ShapeId id, const geom::Polyline& boundary);

  /// `distance` is the mean chamfer distance in diameter units;
  /// `copy_index` is unused.
  using QueryResult = MatchResult;

  /// k best shapes for the query under the chamfer score.
  std::vector<QueryResult> Query(const geom::Polyline& query,
                                 size_t k = 1) const;

  size_t NumMaps() const { return maps_.size(); }
  /// Total bytes held by the distance maps (the storage-cost metric).
  size_t MapBytes() const {
    return maps_.size() * sizeof(float) *
           static_cast<size_t>(options_.grid_width) * options_.grid_height;
  }

 private:
  struct DistanceMap {
    ShapeId shape_id;
    std::vector<float> cells;  // Row-major grid_width x grid_height.
  };

  /// Grid coordinates of a normalized-space point.
  bool ToCell(geom::Point p, int* cx, int* cy) const;
  double Sample(const DistanceMap& map, geom::Point p) const;

  ChamferOptions options_;
  std::vector<DistanceMap> maps_;
};

}  // namespace geosir::core

#endif  // GEOSIR_CORE_CHAMFER_BASELINE_H_
