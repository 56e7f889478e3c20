#ifndef GEOSIR_GEOM_EDGE_SOA_H_
#define GEOSIR_GEOM_EDGE_SOA_H_

#include <cstddef>
#include <vector>

#include "geom/kernel_dispatch.h"
#include "geom/point.h"
#include "geom/polyline.h"

namespace geosir::geom {

/// Structure-of-arrays edge store for the batch distance kernels: the
/// edges of one polyline, laid out as five contiguous double arrays
/// (start ax/ay, direction dx/dy, and the precomputed reciprocal squared
/// length), padded to a multiple of the widest kernel's lane group by
/// replicating the first edge (duplicates cannot change a minimum). The
/// store is built once per shape and reused across every query point —
/// the build is O(E), each MinDistance is one streaming pass the AVX2
/// kernel covers 8 edges per iteration.
///
/// Canonical batch arithmetic (shared verbatim by the scalar oracle and
/// the AVX2 kernel, so both return bit-identical values):
///   q   = p - a
///   dot = fma(q.x, d.x, q.y * d.y)
///   t   = clamp(dot * inv_len2, 0, 1)      // degenerate edges: t = 0
///   e   = (fma(-t, d.x, q.x), fma(-t, d.y, q.y))
///   d2  = fma(e.x, e.x, e.y * e.y)
///   result = sqrt(min over edges of d2)
/// This differs from the hypot-based DistancePointSegment by at most a
/// couple of ulps; the batch entry points below are the system's
/// canonical point-to-boundary distance wherever they are used.
///
/// Finite-input contract: the polyline's coordinates and every query
/// point must be finite (API boundaries validate shapes; see
/// kernel_dispatch.h). Build and query assert this in debug builds.
class EdgeSoA {
 public:
  EdgeSoA() = default;
  /// Builds the store over `shape`'s edges. Geometry is copied.
  explicit EdgeSoA(const Polyline& shape);

  /// Rebuilds the store over `shape`'s edges in place, exactly as the
  /// constructor builds it, reusing the arrays' capacity: a scratch
  /// store refilled per shape allocates only when a shape outgrows it.
  void Assign(const Polyline& shape);

  size_t num_edges() const { return num_edges_; }
  bool empty() const { return num_edges_ == 0; }

  /// View of the padded arrays for direct kernel calls. `count` is the
  /// padded size (multiple of 8); extra lanes replicate edge 0.
  EdgeSpanView PaddedView() const;

  /// Minimum squared distance from p to any edge (+inf when edgeless).
  /// Dispatched to the active kernel tier.
  double MinDistanceSq(Point p) const;

  /// Minimum distance from p to any edge; matches
  /// DistancePointPolyline's regimes (+inf for an empty shape, distance
  /// to the lone vertex for an edgeless one-vertex shape).
  double MinDistance(Point p) const;

  /// Batched multi-query-point variant: out[i] = MinDistance(points[i]).
  /// One call feeds a whole vertex run through the kernel and flushes a
  /// single geosir_geom_kernel_batched_edges_total increment.
  void MinDistances(const Point* points, size_t count, double* out) const;

 private:
  size_t num_edges_ = 0;
  size_t padded_ = 0;
  /// Fallback geometry for shapes without edges (empty or one vertex).
  bool has_vertex_ = false;
  Point vertex_;
  std::vector<double> ax_, ay_, dx_, dy_, inv_len2_;
};

}  // namespace geosir::geom

#endif  // GEOSIR_GEOM_EDGE_SOA_H_
