#ifndef GEOSIR_CORE_SIMILARITY_H_
#define GEOSIR_CORE_SIMILARITY_H_

#include <cstddef>
#include <memory>
#include <optional>
#include <vector>

#include "geom/edge_grid.h"
#include "geom/edge_soa.h"
#include "geom/polyline.h"

namespace geosir::core {

/// Options controlling the continuous average-distance integration.
struct SimilarityOptions {
  /// Absolute tolerance of the per-edge adaptive quadrature relative to
  /// the edge length. The default resolves the measure to ~1e-4 diameter
  /// units — far below any similarity threshold the system uses — while
  /// keeping candidate evaluation cheap; tighten it for numerical
  /// experiments.
  double quadrature_tolerance = 1e-4;
  /// Maximum adaptive bisection depth per edge.
  int max_depth = 8;
  /// When the *target* polyline (the one distances are measured to) has
  /// at least this many edges, the point-to-boundary distance inside the
  /// quadrature is answered by a precomputed geom::EdgeGrid instead of
  /// the O(E) edge scan. The grid is exact — results are bit-identical
  /// with or without it — so this is purely a build-cost/lookup-cost
  /// tradeoff. Set to SIZE_MAX to disable the accelerator (benchmarks
  /// use this to measure the brute-force baseline).
  size_t grid_min_edges = 16;
};

/// The paper's similarity criterion (Section 2.2):
///   h_avg(A, B) = average over all points a of the *continuous* shape A
///                 of min_{b in B} d(a, b),
/// i.e. the arc-length-weighted mean of the distance-to-B function along
/// A's boundary. Computed by adaptive Simpson quadrature on each edge of
/// A (the integrand is piecewise smooth with kinks at nearest-feature
/// changes, which the adaptive refinement resolves).
double AvgMinDistance(const geom::Polyline& a, const geom::Polyline& b,
                      const SimilarityOptions& options = {});

/// AvgMinDistance against a prebuilt edge grid of B. The matcher builds
/// the grid once per query shape and reuses it across every candidate
/// evaluation; the result is identical to the polyline overload.
double AvgMinDistance(const geom::Polyline& a, const geom::EdgeGrid& b,
                      const SimilarityOptions& options = {});

/// AvgMinDistance against a prebuilt SoA edge store of B: the flat-scan
/// analogue of the grid overload, served by the batch SIMD kernel. This
/// is what the polyline overload uses below grid_min_edges.
double AvgMinDistance(const geom::Polyline& a, const geom::EdgeSoA& b,
                      const SimilarityOptions& options = {});

/// Symmetric variant: max(h_avg(A,B), h_avg(B,A)). This is the default
/// ranking measure of the matcher — the directed measure alone would rank
/// a tiny fragment lying on B's boundary as a perfect match.
double AvgMinDistanceSymmetric(const geom::Polyline& a,
                               const geom::Polyline& b,
                               const SimilarityOptions& options = {});

/// Discrete variant over the vertices of A only. Used for the matcher's
/// candidate lower bounds (a vertex outside the eps-envelope contributes
/// more than eps to this sum).
double DiscreteAvgMinDistance(const geom::Polyline& a,
                              const geom::Polyline& b);

/// Discrete variant against a prebuilt edge grid of B.
double DiscreteAvgMinDistance(const geom::Polyline& a,
                              const geom::EdgeGrid& b);

/// Discrete variant against a prebuilt SoA edge store of B. A's whole
/// vertex run goes through one batched kernel call.
double DiscreteAvgMinDistance(const geom::Polyline& a,
                              const geom::EdgeSoA& b);

/// Directed Hausdorff distance h(A, B) over A's vertices (the classical
/// baseline of Section 2.1).
double DiscreteDirectedHausdorff(const geom::Polyline& a,
                                 const geom::Polyline& b);

/// Symmetric Hausdorff H(A, B) = max(h(A,B), h(B,A)) over vertices.
double DiscreteHausdorff(const geom::Polyline& a, const geom::Polyline& b);

/// Huttenlocher-Rucklidge generalized (partial) Hausdorff distance: the
/// K-th smallest of the vertex min-distances from A to B, with K =
/// ceil(fraction * |A|), fraction in (0, 1]. fraction = 1 recovers the
/// directed Hausdorff max; fraction = 0.5 is the median variant
/// (k = m/2) the paper cites.
double PartialDirectedHausdorff(const geom::Polyline& a,
                                const geom::Polyline& b, double fraction);

/// Symmetric partial Hausdorff.
double PartialHausdorff(const geom::Polyline& a, const geom::Polyline& b,
                        double fraction);

/// Which similarity measure ranks the candidates.
enum class MatchMeasure {
  /// max(h_avg(P, Q), h_avg(Q, P)) with the continuous average (default).
  kContinuousSymmetric,
  /// h_avg(P, Q): continuous average from the database shape to the query.
  kContinuousDirected,
  /// Vertex-based symmetric average.
  kDiscreteSymmetric,
  /// Vertex-based average from the database shape to the query.
  kDiscreteDirected,
};

/// A normalized query prepared once as the distance target of every
/// database copy scored against it: an EdgeGrid over its boundary at
/// >= grid_min_edges edges, a flat EdgeSoA below. Both answer every
/// point-to-boundary distance with the canonical batch kernel arithmetic,
/// so scores are bit-identical to the polyline overloads above and
/// independent of which accelerator was built. Immutable once built, so
/// concurrent scoring against one target is safe.
class QueryTarget {
 public:
  QueryTarget(const geom::Polyline& query, const SimilarityOptions& options);

  /// Exact distance from `p` to the query boundary.
  double Distance(geom::Point p) const {
    return grid_ != nullptr ? grid_->Distance(p) : soa_->MinDistance(p);
  }

  /// The kernel edges one Distance call scans on the flat path, which
  /// callers count themselves (evaluations × this, flushed once); 0 when
  /// the grid answers, since it counts its own.
  size_t flat_edges() const { return soa_ != nullptr ? soa_->num_edges() : 0; }

  /// `measure` of `copy` against the query: the to-query direction
  /// (h_avg(copy, q) or its discrete variant), and for the symmetric
  /// measures the max of it and the from-query direction.
  double Score(const geom::Polyline& copy, MatchMeasure measure) const;

  /// Score, or nullopt once it is proven to exceed `threshold` (the
  /// early-abandoning verifier, DESIGN.md section 14.3). The discrete
  /// measures add each component's per-vertex distances in vertex order,
  /// the to-query component first and the from-query one only if that
  /// survives, and give up as soon as partial / n > threshold; a value
  /// returned is bit-identical to Score. The continuous measures are
  /// always scored in full: a quadrature term can be negative, so their
  /// partial sums bound nothing. `scratch` is refilled with the copy's
  /// edges for the from-query direction (no allocation once warm).
  std::optional<double> BoundedScore(const geom::Polyline& copy,
                                     MatchMeasure measure, double threshold,
                                     geom::EdgeSoA* scratch) const;

 private:
  geom::Polyline query_;
  SimilarityOptions options_;
  std::unique_ptr<geom::EdgeGrid> grid_;
  std::unique_ptr<geom::EdgeSoA> soa_;
};

/// A per-query table of lower bounds on QueryTarget::Distance (DESIGN.md
/// section 14.3): the target's distance sampled on a fixed grid of nodes
/// over the box that holds every copy normalized about an alpha-diameter,
/// minus the cell half-diagonal and a rounding margin. The discrete
/// verifier consults it before BoundedScore: a copy the field abandons is
/// one BoundedScore abandons too, so verdicts never change. Immutable once
/// built, so concurrent reads are safe; Build reuses the table's storage.
class BoundField {
 public:
  /// Samples `target` at every node of the box x in [1 - r, r],
  /// |y| <= sqrt(r^2 - 1/4), r = 1 / (1 - alpha): every vertex of a copy
  /// normalized about an alpha-diameter lies within r of both (0,0) and
  /// (1,0). The nodes form kColumns columns and as many rows as keep the
  /// cells near-square (126 x 204 at the default alpha = 0.1).
  void Build(const QueryTarget& target, double alpha);

  /// Node columns across the box.
  static constexpr int kColumns = 126;

  /// The number of nodes, and the coordinates of node `i` (row-major from
  /// the box's lower left corner).
  size_t num_nodes() const { return static_cast<size_t>(kColumns) * rows_; }
  geom::Point Node(size_t i) const;

  /// A lower bound on target.Distance(p): the value at p's nearest node,
  /// or 0 outside the box.
  double Lower(geom::Point p) const {
    // Table coordinates plus 1/2, so truncation picks the nearest entry;
    // anything past the nodes (NaN included) is clamped onto the table's
    // zero border.
    double tx = p.x * inv_hx_ + x_offset_;
    double ty = p.y * inv_hy_ + y_offset_;
    tx = tx > 0.0 ? tx : 0.0;
    tx = tx < kStride - 1 ? tx : kStride - 1;
    ty = ty > 0.0 ? ty : 0.0;
    ty = ty < max_ty_ ? ty : max_ty_;
    return table_[static_cast<int>(ty) * kStride + static_cast<int>(tx)];
  }

  /// True when the discrete to-query average of `copy` provably exceeds
  /// `threshold`: the fields at its vertices, added in vertex order and
  /// divided by the vertex count, already do. Then BoundedScore(copy, m,
  /// threshold) is nullopt for both discrete measures m.
  bool Abandons(const geom::Polyline& copy, double threshold) const {
    const std::vector<geom::Point>& vertices = copy.vertices();
    if (vertices.empty()) return false;
    double sum = 0.0;
    for (geom::Point p : vertices) sum += Lower(p);
    return sum / static_cast<double>(vertices.size()) > threshold;
  }

 private:
  /// Table row length: the node columns between two zero border columns.
  static constexpr int kStride = kColumns + 2;

  size_t rows_ = 0;             // Node rows.
  double x0_ = 0.0, y0_ = 0.0;  // Node 0.
  double hx_ = 0.0, hy_ = 0.0;  // Node spacing.
  // Table coordinates of a point plus 1/2: x * inv_hx_ + x_offset_,
  // likewise for y, where node (i, j) sits at table entry (i + 1, j + 1).
  double inv_hx_ = 0.0, inv_hy_ = 0.0;
  double x_offset_ = 0.0, y_offset_ = 0.0;
  double max_ty_ = 0.0;         // The top border row.
  std::vector<double> table_;   // (rows_ + 2) x kStride, border zero.
};

}  // namespace geosir::core

#endif  // GEOSIR_CORE_SIMILARITY_H_
