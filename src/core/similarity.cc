#include "core/similarity.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "geom/distance.h"
#include "geom/kernel_dispatch.h"
#include "util/numeric.h"

namespace geosir::core {

namespace {

using geom::Polyline;
using geom::Segment;

/// Integrates the distance to B along one edge of A, adding the kernel
/// calls it makes to `evals`.
double EdgeDistanceIntegral(const Segment& edge, const geom::EdgeSoA& b,
                            const SimilarityOptions& options, size_t* evals) {
  const double len = edge.Length();
  if (len <= 0.0) return 0.0;
  util::QuadratureOptions quad;
  quad.abs_tolerance = options.quadrature_tolerance * len;
  quad.max_depth = options.max_depth;
  const double mean = util::AdaptiveSimpson(
      [&edge, &b, evals](double t) {
        ++*evals;
        return b.MinDistance(edge.At(t));
      },
      0.0, 1.0, quad);
  return mean * len;  // Parameter integral times |dx/dt| = len.
}

/// The discrete average of the distances from `points` to B, adding the
/// terms in order — or nullopt as soon as the partial sum divided by the
/// same count exceeds `threshold`. The terms are non-negative, so each
/// partial quotient is a lower bound on the final one in floating point
/// too. Counts the kernel edges it scans.
std::optional<double> AbandoningAverage(const std::vector<geom::Point>& points,
                                        const geom::EdgeSoA& b,
                                        double threshold) {
  if (points.empty()) return 0.0;
  const double n = static_cast<double>(points.size());
  double sum = 0.0;
  for (size_t i = 0; i < points.size(); ++i) {
    sum += b.MinDistance(points[i]);
    if (sum / n > threshold) {
      geom::CountBatchedEdges((i + 1) * b.num_edges());
      return std::nullopt;
    }
  }
  geom::CountBatchedEdges(points.size() * b.num_edges());
  return sum / n;
}

bool IsContinuous(MatchMeasure measure) {
  return measure == MatchMeasure::kContinuousSymmetric ||
         measure == MatchMeasure::kContinuousDirected;
}

/// Absolute slack per field value for the kernel's rounding and the node
/// lookup's (DESIGN.md section 14.3): every coordinate involved is O(1),
/// so each is a few 1e-16 at most.
constexpr double kFieldMargin = 1e-12;

/// All of A's vertex min-distances to B in one batched kernel call.
std::vector<double> VertexMinDistances(const Polyline& a,
                                       const geom::EdgeSoA& b) {
  std::vector<double> dists(a.size());
  b.MinDistances(a.vertices().data(), a.size(), dists.data());
  return dists;
}

}  // namespace

double AvgMinDistance(const Polyline& a, const Polyline& b,
                      const SimilarityOptions& options) {
  return AvgMinDistance(a, geom::EdgeSoA(b), options);
}

double AvgMinDistance(const Polyline& a, const geom::EdgeSoA& b,
                      const SimilarityOptions& options) {
  // Count kernel work locally and flush one increment per evaluation —
  // never per quadrature sample.
  size_t evals = 0;
  double total = 0.0;
  double perimeter = 0.0;
  for (size_t i = 0; i < a.NumEdges(); ++i) {
    const Segment e = a.Edge(i);
    total += EdgeDistanceIntegral(e, b, options, &evals);
    perimeter += e.Length();
  }
  geom::CountBatchedEdges(evals * b.num_edges());
  if (perimeter > 0.0) return total / perimeter;
  // Degenerate shape (no edges, or only zero-length edges — e.g. every
  // vertex duplicated): the boundary is a point set, so the arc-length
  // average degenerates to the vertex average. Returning 0 here would
  // rank such a shape as a perfect match to everything.
  return DiscreteAvgMinDistance(a, b);
}

double AvgMinDistanceSymmetric(const Polyline& a, const Polyline& b,
                               const SimilarityOptions& options) {
  return std::max(AvgMinDistance(a, b, options),
                  AvgMinDistance(b, a, options));
}

double DiscreteAvgMinDistance(const Polyline& a, const Polyline& b) {
  return DiscreteAvgMinDistance(a, geom::EdgeSoA(b));
}

double DiscreteAvgMinDistance(const Polyline& a, const geom::EdgeSoA& b) {
  if (a.empty()) return 0.0;
  double sum = 0.0;
  for (double d : VertexMinDistances(a, b)) sum += d;
  return sum / static_cast<double>(a.size());
}

double DiscreteDirectedHausdorff(const Polyline& a, const Polyline& b) {
  if (a.empty()) return 0.0;
  const geom::EdgeSoA soa(b);
  double worst = 0.0;
  for (double d : VertexMinDistances(a, soa)) worst = std::max(worst, d);
  return worst;
}

double DiscreteHausdorff(const Polyline& a, const Polyline& b) {
  return std::max(DiscreteDirectedHausdorff(a, b),
                  DiscreteDirectedHausdorff(b, a));
}

double PartialDirectedHausdorff(const Polyline& a, const Polyline& b,
                                double fraction) {
  if (a.empty()) return 0.0;
  fraction = std::clamp(fraction, 1e-9, 1.0);
  std::vector<double> dists = VertexMinDistances(a, geom::EdgeSoA(b));
  // Huttenlocher-Rucklidge ranking: the K-th smallest distance with
  // K = ceil(fraction * |A|). fraction = 1 recovers the Hausdorff max;
  // fraction = 0.5 is the median variant the paper cites (k = m/2).
  const size_t k = std::max<size_t>(
      1, static_cast<size_t>(std::ceil(fraction * dists.size())));
  std::nth_element(dists.begin(), dists.begin() + (k - 1), dists.end());
  return dists[k - 1];
}

double PartialHausdorff(const Polyline& a, const Polyline& b,
                        double fraction) {
  return std::max(PartialDirectedHausdorff(a, b, fraction),
                  PartialDirectedHausdorff(b, a, fraction));
}

QueryTarget::QueryTarget(const Polyline& query,
                         const SimilarityOptions& options)
    : query_(query), options_(options), soa_(query) {}

std::optional<double> QueryTarget::BoundedScore(const Polyline& copy,
                                                MatchMeasure measure,
                                                double threshold,
                                                geom::EdgeSoA* scratch) const {
  if (IsContinuous(measure)) return Score(copy, measure);
  const std::optional<double> to_query =
      AbandoningAverage(copy.vertices(), soa_, threshold);
  if (!to_query || measure == MatchMeasure::kDiscreteDirected) return to_query;
  scratch->Assign(copy);
  const std::optional<double> from_query =
      AbandoningAverage(query_.vertices(), *scratch, threshold);
  if (!from_query) return std::nullopt;
  return std::max(*to_query, *from_query);
}

double QueryTarget::Score(const Polyline& copy, MatchMeasure measure) const {
  const bool continuous = IsContinuous(measure);
  const double to_query = continuous ? AvgMinDistance(copy, soa_, options_)
                                     : DiscreteAvgMinDistance(copy, soa_);
  if (measure == MatchMeasure::kContinuousDirected ||
      measure == MatchMeasure::kDiscreteDirected) {
    return to_query;
  }
  return std::max(to_query, continuous
                                ? AvgMinDistance(query_, copy, options_)
                                : DiscreteAvgMinDistance(query_, copy));
}

void BoundField::Build(const QueryTarget& target, double alpha) {
  // Any box is sound (a vertex outside it contributes 0); an alpha a base
  // could not have normalized with gets the true diameter's.
  if (!(alpha >= 0.0 && alpha < 1.0)) alpha = 0.0;
  const double r = 1.0 / (1.0 - alpha);
  const double width = 2.0 * r - 1.0;
  const double height = 2.0 * std::sqrt(r * r - 0.25);
  rows_ = 1 + static_cast<size_t>(std::ceil((kColumns - 1) * height / width));
  x0_ = 1.0 - r;
  y0_ = -0.5 * height;
  hx_ = width / (kColumns - 1);
  hy_ = height / static_cast<double>(rows_ - 1);
  inv_hx_ = 1.0 / hx_;
  inv_hy_ = 1.0 / hy_;
  x_offset_ = 1.5 - x0_ * inv_hx_;
  y_offset_ = 1.5 - y0_ * inv_hy_;
  max_ty_ = static_cast<double>(rows_ + 1);
  // A point lies within half a cell diagonal of its nearest node, and the
  // distance to the query is 1-Lipschitz.
  const double shrink = 0.5 * std::hypot(hx_, hy_) + kFieldMargin;
  table_.assign((rows_ + 2) * kStride, 0.0);
  for (size_t i = 0; i < num_nodes(); ++i) {
    const size_t entry = (i / kColumns + 1) * kStride + i % kColumns + 1;
    table_[entry] = std::max(0.0, target.Distance(Node(i)) - shrink);
  }
  geom::CountBatchedEdges(num_nodes() * target.num_edges());
}

geom::Point BoundField::Node(size_t i) const {
  return {x0_ + static_cast<double>(i % kColumns) * hx_,
          y0_ + static_cast<double>(i / kColumns) * hy_};
}

}  // namespace geosir::core
