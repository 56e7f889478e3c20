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

/// Integrates the distance-to-target function along one edge of A.
/// `distance_to_b` is any exact point-to-boundary distance oracle
/// (the O(E) scan or a prebuilt edge grid).
template <typename DistanceFn>
double EdgeDistanceIntegral(const Segment& edge, const DistanceFn& distance_to_b,
                            const SimilarityOptions& options) {
  const double len = edge.Length();
  if (len <= 0.0) return 0.0;
  util::QuadratureOptions quad;
  quad.abs_tolerance = options.quadrature_tolerance * len;
  quad.max_depth = options.max_depth;
  const double mean = util::AdaptiveSimpson(
      [&edge, &distance_to_b](double t) { return distance_to_b(edge.At(t)); },
      0.0, 1.0, quad);
  return mean * len;  // Parameter integral times |dx/dt| = len.
}

template <typename DistanceFn>
double AvgMinDistanceImpl(const Polyline& a, const DistanceFn& distance_to_b,
                          const SimilarityOptions& options) {
  const size_t n = a.NumEdges();
  double total = 0.0;
  double perimeter = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const Segment e = a.Edge(i);
    total += EdgeDistanceIntegral(e, distance_to_b, options);
    perimeter += e.Length();
  }
  if (perimeter > 0.0) return total / perimeter;
  // Degenerate shape (no edges, or only zero-length edges — e.g. every
  // vertex duplicated): the boundary is a point set, so the arc-length
  // average degenerates to the vertex average. Returning 0 here would
  // rank such a shape as a perfect match to everything.
  if (a.empty()) return 0.0;
  double sum = 0.0;
  for (geom::Point p : a.vertices()) sum += distance_to_b(p);
  return sum / static_cast<double>(a.size());
}

template <typename DistanceFn>
double DiscreteAvgMinDistanceImpl(const Polyline& a,
                                  const DistanceFn& distance_to_b) {
  if (a.empty()) return 0.0;
  double sum = 0.0;
  for (geom::Point p : a.vertices()) sum += distance_to_b(p);
  return sum / static_cast<double>(a.size());
}

/// The discrete average of distance(p) over `points`, adding the terms in
/// order — or nullopt as soon as the partial sum divided by the same
/// count exceeds `threshold`. The terms are non-negative, so each partial
/// quotient is a lower bound on the final one in floating point too.
template <typename DistanceFn>
std::optional<double> AbandoningAverage(const std::vector<geom::Point>& points,
                                        const DistanceFn& distance,
                                        double threshold) {
  if (points.empty()) return 0.0;
  const double n = static_cast<double>(points.size());
  double sum = 0.0;
  for (geom::Point p : points) {
    sum += distance(p);
    if (sum / n > threshold) return std::nullopt;
  }
  return sum / n;
}

bool IsContinuous(MatchMeasure measure) {
  return measure == MatchMeasure::kContinuousSymmetric ||
         measure == MatchMeasure::kContinuousDirected;
}

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
  if (b.NumEdges() >= options.grid_min_edges) {
    const geom::EdgeGrid grid(b);
    return AvgMinDistanceImpl(
        a, [&grid](geom::Point p) { return grid.Distance(p); }, options);
  }
  // Below the grid threshold the flat scan wins: build the SoA store
  // once and stream every quadrature sample through the batch kernel.
  const geom::EdgeSoA soa(b);
  return AvgMinDistance(a, soa, options);
}

double AvgMinDistance(const Polyline& a, const geom::EdgeGrid& b,
                      const SimilarityOptions& options) {
  return AvgMinDistanceImpl(
      a, [&b](geom::Point p) { return b.Distance(p); }, options);
}

double AvgMinDistance(const Polyline& a, const geom::EdgeSoA& b,
                      const SimilarityOptions& options) {
  // Count kernel work locally and flush one increment per evaluation —
  // never per quadrature sample.
  size_t evals = 0;
  const double result = AvgMinDistanceImpl(
      a,
      [&b, &evals](geom::Point p) {
        ++evals;
        return b.MinDistance(p);
      },
      options);
  geom::CountBatchedEdges(evals * b.num_edges());
  return result;
}

double AvgMinDistanceSymmetric(const Polyline& a, const Polyline& b,
                               const SimilarityOptions& options) {
  return std::max(AvgMinDistance(a, b, options),
                  AvgMinDistance(b, a, options));
}

double DiscreteAvgMinDistance(const Polyline& a, const Polyline& b) {
  return DiscreteAvgMinDistance(a, geom::EdgeSoA(b));
}

double DiscreteAvgMinDistance(const Polyline& a, const geom::EdgeGrid& b) {
  return DiscreteAvgMinDistanceImpl(
      a, [&b](geom::Point p) { return b.Distance(p); });
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
    : query_(query), options_(options) {
  if (query.NumEdges() >= options.grid_min_edges && query.NumEdges() > 0) {
    grid_ = std::make_unique<geom::EdgeGrid>(query);
  } else {
    soa_ = std::make_unique<geom::EdgeSoA>(query);
  }
}

std::optional<double> QueryTarget::BoundedScore(const Polyline& copy,
                                                MatchMeasure measure,
                                                double threshold,
                                                geom::EdgeSoA* scratch) const {
  if (IsContinuous(measure)) return Score(copy, measure);
  const std::optional<double> to_query = AbandoningAverage(
      copy.vertices(), [this](geom::Point p) { return Distance(p); },
      threshold);
  if (!to_query || measure == MatchMeasure::kDiscreteDirected) return to_query;
  scratch->Assign(copy);
  size_t evals = 0;
  const std::optional<double> from_query = AbandoningAverage(
      query_.vertices(),
      [scratch, &evals](geom::Point p) {
        ++evals;
        return scratch->MinDistance(p);
      },
      threshold);
  geom::CountBatchedEdges(evals * scratch->num_edges());
  if (!from_query) return std::nullopt;
  return std::max(*to_query, *from_query);
}

double QueryTarget::Score(const Polyline& copy, MatchMeasure measure) const {
  const bool continuous = IsContinuous(measure);
  const double to_query =
      continuous ? (grid_ != nullptr ? AvgMinDistance(copy, *grid_, options_)
                                     : AvgMinDistance(copy, *soa_, options_))
                 : (grid_ != nullptr ? DiscreteAvgMinDistance(copy, *grid_)
                                     : DiscreteAvgMinDistance(copy, *soa_));
  if (measure == MatchMeasure::kContinuousDirected ||
      measure == MatchMeasure::kDiscreteDirected) {
    return to_query;
  }
  return std::max(to_query, continuous
                                ? AvgMinDistance(query_, copy, options_)
                                : DiscreteAvgMinDistance(query_, copy));
}

}  // namespace geosir::core
