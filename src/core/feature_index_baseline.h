#ifndef GEOSIR_CORE_FEATURE_INDEX_BASELINE_H_
#define GEOSIR_CORE_FEATURE_INDEX_BASELINE_H_

#include <cstdint>
#include <vector>

#include "core/match_types.h"
#include "core/shape.h"
#include "util/status.h"

namespace geosir::core {

struct FeatureIndexOptions {
  /// Number of boundary sample points per stored vector; the feature
  /// space is R^{2 * samples}.
  size_t samples = 16;
};

/// Reimplementation of the Mehrotra & Gary feature-index baseline the
/// paper compares against (Section 1/2.3): every shape is normalized
/// about *each of its edges* — the edge is mapped onto ((0,0), (1,0)),
/// both orientations — and each normalized copy is stored as a fixed-
/// dimensional vector of resampled boundary points; retrieval is
/// nearest-neighbor in that vector space under the Euclidean distance.
///
/// Two documented weaknesses this repo's benchmarks exercise:
///  * storage blow-up: 2 * edges copies per shape vs. 2 * alpha-diameters;
///  * noise sensitivity: a single distorted edge perturbs every vector
///    normalized on it, and the query matches only if some *edge pair*
///    aligns (Figure 2's failure case).
class FeatureIndexBaseline {
 public:
  explicit FeatureIndexBaseline(FeatureIndexOptions options = {});

  /// Adds a shape under all its edge normalizations.
  util::Status Add(ShapeId id, const geom::Polyline& boundary);

  /// `copy_index` is unused.
  using QueryResult = MatchResult;

  /// k nearest shapes for the query (per-shape best over all stored and
  /// query-side edge normalizations).
  std::vector<QueryResult> Query(const geom::Polyline& query,
                                 size_t k = 1) const;

  /// Total stored vectors (the space-overhead metric).
  size_t NumEntries() const { return entries_.size(); }
  size_t Dimension() const { return 2 * options_.samples; }

 private:
  struct Entry {
    ShapeId shape_id;
    std::vector<double> vec;
  };

  /// Resamples `boundary` normalized about edge `edge_idx` (direction
  /// `forward`) into a feature vector; empty when the edge is degenerate.
  std::vector<double> MakeVector(const geom::Polyline& boundary,
                                 size_t edge_idx, bool forward) const;

  FeatureIndexOptions options_;
  std::vector<Entry> entries_;
};

}  // namespace geosir::core

#endif  // GEOSIR_CORE_FEATURE_INDEX_BASELINE_H_
