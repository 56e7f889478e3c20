#ifndef GEOSIR_QUERY_OPERATORS_H_
#define GEOSIR_QUERY_OPERATORS_H_

#include <optional>
#include <unordered_map>
#include <vector>

#include "core/envelope_matcher.h"
#include "query/image_base.h"
#include "query/selectivity.h"

namespace geosir::query {

/// Sorted vector of image ids (the result type of every operator).
using ImageSet = std::vector<core::ImageId>;

ImageSet SetUnion(const ImageSet& a, const ImageSet& b);
ImageSet SetIntersection(const ImageSet& a, const ImageSet& b);
ImageSet SetDifference(const ImageSet& a, const ImageSet& b);

/// Execution strategy for a topological operator (Section 5.3).
enum class TopoStrategy {
  /// Pick based on selectivity estimates.
  kAuto,
  /// Strategy 1: compute shape_similar for the more selective side only,
  /// then test the other endpoint of each graph edge directly.
  kDriveSmaller,
  /// Strategy 2: compute both shape_similar sets, intersect the image
  /// sets, then scan edges checking set membership.
  kIntersectImages,
};

struct QueryContextOptions {
  /// g_similar(S, Q) holds when the match distance is <= this threshold
  /// (normalized-diameter units). 0.025 separates instances of the same
  /// prototype (jitter ~1-2%) from unrelated shapes in the synthetic
  /// workloads; real deployments tune it per corpus.
  double similar_threshold = 0.025;
  /// Tolerance when comparing diameter angles against theta (radians).
  double angle_tolerance = 0.15;
  TopoStrategy strategy = TopoStrategy::kAuto;
  core::MatchOptions match;
  /// EXTENSION (tiered retrieval, DESIGN.md section 14): approximate
  /// pre-filter in front of shape_similar(Q). When set, candidates come
  /// from this source (LSH, hash curves) and only they are exactly
  /// scored, trading recall for latency per query budget — the DNF
  /// machinery above is unchanged, it just sees the (possibly smaller)
  /// shape_similar sets. Null keeps the exact envelope search; a
  /// core::ExactEnumerationSource keeps exact semantics while exercising
  /// the tiered path. Not owned; must outlive the context.
  core::CandidateSource* prefilter = nullptr;
};

/// Per-context execution counters (benchmark instrumentation).
struct QueryContextStats {
  size_t similar_evaluations = 0;   // Matcher runs (cache misses).
  size_t similar_cache_hits = 0;
  size_t edges_scanned = 0;
  size_t pair_checks = 0;           // Direct g_similar / angle tests.
  /// Candidates emitted by the prefilter across ShapeSimilar calls
  /// (0 when no prefilter is configured).
  size_t prefilter_candidates = 0;
};

/// Evaluates the operators of Section 5 against an ImageBase: caches
/// shape_similar sets, maintains the adaptive selectivity model, and
/// implements both topological execution strategies.
class QueryContext {
 public:
  /// `base` must be finalized and outlive the context.
  QueryContext(const ImageBase* base, QueryContextOptions options = {});

  /// shape_similar(Q): all database shapes within the threshold.
  util::Result<std::vector<core::MatchResult>> ShapeSimilar(
      const geom::Polyline& q);

  /// similar(Q): images containing a shape similar to Q (Section 5.1).
  util::Result<ImageSet> EvalSimilar(const geom::Polyline& q);

  /// r(Q1, Q2, theta): images containing S1 ~ Q1 and S2 ~ Q2 with
  /// g_r(S1, S2, theta). `theta` == nullopt means "any".
  util::Result<ImageSet> EvalTopological(Relation r, const geom::Polyline& q1,
                                         const geom::Polyline& q2,
                                         std::optional<double> theta,
                                         TopoStrategy strategy =
                                             TopoStrategy::kAuto);

  /// All images (for COMPLEMENT).
  ImageSet AllImages() const;

  /// Lifecycle checkpoint against options().match.deadline / cancel_token.
  /// The query layer keeps DNF semantics exact: a deadline or cancel stop
  /// propagates as an error (kDeadlineExceeded / kCancelled) instead of a
  /// silently smaller image set, and a partial shape_similar ranking is
  /// never cached. The planner polls this between factors; the operators
  /// poll it per driven shape inside their edge scans.
  util::Status CheckLifecycle() const;

  const ImageBase& image_base() const { return *base_; }
  SelectivityModel* selectivity() { return &selectivity_; }
  const QueryContextStats& stats() const { return stats_; }
  void ResetStats() { stats_ = QueryContextStats{}; }
  const QueryContextOptions& options() const { return options_; }

 private:
  /// Cache key: bit-exact hash of the polyline.
  static uint64_t HashPolyline(const geom::Polyline& q);

  /// Direct pairwise similarity test g_similar(S, Q) without computing
  /// the full shape_similar set (strategy 1's inner check): some copy of
  /// `shape` within similar_threshold of `query` under
  /// options.match.measure, the predicate ShapeSimilar applies.
  bool GSimilar(core::ShapeId shape, const core::QueryTarget& query);

  bool AngleMatches(double angle, std::optional<double> theta) const;

  const ImageBase* base_;
  QueryContextOptions options_;
  core::EnvelopeMatcher matcher_;
  SelectivityModel selectivity_;
  QueryContextStats stats_;
  geom::EdgeSoA copy_edges_;  // GSimilar's scoring scratch.
  struct CachedSimilar {
    std::vector<core::MatchResult> shapes;
    std::vector<uint8_t> member;  // Indexed by ShapeId.
    ImageSet images;
  };
  std::unordered_map<uint64_t, CachedSimilar> similar_cache_;
};

}  // namespace geosir::query

#endif  // GEOSIR_QUERY_OPERATORS_H_
