#include "query/operators.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "core/normalize.h"
#include "core/similarity.h"
#include "util/query_control.h"

namespace geosir::query {

namespace {

ImageSet SortedUnique(ImageSet set) {
  std::sort(set.begin(), set.end());
  set.erase(std::unique(set.begin(), set.end()), set.end());
  return set;
}

}  // namespace

ImageSet SetUnion(const ImageSet& a, const ImageSet& b) {
  ImageSet out;
  out.reserve(a.size() + b.size());
  std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                 std::back_inserter(out));
  return out;
}

ImageSet SetIntersection(const ImageSet& a, const ImageSet& b) {
  ImageSet out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

ImageSet SetDifference(const ImageSet& a, const ImageSet& b) {
  ImageSet out;
  std::set_difference(a.begin(), a.end(), b.begin(), b.end(),
                      std::back_inserter(out));
  return out;
}

QueryContext::QueryContext(const ImageBase* base, QueryContextOptions options)
    : base_(base),
      options_(std::move(options)),
      matcher_(&base->shape_base()) {}

uint64_t QueryContext::HashPolyline(const geom::Polyline& q) {
  uint64_t h = q.closed() ? 0x9e3779b97f4a7c15ull : 0x517cc1b727220a95ull;
  const auto mix = [&h](uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  };
  for (geom::Point p : q.vertices()) {
    uint64_t bits;
    std::memcpy(&bits, &p.x, sizeof(bits));
    mix(bits);
    std::memcpy(&bits, &p.y, sizeof(bits));
    mix(bits);
  }
  return h;
}

util::Status QueryContext::CheckLifecycle() const {
  return util::QueryControl{options_.match.deadline,
                            options_.match.cancel_token}
      .Check();
}

util::Result<std::vector<core::MatchResult>> QueryContext::ShapeSimilar(
    const geom::Polyline& q) {
  const uint64_t key = HashPolyline(q);
  auto it = similar_cache_.find(key);
  if (it != similar_cache_.end()) {
    ++stats_.similar_cache_hits;
    return it->second.shapes;
  }
  GEOSIR_RETURN_IF_ERROR(CheckLifecycle());
  ++stats_.similar_evaluations;
  core::MatchOptions opts = options_.match;
  opts.collect_threshold = options_.similar_threshold;
  core::MatchStats match_stats;
  // Tiered retrieval: with a prefilter configured, collect-threshold
  // scoring runs over its candidate set only; recall becomes the
  // source's. Without one, the exact envelope search stands.
  auto matched =
      options_.prefilter != nullptr
          ? matcher_.MatchCandidates(q, options_.prefilter, opts, &match_stats)
          : matcher_.Match(q, opts, &match_stats);
  if (options_.prefilter != nullptr) {
    stats_.prefilter_candidates += match_stats.candidates_evaluated +
                                   match_stats.candidates_skipped;
  }
  if (!matched.ok()) return matched.status();
  if (match_stats.partial) {
    // An incomplete shape_similar set would poison the cache and silently
    // shrink every operator built on it: surface the stop instead.
    return match_stats.termination;
  }
  std::vector<core::MatchResult> shapes = *std::move(matched);

  CachedSimilar cached;
  cached.shapes = shapes;
  cached.member.assign(base_->shape_base().NumShapes(), 0);
  for (const core::MatchResult& r : shapes) {
    cached.member[r.shape_id] = 1;
    const core::ImageId image = base_->shape_base().shape(r.shape_id).image;
    if (image != core::kNoImage) cached.images.push_back(image);
  }
  cached.images = SortedUnique(std::move(cached.images));
  // Feed the adaptive selectivity model (Section 5.2).
  selectivity_.Observe(SignificantVertices(q), shapes.size());
  similar_cache_.emplace(key, std::move(cached));
  return shapes;
}

util::Result<ImageSet> QueryContext::EvalSimilar(const geom::Polyline& q) {
  GEOSIR_ASSIGN_OR_RETURN(std::vector<core::MatchResult> shapes,
                          ShapeSimilar(q));
  (void)shapes;
  return similar_cache_.at(HashPolyline(q)).images;
}

bool QueryContext::GSimilar(core::ShapeId shape,
                            const core::QueryTarget& query) {
  ++stats_.pair_checks;
  const core::ShapeBase& base = base_->shape_base();
  // Some copy within the threshold: the per-shape minimum the matcher
  // ranks, under the same measure and scoring, so both execution
  // strategies apply the same g_similar predicate.
  for (uint32_t copy_idx : base.CopiesOfShape(shape)) {
    const std::optional<double> distance = query.BoundedScore(
        base.copy(copy_idx).shape, options_.match.measure,
        options_.similar_threshold, &copy_edges_);
    if (distance && *distance <= options_.similar_threshold) return true;
  }
  return false;
}

bool QueryContext::AngleMatches(double angle,
                                std::optional<double> theta) const {
  if (!theta.has_value()) return true;
  // Compare on the circle; diameters are undirected so a pi flip also
  // counts.
  const auto circ_diff = [](double a, double b) {
    double d = std::fabs(a - b);
    while (d > 2 * M_PI) d -= 2 * M_PI;
    return std::min(d, 2 * M_PI - d);
  };
  const double d1 = circ_diff(angle, *theta);
  const double d2 = circ_diff(angle + M_PI, *theta);
  return std::min(d1, d2) <= options_.angle_tolerance;
}

util::Result<ImageSet> QueryContext::EvalTopological(
    Relation r, const geom::Polyline& q1, const geom::Polyline& q2,
    std::optional<double> theta, TopoStrategy strategy) {
  if (strategy == TopoStrategy::kAuto) strategy = options_.strategy;
  if (strategy == TopoStrategy::kAuto) {
    // Strategy 1 wins when one side is clearly more selective; strategy 2
    // amortizes when both sets are needed anyway (e.g. both cached).
    const double est1 = selectivity_.Estimate(SignificantVertices(q1));
    const double est2 = selectivity_.Estimate(SignificantVertices(q2));
    strategy = (std::min(est1, est2) * 4.0 < std::max(est1, est2))
                   ? TopoStrategy::kDriveSmaller
                   : TopoStrategy::kIntersectImages;
  }

  // Orient so Q2 denotes the more selective side (paper's convention:
  // drive from the smaller set).
  const bool swap =
      selectivity_.Estimate(SignificantVertices(q2)) >
      selectivity_.Estimate(SignificantVertices(q1));
  const geom::Polyline& drive_q = swap ? q1 : q2;
  const geom::Polyline& other_q = swap ? q2 : q1;
  // With swapped queries the edge direction to test also flips: we need
  // g_r(S1, S2) where S1 ~ q1 and S2 ~ q2.

  ImageSet result;
  if (strategy == TopoStrategy::kDriveSmaller) {
    GEOSIR_ASSIGN_OR_RETURN(std::vector<core::MatchResult> driven,
                            ShapeSimilar(drive_q));
    GEOSIR_ASSIGN_OR_RETURN(core::NormalizedCopy other_norm,
                            core::NormalizeQuery(other_q));
    const core::QueryTarget other_target(other_norm.shape,
                                         options_.match.similarity);
    for (const core::MatchResult& m : driven) {
      // Per-driven-shape checkpoint: each iteration may scan an image's
      // edges and run direct g_similar integrals.
      GEOSIR_RETURN_IF_ERROR(CheckLifecycle());
      const core::ImageId image = base_->shape_base().shape(m.shape_id).image;
      if (image == core::kNoImage) continue;
      const ImageEntry& entry = base_->image(image);
      if (r == Relation::kDisjoint) {
        // No edges exist for disjoint pairs: scan the image's shapes and
        // test non-adjacency plus the angle.
        const TopologyGraph& graph = base_->topology(image);
        for (core::ShapeId other : entry.shapes) {
          if (other == m.shape_id) continue;
          ++stats_.edges_scanned;
          if (graph.RelationBetween(m.shape_id, other) !=
                  Relation::kDisjoint ||
              graph.RelationBetween(other, m.shape_id) !=
                  Relation::kDisjoint) {
            continue;
          }
          const double angle = DiameterAngle(
              base_->shape_base().shape(swap ? m.shape_id : other).boundary,
              base_->shape_base().shape(swap ? other : m.shape_id).boundary);
          if (!AngleMatches(angle, theta)) continue;
          if (GSimilar(other, other_target)) {
            result.push_back(image);
            break;
          }
        }
        continue;
      }
      // Contain/overlap: the driven shape plays S2 (or S1 when swapped).
      for (const TopologyEdge& e : base_->topology(image).edges()) {
        ++stats_.edges_scanned;
        if (e.label != r) continue;
        // Need S1 -r-> S2 with S_drive matching the driven side.
        const core::ShapeId s1 = e.from;
        const core::ShapeId s2 = e.to;
        const core::ShapeId drive_role = swap ? s1 : s2;
        const core::ShapeId other_role = swap ? s2 : s1;
        if (drive_role != m.shape_id) continue;
        if (!AngleMatches(e.angle, theta)) continue;
        if (GSimilar(other_role, other_target)) {
          result.push_back(image);
          break;
        }
      }
    }
    return SortedUnique(std::move(result));
  }

  // Strategy 2: both sets, image intersection, then edge membership.
  GEOSIR_ASSIGN_OR_RETURN(std::vector<core::MatchResult> sim1,
                          ShapeSimilar(q1));
  GEOSIR_ASSIGN_OR_RETURN(std::vector<core::MatchResult> sim2,
                          ShapeSimilar(q2));
  const CachedSimilar& c1 = similar_cache_.at(HashPolyline(q1));
  const CachedSimilar& c2 = similar_cache_.at(HashPolyline(q2));
  const ImageSet both = SetIntersection(c1.images, c2.images);
  (void)sim2;

  for (const core::MatchResult& m : sim1) {
    GEOSIR_RETURN_IF_ERROR(CheckLifecycle());
    const core::ImageId image = base_->shape_base().shape(m.shape_id).image;
    if (image == core::kNoImage ||
        !std::binary_search(both.begin(), both.end(), image)) {
      continue;
    }
    const ImageEntry& entry = base_->image(image);
    const TopologyGraph& graph = base_->topology(image);
    if (r == Relation::kDisjoint) {
      for (core::ShapeId other : entry.shapes) {
        if (other == m.shape_id) continue;
        ++stats_.edges_scanned;
        if (!c2.member[other]) continue;
        if (graph.RelationBetween(m.shape_id, other) != Relation::kDisjoint ||
            graph.RelationBetween(other, m.shape_id) != Relation::kDisjoint) {
          continue;
        }
        ++stats_.pair_checks;
        const double angle =
            DiameterAngle(base_->shape_base().shape(m.shape_id).boundary,
                          base_->shape_base().shape(other).boundary);
        if (AngleMatches(angle, theta)) {
          result.push_back(image);
          break;
        }
      }
      continue;
    }
    for (const TopologyEdge& e : graph.edges()) {
      ++stats_.edges_scanned;
      if (e.label != r || e.from != m.shape_id) continue;
      if (!c2.member[e.to]) continue;
      if (AngleMatches(e.angle, theta)) {
        result.push_back(image);
        break;
      }
    }
  }
  return SortedUnique(std::move(result));
}

ImageSet QueryContext::AllImages() const {
  ImageSet all;
  all.reserve(base_->NumImages());
  for (const ImageEntry& entry : base_->images()) all.push_back(entry.id);
  return all;
}

}  // namespace geosir::query
