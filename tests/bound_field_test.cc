// Differential tests of the verifier's lower-bound field (BoundField,
// DESIGN.md section 14.3). (a) Per candidate: over every copy of seeded
// bases, at thresholds from the 1st, 10th and 100th best distance, the
// copy's own score and +inf, "the field abandons" must imply that
// QueryTarget::BoundedScore returns nullopt, for both discrete measures;
// every field value must bound the exact distance from below, including
// at adversarial points (grid nodes, cell corners, points on the query's
// edges, far outside the box) and against a query with a degenerate edge.
// (b) Per call: with the field forced on a base below the break-even,
// MatchCandidates over the exhaustive source and Match must return the
// field-off call's rankings, counters and AccessTrace bit for bit. (c) The
// gate: an exhaustive call on a base above the break-even builds the field
// unforced; Match's rounds and an LSH-sized candidate set do not.

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/candidate_source.h"
#include "core/envelope_matcher.h"
#include "core/normalize.h"
#include "core/shape_base.h"
#include "core/similarity.h"
#include "lsh/lsh_index.h"
#include "obs/trace.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "workload/noise.h"
#include "workload/polygon_gen.h"

namespace geosir::core {

/// The test seam: the verifier's field gate.
class EnvelopeMatcherTestPeer {
 public:
  static void ForceField(EnvelopeMatcher* matcher) {
    matcher->field_min_candidates_ = 1;
  }
};

namespace {

using geom::Point;
using geom::Polyline;

constexpr double kInf = std::numeric_limits<double>::infinity();

struct Seeded {
  std::unique_ptr<ShapeBase> base;
  std::vector<Polyline> queries;
};

/// `shapes` jittered instances of `shapes / 4` random prototypes, and
/// queries near the first prototypes: one of at least 16 edges and two
/// below, so the field is checked on both small and large query stores.
Seeded MakeBase(uint64_t seed, size_t shapes, double alpha) {
  Seeded out;
  ShapeBaseOptions options;
  options.normalize.alpha = alpha;
  out.base = std::make_unique<ShapeBase>(options);
  util::Rng rng(seed);
  workload::PolygonGenOptions gen;
  gen.min_vertices = 8;
  gen.max_vertices = 20;
  std::vector<Polyline> prototypes;
  for (size_t i = 0; i < std::max<size_t>(1, shapes / 4); ++i) {
    prototypes.push_back(workload::RandomStarPolygon(&rng, gen));
  }
  for (size_t i = 0; i < shapes; ++i) {
    EXPECT_TRUE(out.base
                    ->AddShape(workload::JitterVertices(
                        prototypes[i % prototypes.size()], 0.01, &rng))
                    .ok());
  }
  EXPECT_TRUE(out.base->Finalize().ok());
  // The first prototype of at least 16 edges, then the first two below.
  const auto large = [](const Polyline& p) { return p.NumEdges() >= 16; };
  const auto first_large =
      std::find_if(prototypes.begin(), prototypes.end(), large);
  EXPECT_NE(first_large, prototypes.end());
  if (first_large != prototypes.end()) {
    out.queries.push_back(workload::JitterVertices(*first_large, 0.012, &rng));
  }
  for (const Polyline& p : prototypes) {
    if (large(p) || out.queries.size() == 3) continue;
    out.queries.push_back(workload::JitterVertices(p, 0.012, &rng));
  }
  return out;
}

bool HasFieldEvent(const obs::QueryTrace& trace, std::string* detail) {
  for (const obs::TraceEvent& event : trace.events()) {
    if (event.kind != "field") continue;
    if (detail != nullptr) *detail = event.detail;
    return true;
  }
  return false;
}

/// "dropped N of M copies" -> N.
size_t DroppedOf(const std::string& detail) {
  const size_t at = detail.find("dropped ");
  EXPECT_NE(at, std::string::npos) << detail;
  return std::stoul(detail.substr(at + 8));
}

/// Every field value at `points` is at most the exact distance.
void ExpectLowerBounds(const BoundField& field, const QueryTarget& target,
                       const std::vector<Point>& points,
                       const std::string& what) {
  size_t violations = 0;
  for (Point p : points) {
    const double lower = field.Lower(p);
    if (!(lower <= target.Distance(p))) ++violations;
    EXPECT_GE(lower, 0.0);
  }
  EXPECT_EQ(violations, 0u) << what;
}

/// "field abandons => BoundedScore abandons" for `copy` at `threshold`,
/// for both discrete measures. Returns whether the field abandoned.
bool ExpectSound(const BoundField& field, const QueryTarget& target,
                 const Polyline& copy, double threshold,
                 geom::EdgeSoA* scratch, const std::string& what) {
  if (!field.Abandons(copy, threshold)) return false;
  for (MatchMeasure m :
       {MatchMeasure::kDiscreteSymmetric, MatchMeasure::kDiscreteDirected}) {
    EXPECT_FALSE(target.BoundedScore(copy, m, threshold, scratch).has_value())
        << what << " measure " << static_cast<int>(m) << " threshold "
        << threshold;
  }
  return true;
}

/// The grid's nodes, the cell corners between them (the points farthest
/// from any node), and points just outside the box.
std::vector<Point> GridPoints(const BoundField& field) {
  const Point origin = field.Node(0);
  const double hx = field.Node(1).x - origin.x;
  const double hy = field.Node(BoundField::kColumns).y - origin.y;
  std::vector<Point> points;
  for (size_t i = 0; i < field.num_nodes(); ++i) {
    const Point node = field.Node(i);
    points.push_back(node);
    points.push_back({node.x + 0.5 * hx, node.y + 0.5 * hy});
    points.push_back({node.x - 0.5 * hx, node.y - 0.5 * hy});
  }
  const Point last = field.Node(field.num_nodes() - 1);
  for (double t : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    const double x = origin.x + t * (last.x - origin.x);
    const double y = origin.y + t * (last.y - origin.y);
    points.push_back({origin.x - 0.6 * hx, y});
    points.push_back({last.x + 0.6 * hx, y});
    points.push_back({x, origin.y - 0.6 * hy});
    points.push_back({x, last.y + 0.6 * hy});
  }
  for (Point far : {Point{-5.0, 0.0}, Point{3.0, 3.0}, Point{0.5, -1e6},
                    Point{1e300, -1e300}, Point{-1e-300, 1e300}}) {
    points.push_back(far);
  }
  return points;
}

/// Points on `q`'s edges (distance 0, up to rounding): its vertices and
/// fractions along each edge.
std::vector<Point> EdgePoints(const Polyline& q) {
  std::vector<Point> points;
  for (size_t e = 0; e < q.NumEdges(); ++e) {
    for (double t : {0.0, 0.125, 0.5, 0.9, 1.0}) {
      points.push_back(q.Edge(e).At(t));
    }
  }
  return points;
}

// (a) Per candidate, over the copies of seeded bases (two alphas, so two
// box sizes) and the grid's own adversarial points.
TEST(BoundFieldTest, FieldAbandonsOnlyWhatBoundedScoreAbandons) {
  for (const auto& [seed, alpha] :
       {std::pair<uint64_t, double>{11, 0.1}, {12, 0.3}}) {
    const Seeded seeded = MakeBase(seed, 240, alpha);
    const ShapeBase& base = *seeded.base;
    for (size_t q = 0; q < seeded.queries.size(); ++q) {
      const std::string what = "seed " + std::to_string(seed) + " query " +
                               std::to_string(q);
      auto qnorm = NormalizeQuery(seeded.queries[q]);
      ASSERT_TRUE(qnorm.ok());
      const QueryTarget target(qnorm->shape, SimilarityOptions{});
      BoundField field;
      field.Build(target, alpha);

      std::vector<Point> vertices;
      for (const NormalizedCopy& copy : base.copies()) {
        vertices.insert(vertices.end(), copy.shape.vertices().begin(),
                        copy.shape.vertices().end());
      }
      ExpectLowerBounds(field, target, vertices, what + " copy vertices");
      ExpectLowerBounds(field, target, GridPoints(field), what + " grid");
      ExpectLowerBounds(field, target, EdgePoints(qnorm->shape),
                        what + " query edges");

      geom::EdgeSoA scratch;
      for (MatchMeasure m : {MatchMeasure::kDiscreteSymmetric,
                             MatchMeasure::kDiscreteDirected}) {
        std::vector<double> scores;
        for (const NormalizedCopy& copy : base.copies()) {
          scores.push_back(target.Score(copy.shape, m));
        }
        std::vector<double> sorted = scores;
        std::sort(sorted.begin(), sorted.end());
        size_t dropped_at_10th = 0;
        for (size_t c = 0; c < base.NumCopies(); ++c) {
          const Polyline& copy = base.copy(c).shape;
          const std::string at = what + " copy " + std::to_string(c);
          // The copy's own score is the tightest threshold that must not
          // abandon it (its to-query average is at most the score).
          EXPECT_FALSE(field.Abandons(copy, scores[c])) << at;
          for (double threshold : {sorted[0], sorted[99], kInf}) {
            ExpectSound(field, target, copy, threshold, &scratch, at);
          }
          dropped_at_10th +=
              ExpectSound(field, target, copy, sorted[9], &scratch, at);
        }
        // The field is not vacuous: it drops most copies at the 10th best.
        EXPECT_GT(dropped_at_10th, base.NumCopies() / 2) << what;
      }
    }
  }
}

// (a) A query with a zero-length edge (and a near-zero one): the kernel
// measures the degenerate edge as its start point.
TEST(BoundFieldTest, DegenerateQueryEdgeKeepsTheBound) {
  const Polyline query = Polyline::Closed(
      {{0.0, 0.0}, {0.3, 0.4}, {0.3, 0.4}, {0.6, 0.3 + 1e-17}, {0.6, 0.3},
       {1.0, 0.0}, {0.5, -0.5}});
  const QueryTarget target(query, SimilarityOptions{});
  BoundField field;
  field.Build(target, 0.1);
  ExpectLowerBounds(field, target, GridPoints(field), "grid");
  ExpectLowerBounds(field, target, EdgePoints(query), "query edges");

  const Seeded seeded = MakeBase(13, 120, 0.1);
  geom::EdgeSoA scratch;
  size_t dropped = 0;
  for (const NormalizedCopy& copy : seeded.base->copies()) {
    const double score =
        target.Score(copy.shape, MatchMeasure::kDiscreteDirected);
    EXPECT_FALSE(field.Abandons(copy.shape, score));
    for (double threshold : {0.0, 0.02, 0.05, 0.1, kInf}) {
      dropped += ExpectSound(field, target, copy.shape, threshold, &scratch,
                             "copy " + std::to_string(copy.copy_index));
    }
  }
  EXPECT_GT(dropped, 0u);
  // Copies with vertices on the query's edges and outside the box.
  const Polyline on_query = Polyline::Closed(EdgePoints(query));
  EXPECT_FALSE(field.Abandons(on_query, 0.0));
  const Polyline outside = Polyline::Closed(
      {{-5.0, 0.0}, {3.0, 3.0}, {0.5, -1e6}, {0.5, 0.0}});
  for (double threshold : {0.0, 0.01, 1.0, kInf}) {
    ExpectSound(field, target, on_query, threshold, &scratch, "on edges");
    ExpectSound(field, target, outside, threshold, &scratch, "outside");
  }
}

/// Rankings, counters and AccessTrace of one call.
struct CallResult {
  std::vector<MatchResult> results;
  MatchStats stats;
  AccessTrace trace;
  bool field = false;
  size_t dropped = 0;
};

CallResult RunCall(const ShapeBase& base, const Polyline& query,
                   bool exhaustive, MatchOptions options, bool force) {
  CallResult out;
  EnvelopeMatcher matcher(&base);
  if (force) EnvelopeMatcherTestPeer::ForceField(&matcher);
  obs::QueryTrace qtrace;
  options.query_trace = &qtrace;
  ExactEnumerationSource source(&base);
  auto got = exhaustive ? matcher.MatchCandidates(query, &source, options,
                                                  &out.stats, &out.trace)
                        : matcher.Match(query, options, &out.stats,
                                        &out.trace);
  EXPECT_TRUE(got.ok()) << got.status().ToString();
  if (got.ok()) out.results = std::move(got).value();
  // Match may verify several rounds, each with its own event.
  for (const obs::TraceEvent& event : qtrace.events()) {
    if (event.kind != "field") continue;
    out.field = true;
    out.dropped += DroppedOf(event.detail);
  }
  return out;
}

// (b) Per call: forcing the field changes nothing a caller can see.
TEST(BoundFieldTest, ForcedFieldLeavesEveryCallBitIdentical) {
  const Seeded seeded = MakeBase(21, 400, 0.1);
  const ShapeBase& base = *seeded.base;
  ASSERT_LT(base.NumCopies(), EnvelopeMatcher::kFieldMinCandidates);
  util::ThreadPool pool(4);
  size_t dropped = 0;
  for (MatchMeasure measure :
       {MatchMeasure::kDiscreteSymmetric, MatchMeasure::kDiscreteDirected,
        MatchMeasure::kContinuousDirected}) {
    for (size_t q = 0; q < seeded.queries.size(); ++q) {
      const Polyline& query = seeded.queries[q];
      MatchOptions top;
      top.measure = measure;
      top.k = 15;
      const CallResult top15 = RunCall(base, query, true, top, false);
      ASSERT_EQ(top15.results.size(), 15u);
      struct Mode {
        const char* name;
        size_t k;
        double collect_threshold;
      };
      for (const Mode& mode :
           {Mode{"k=1", 1, -1.0}, Mode{"k=10", 10, -1.0},
            Mode{"collect", 0, top15.results.back().distance}}) {
        for (size_t threads : {1, 4}) {
          for (bool exhaustive : {true, false}) {
            MatchOptions options;
            options.measure = measure;
            options.k = mode.k;
            options.collect_threshold = mode.collect_threshold;
            options.num_threads = threads;
            options.pool = &pool;
            const std::string what =
                std::string(exhaustive ? "exhaustive" : "match") + " measure " +
                std::to_string(static_cast<int>(measure)) + " q" +
                std::to_string(q) + " " + mode.name +
                " threads=" + std::to_string(threads);
            const CallResult off =
                RunCall(base, query, exhaustive, options, false);
            const CallResult on =
                RunCall(base, query, exhaustive, options, true);
            EXPECT_FALSE(off.field) << what;
            // The continuous measures never build the field.
            const bool discrete = measure != MatchMeasure::kContinuousDirected;
            EXPECT_EQ(on.field, discrete) << what;
            dropped += on.dropped;
            ASSERT_EQ(off.results.size(), on.results.size()) << what;
            for (size_t i = 0; i < off.results.size(); ++i) {
              EXPECT_EQ(off.results[i].shape_id, on.results[i].shape_id)
                  << what << " rank " << i;
              EXPECT_EQ(off.results[i].distance, on.results[i].distance)
                  << what << " rank " << i;
              EXPECT_EQ(off.results[i].copy_index, on.results[i].copy_index)
                  << what << " rank " << i;
            }
            EXPECT_EQ(off.stats.candidates_evaluated,
                      on.stats.candidates_evaluated)
                << what;
            EXPECT_EQ(off.stats.candidates_abandoned,
                      on.stats.candidates_abandoned)
                << what;
            EXPECT_EQ(off.stats.candidates_skipped, on.stats.candidates_skipped)
                << what;
            EXPECT_EQ(off.trace, on.trace) << what;
            EXPECT_LE(on.dropped, on.stats.candidates_abandoned) << what;
          }
        }
      }
    }
  }
  // The forced field did the dropping, not only BoundedScore.
  EXPECT_GT(dropped, 0u);
}

// (c) The gate follows the candidate count of each verifier call.
TEST(BoundFieldTest, OnlyCallsAboveTheBreakEvenBuildTheField) {
  util::Rng rng(32);
  workload::PolygonGenOptions gen;
  gen.min_vertices = 8;
  gen.max_vertices = 16;
  ShapeBase large;
  std::vector<Polyline> prototypes;
  while (large.NumCopies() < EnvelopeMatcher::kFieldMinCandidates + 500) {
    if (large.NumShapes() % 10 == 0) {
      prototypes.push_back(workload::RandomStarPolygon(&rng, gen));
    }
    ASSERT_TRUE(
        large.AddShape(workload::JitterVertices(prototypes.back(), 0.01, &rng))
            .ok());
  }
  ASSERT_TRUE(large.Finalize().ok());
  auto lsh = lsh::LshCandidateSource::Build(&large, lsh::LshOptions{});
  ASSERT_TRUE(lsh.ok());
  ExactEnumerationSource exhaustive(&large);

  for (size_t q = 0; q < 3; ++q) {
    const Polyline query =
        workload::JitterVertices(prototypes[q * 7], 0.012, &rng);
    MatchOptions options;
    options.measure = MatchMeasure::kDiscreteSymmetric;
    options.k = 10;
    const std::string what = "query " + std::to_string(q);

    // The exhaustive tier: one verifier call over every copy.
    {
      obs::QueryTrace trace;
      options.query_trace = &trace;
      EnvelopeMatcher matcher(&large);
      MatchStats stats;
      ASSERT_TRUE(
          matcher.MatchCandidates(query, &exhaustive, options, &stats).ok());
      std::string detail;
      ASSERT_TRUE(HasFieldEvent(trace, &detail)) << what;
      auto qnorm = NormalizeQuery(query);
      ASSERT_TRUE(qnorm.ok());
      BoundField field;
      field.Build(QueryTarget(qnorm->shape, SimilarityOptions{}), 0.1);
      EXPECT_EQ(detail.rfind(std::to_string(field.num_nodes()) + " nodes", 0),
                0u)
          << detail;
      EXPECT_NE(detail.find(" of " + std::to_string(large.NumCopies()) +
                            " copies"),
                std::string::npos)
          << detail;
      const size_t dropped = DroppedOf(detail);
      EXPECT_GT(dropped, large.NumCopies() / 2) << detail;
      EXPECT_LE(dropped, stats.candidates_abandoned) << detail;
    }
    // The envelope's rounds each verify a handful of candidates.
    {
      obs::QueryTrace trace;
      options.query_trace = &trace;
      EnvelopeMatcher matcher(&large);
      ASSERT_TRUE(matcher.Match(query, options).ok());
      ASSERT_FALSE(trace.rounds().empty());
      for (const obs::RoundTrace& round : trace.rounds()) {
        EXPECT_LT(round.candidates_admitted,
                  EnvelopeMatcher::kFieldMinCandidates);
      }
      EXPECT_FALSE(HasFieldEvent(trace, nullptr)) << what;
    }
    // An LSH-sized candidate set.
    {
      obs::QueryTrace trace;
      options.query_trace = &trace;
      EnvelopeMatcher matcher(&large);
      MatchStats stats;
      ASSERT_TRUE(
          matcher.MatchCandidates(query, lsh->get(), options, &stats).ok());
      EXPECT_GT(stats.candidates_evaluated, 0u) << what;
      EXPECT_LT(stats.candidates_evaluated,
                EnvelopeMatcher::kFieldMinCandidates);
      EXPECT_FALSE(HasFieldEvent(trace, nullptr)) << what;
    }
  }
}

}  // namespace
}  // namespace geosir::core
