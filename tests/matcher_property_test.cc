// Property-based tests of the envelope matcher (Section 2.5): on
// randomized shape bases the matcher must agree with exhaustive scans and
// behave monotonically in its parameters.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>

#include <gtest/gtest.h>

#include "core/envelope_matcher.h"
#include "core/normalize.h"
#include "core/shape_base.h"
#include "core/similarity.h"
#include "util/rng.h"
#include "workload/noise.h"
#include "workload/polygon_gen.h"

namespace geosir::core {
namespace {

using geom::Polyline;

class MatcherPropertyTest : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override {
    util::Rng rng(3000 + GetParam());
    workload::PolygonGenOptions gen;
    gen.min_vertices = 8;
    gen.max_vertices = 16;
    for (int s = 0; s < 25; ++s) {
      shapes_.push_back(RandomStarPolygon(&rng, gen));
      ASSERT_TRUE(base_.AddShape(shapes_.back()).ok());
    }
    ASSERT_TRUE(base_.Finalize().ok());
    query_ = workload::JitterVertices(shapes_[GetParam() % 25], 0.01, &rng);
  }

  /// Exhaustive ground truth: best shape under the matcher's measure.
  MatchResult BruteForceBest(const Polyline& query,
                             const MatchOptions& options) const {
    auto qnorm = NormalizeQuery(query);
    MatchResult best{0, 1e300, 0};
    for (uint32_t c = 0; c < base_.NumCopies(); ++c) {
      const NormalizedCopy& copy = base_.copy(c);
      double d = 0.0;
      switch (options.measure) {
        case MatchMeasure::kContinuousSymmetric:
          d = AvgMinDistanceSymmetric(copy.shape, qnorm->shape,
                                      options.similarity);
          break;
        case MatchMeasure::kDiscreteSymmetric:
          d = std::max(DiscreteAvgMinDistance(copy.shape, qnorm->shape),
                       DiscreteAvgMinDistance(qnorm->shape, copy.shape));
          break;
        default:
          d = AvgMinDistance(copy.shape, qnorm->shape, options.similarity);
          break;
      }
      if (d < best.distance) {
        best = MatchResult{copy.shape_id, d, c};
      }
    }
    return best;
  }

  ShapeBase base_;
  std::vector<Polyline> shapes_;
  Polyline query_;
};

TEST_P(MatcherPropertyTest, AgreesWithExhaustiveScan) {
  EnvelopeMatcher matcher(&base_);
  MatchOptions options;
  options.measure = MatchMeasure::kDiscreteSymmetric;
  options.max_epsilon = 2.0;  // Never give up before the scan would.
  auto results = matcher.Match(query_, options);
  ASSERT_TRUE(results.ok());
  ASSERT_FALSE(results->empty());
  const MatchResult truth = BruteForceBest(query_, options);
  EXPECT_EQ((*results)[0].shape_id, truth.shape_id);
  EXPECT_NEAR((*results)[0].distance, truth.distance, 1e-9);
}

TEST_P(MatcherPropertyTest, TopResultStableAcrossK) {
  EnvelopeMatcher matcher(&base_);
  MatchOptions k1;
  k1.k = 1;
  MatchOptions k5;
  k5.k = 5;
  auto r1 = matcher.Match(query_, k1);
  auto r5 = matcher.Match(query_, k5);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r5.ok());
  ASSERT_FALSE(r1->empty());
  ASSERT_GE(r5->size(), r1->size());
  EXPECT_EQ((*r1)[0].shape_id, (*r5)[0].shape_id);
}

TEST_P(MatcherPropertyTest, CollectThresholdIsMonotone) {
  EnvelopeMatcher matcher(&base_);
  MatchOptions tight;
  tight.collect_threshold = 0.02;
  tight.measure = MatchMeasure::kDiscreteSymmetric;
  MatchOptions loose = tight;
  loose.collect_threshold = 0.06;
  auto small_set = matcher.Match(query_, tight);
  auto large_set = matcher.Match(query_, loose);
  ASSERT_TRUE(small_set.ok());
  ASSERT_TRUE(large_set.ok());
  std::set<ShapeId> large_ids;
  for (const auto& r : *large_set) large_ids.insert(r.shape_id);
  for (const auto& r : *small_set) {
    EXPECT_TRUE(large_ids.count(r.shape_id))
        << "shape " << r.shape_id << " lost when loosening the threshold";
    EXPECT_LE(r.distance, 0.02 + 1e-12);
  }
}

TEST_P(MatcherPropertyTest, ExactCopyHasNearZeroDistance) {
  EnvelopeMatcher matcher(&base_);
  util::Rng rng(7777 + GetParam());
  const geom::AffineTransform pose =
      geom::AffineTransform::Translation({rng.Uniform(-20, 20),
                                          rng.Uniform(-20, 20)}) *
      geom::AffineTransform::Rotation(rng.Uniform(0, 2 * M_PI)) *
      geom::AffineTransform::Scaling(rng.Uniform(0.1, 10.0));
  const int target = GetParam() % 25;
  auto results = matcher.Match(shapes_[target].Transformed(pose));
  ASSERT_TRUE(results.ok());
  ASSERT_FALSE(results->empty());
  EXPECT_EQ((*results)[0].shape_id, static_cast<ShapeId>(target));
  EXPECT_NEAR((*results)[0].distance, 0.0, 1e-5);
}

TEST_P(MatcherPropertyTest, StatsAreInternallyConsistent) {
  EnvelopeMatcher matcher(&base_);
  MatchStats stats;
  auto results = matcher.Match(query_, {}, &stats);
  ASSERT_TRUE(results.ok());
  EXPECT_GE(stats.vertices_reported, stats.vertices_accepted);
  EXPECT_LE(stats.vertices_accepted, base_.NumVertices());
  EXPECT_GE(stats.final_epsilon, stats.initial_epsilon);
  EXPECT_LE(stats.final_epsilon, stats.max_epsilon + 1e-12);
  EXPECT_TRUE(stats.stopped_early || stats.exhausted);
  EXPECT_GE(stats.iterations, 1u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MatcherPropertyTest, ::testing::Range(0, 8));

}  // namespace

/// The one test seam into EnvelopeMatcher: its per-call epoch counter.
class EnvelopeMatcherTestPeer {
 public:
  static void SetEpoch(EnvelopeMatcher* matcher, uint32_t epoch) {
    matcher->epoch_ = epoch;
  }
};

namespace {

TEST(MatcherEpochTest, WrapAroundLeavesAnswersExact) {
  util::Rng rng(77);
  workload::PolygonGenOptions gen;
  std::vector<Polyline> shapes;
  ShapeBase base;
  for (int s = 0; s < 300; ++s) {
    shapes.push_back(RandomStarPolygon(&rng, gen));
    ASSERT_TRUE(base.AddShape(shapes.back()).ok());
  }
  ASSERT_TRUE(base.Finalize().ok());
  std::vector<Polyline> queries;
  for (int q = 0; q < 3; ++q) {
    queries.push_back(workload::JitterVertices(shapes[q * 7], 0.01, &rng));
  }
  MatchOptions options;
  options.k = 3;
  options.measure = MatchMeasure::kDiscreteSymmetric;
  options.max_epsilon = 0.03;  // A thin envelope stamps a small part.

  // Stamp part of the scratch with epoch 1, then jump to the last epoch:
  // the next call wraps to the stamps' initial value, and the one after
  // reuses an epoch number whose stamps are still in the arrays.
  EnvelopeMatcher matcher(&base);
  MatchStats first;
  ASSERT_TRUE(matcher.Match(queries[0], options, &first).ok());
  ASSERT_LT(first.vertices_accepted, base.NumVertices() / 2);
  EnvelopeMatcherTestPeer::SetEpoch(&matcher,
                                    std::numeric_limits<uint32_t>::max());
  for (int q = 1; q < 3; ++q) {
    auto got = matcher.Match(queries[q], options);
    EnvelopeMatcher fresh(&base);
    auto want = fresh.Match(queries[q], options);
    ASSERT_TRUE(got.ok() && want.ok());
    ASSERT_FALSE(want->empty());
    ASSERT_EQ(want->size(), got->size()) << "query " << q;
    for (size_t i = 0; i < want->size(); ++i) {
      EXPECT_EQ((*want)[i].shape_id, (*got)[i].shape_id) << "query " << q;
      EXPECT_EQ((*want)[i].distance, (*got)[i].distance) << "query " << q;
      EXPECT_EQ((*want)[i].copy_index, (*got)[i].copy_index) << "query " << q;
    }
  }
}

// At a tiny initial width the first ring's cover collapses to
// point-sized (degenerate) triangles. Each must report only the vertices
// it actually spans, not a whole kd-tree subtree per triangle: one round
// reports at most every pooled vertex once per cover triangle that holds
// it, far below the pool size here.
TEST(MatcherDegenerateCoverTest, TinyInitialEpsilonReportsNoSubtrees) {
  util::Rng rng(91);
  workload::PolygonGenOptions gen;
  gen.min_vertices = 8;
  gen.max_vertices = 16;
  std::vector<Polyline> shapes;
  ShapeBase base;
  for (int s = 0; s < 2000; ++s) {
    shapes.push_back(RandomStarPolygon(&rng, gen));
    ASSERT_TRUE(base.AddShape(shapes.back()).ok());
  }
  ASSERT_TRUE(base.Finalize().ok());
  MatchOptions options;
  options.initial_epsilon = 1e-18;
  options.budget.max_rounds = 1;
  EnvelopeMatcher matcher(&base);
  MatchStats stats;
  (void)matcher.Match(workload::JitterVertices(shapes[5], 0.01, &rng), options,
                      &stats);
  EXPECT_EQ(stats.iterations, 1u);
  EXPECT_LE(stats.vertices_reported, base.NumVertices());
}

}  // namespace
}  // namespace geosir::core
