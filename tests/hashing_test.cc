#include <algorithm>
#include <cmath>
#include <string>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "core/envelope_matcher.h"
#include "core/normalize.h"
#include "hashing/geo_hash_index.h"
#include "hashing/hash_curves.h"
#include "hashing/lune.h"
#include "util/rng.h"

namespace geosir::hashing {
namespace {

using geom::Point;
using geom::Polyline;

Polyline RegularPolygon(int n, double r, Point c = {0, 0},
                        double phase = 0.0) {
  std::vector<Point> v;
  for (int i = 0; i < n; ++i) {
    const double a = phase + 2.0 * M_PI * i / n;
    v.push_back({c.x + r * std::cos(a), c.y + r * std::sin(a)});
  }
  return Polyline::Closed(std::move(v));
}

/// The index's k best under `options.measure`: its candidates ranked by
/// the matcher's verifier.
util::Result<std::vector<core::MatchResult>> HashMatch(
    const core::ShapeBase& base, const GeoHashIndex& index,
    const Polyline& query, size_t k, core::MatchOptions options = {},
    core::MatchStats* stats = nullptr) {
  core::EnvelopeMatcher matcher(&base);
  GeoHashCandidateSource source(&index);
  options.k = k;
  return matcher.MatchCandidates(query, &source, options, stats);
}

TEST(LuneTest, QuarterClassification) {
  EXPECT_EQ(LuneQuarter({0.2, 0.3}), 0);
  EXPECT_EQ(LuneQuarter({0.8, 0.3}), 1);
  EXPECT_EQ(LuneQuarter({0.2, -0.3}), 2);
  EXPECT_EQ(LuneQuarter({0.8, -0.3}), 3);
  EXPECT_EQ(LuneQuarter({0.5, 0.0}), 1);  // Boundary conventions.
}

TEST(LuneTest, InsideLune) {
  EXPECT_TRUE(InsideLune({0.5, 0.0}));
  EXPECT_TRUE(InsideLune({0.5, 0.8}));
  EXPECT_FALSE(InsideLune({0.5, 0.9}));   // sqrt(3)/2 ~ 0.866.
  EXPECT_FALSE(InsideLune({-0.1, 0.0}));
  EXPECT_TRUE(InsideLune({0.0, 0.0}));
  EXPECT_TRUE(InsideLune({1.0, 0.0}));
}

TEST(LuneTest, ClampProjectsOutsidePoints) {
  util::Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    const Point p{rng.Uniform(-1.5, 2.5), rng.Uniform(-1.5, 1.5)};
    const Point q = ClampToLune(p);
    EXPECT_TRUE(InsideLune(q, 1e-9)) << p.x << "," << p.y;
    if (InsideLune(p)) {
      EXPECT_EQ(p, q);  // Inside points are untouched.
    }
  }
}

TEST(HashCurvesTest, EIsMonotoneWithCorrectEndpoints) {
  EXPECT_NEAR(LuneAreaE(0.0), 0.0, 1e-12);
  EXPECT_NEAR(LuneAreaE(1.0), kLuneAreaA0 / 4.0, 1e-8);
  double prev = -1.0;
  for (double x = 0.0; x <= 1.0; x += 0.05) {
    const double e = LuneAreaE(x);
    EXPECT_GT(e, prev) << "x=" << x;
    prev = e;
  }
}

TEST(HashCurvesTest, DerivativeIsNonNegativeAndContinuousLooking) {
  // dE/dx is continuous on [0,1] but steepens sharply near x = 1; check
  // step-continuity on [0, 0.9] and only non-negativity beyond.
  double prev = LuneAreaEDerivative(0.01);
  for (double x = 0.05; x <= 0.99; x += 0.02) {
    const double d = LuneAreaEDerivative(x);
    EXPECT_GE(d, -1e-6);
    if (x <= 0.9) {
      EXPECT_LT(std::fabs(d - prev), 0.2) << "jump at x=" << x;
    }
    prev = d;
  }
}

TEST(HashCurvesTest, ArcFamilyEqualAreas) {
  auto family = ArcFamily::Create(50);
  ASSERT_TRUE(family.ok());
  ASSERT_EQ(family->size(), 50);
  const double quarter = kLuneAreaA0 / 4.0;
  for (int i = 1; i <= 50; ++i) {
    EXPECT_NEAR(LuneAreaE(family->x(i - 1)), quarter * i / 50.0, 1e-6)
        << "arc " << i;
  }
  // Strictly increasing parameters, last one at 1.
  for (int i = 1; i < 50; ++i) {
    EXPECT_LT(family->x(i - 1), family->x(i));
  }
  EXPECT_DOUBLE_EQ(family->x(49), 1.0);
}

TEST(HashCurvesTest, ArcsPassThroughLuneTips) {
  // q1/q3 circles pass through (0,0); q2/q4 through (1,0).
  for (double x : {0.2, 0.5, 0.9}) {
    EXPECT_NEAR(ArcDistance({0, 0}, x, 0), 0.0, 1e-12);
    EXPECT_NEAR(ArcDistance({0, 0}, x, 2), 0.0, 1e-12);
    EXPECT_NEAR(ArcDistance({1, 0}, x, 1), 0.0, 1e-12);
    EXPECT_NEAR(ArcDistance({1, 0}, x, 3), 0.0, 1e-12);
  }
}

TEST(HashCurvesTest, CharacteristicCurveOfPointsOnArc) {
  auto family = ArcFamily::Create(25);
  ASSERT_TRUE(family.ok());
  // Sample points exactly on the arc with parameter x_10 inside q1 and
  // check the characteristic curve comes back as that arc.
  const int target = 10;
  const double x = family->x(target);
  const Point center = ArcCenter(x, 0);
  std::vector<Point> pts;
  for (double a = 0.02; a < 1.5; a += 0.02) {
    const Point p = center + Point{std::cos(M_PI / 2 + a),
                                   std::sin(M_PI / 2 + a)};
    if (InsideLune(p) && LuneQuarter(p) == 0 && p.y > 1e-3) pts.push_back(p);
  }
  ASSERT_GE(pts.size(), 3u);
  EXPECT_EQ(family->CharacteristicCurve(pts, 0), target);
}

TEST(HashCurvesTest, EmptyVertexSetHasNoCurve) {
  auto family = ArcFamily::Create(10);
  ASSERT_TRUE(family.ok());
  EXPECT_EQ(family->CharacteristicCurve({}, 0), -1);
}

TEST(HashCurvesTest, QuadrupleKeys) {
  CurveQuadruple quad;
  quad.c[0] = 10;
  quad.c[1] = 20;
  quad.c[2] = 30;
  quad.c[3] = 44;
  EXPECT_EQ(quad.MeanCurve(), 26);
  EXPECT_EQ(quad.MedianCurve(), 30);  // Medians 20/30; mean 26 -> 30 closer.
  CurveQuadruple other = quad;
  EXPECT_TRUE(quad == other);
  other.c[3] = 45;
  EXPECT_FALSE(quad == other);
}

TEST(HashCurvesTest, SimilarShapesShareOrNeighborCurves) {
  auto family = ArcFamily::Create(50);
  ASSERT_TRUE(family.ok());
  util::Rng rng(11);
  core::Shape s;
  s.boundary = RegularPolygon(12, 1.0);
  auto copies = core::NormalizeShape(s);
  ASSERT_TRUE(copies.ok());
  const CurveQuadruple base_quad =
      ComputeQuadruple(*family, copies->front().shape);

  // Small jitter: curves should move at most a couple of indices.
  Polyline noisy = RegularPolygon(12, 1.0);
  for (Point& p : noisy.mutable_vertices()) {
    p += Point{rng.Gaussian(0.004), rng.Gaussian(0.004)};
  }
  core::Shape s2;
  s2.boundary = noisy;
  auto copies2 = core::NormalizeShape(s2);
  ASSERT_TRUE(copies2.ok());
  const CurveQuadruple noisy_quad =
      ComputeQuadruple(*family, copies2->front().shape);
  for (int q = 0; q < 4; ++q) {
    EXPECT_LE(std::abs(base_quad.c[q] - noisy_quad.c[q]), 3) << "quarter " << q;
  }
}

TEST(CurveFamilyTest, VerticalLinesEqualAreas) {
  auto family = ArcFamily::Create(20, CurveFamilyKind::kVerticalLines);
  ASSERT_TRUE(family.ok());
  EXPECT_EQ(family->kind(), CurveFamilyKind::kVerticalLines);
  const double quarter = kLuneAreaA0 / 4.0;
  for (int i = 1; i <= 20; ++i) {
    EXPECT_NEAR(LuneSlabArea(family->x(i - 1)), quarter * i / 20.0, 1e-6)
        << "line " << i;
  }
  EXPECT_DOUBLE_EQ(family->x(19), 0.5);
}

TEST(CurveFamilyTest, LineDistanceIsHorizontal) {
  auto family = ArcFamily::Create(10, CurveFamilyKind::kVerticalLines);
  ASSERT_TRUE(family.ok());
  const double x = family->x(4);
  // Left quarters measure |p.x - x|, right quarters mirror about 1/2.
  EXPECT_NEAR(family->CurveDistance({x + 0.07, 0.3}, x, 0), 0.07, 1e-12);
  EXPECT_NEAR(family->CurveDistance({x + 0.07, -0.3}, x, 2), 0.07, 1e-12);
  EXPECT_NEAR(family->CurveDistance({1.0 - x, 0.3}, x, 1), 0.0, 1e-12);
}

TEST(CurveFamilyTest, CharacteristicLineOfVerticalCluster) {
  auto family = ArcFamily::Create(25, CurveFamilyKind::kVerticalLines);
  ASSERT_TRUE(family.ok());
  const int target = 12;
  const double x = family->x(target);
  std::vector<Point> pts;
  for (double y = 0.05; y < 0.4; y += 0.05) pts.push_back({x, y});
  EXPECT_EQ(family->CharacteristicCurve(pts, 0), target);
}

TEST(CurveFamilyTest, BothFamiliesDriveRetrieval) {
  core::ShapeBase base;
  for (int n = 4; n <= 9; ++n) {
    std::vector<Point> v;
    for (int i = 0; i < n; ++i) {
      const double a = 2.0 * M_PI * i / n;
      v.push_back({std::cos(a), std::sin(a)});
    }
    ASSERT_TRUE(base.AddShape(Polyline::Closed(std::move(v))).ok());
  }
  ASSERT_TRUE(base.Finalize().ok());
  for (auto kind : {CurveFamilyKind::kUnitCircleArcs,
                    CurveFamilyKind::kVerticalLines}) {
    GeoHashOptions options;
    options.family = kind;
    auto index = GeoHashIndex::Create(&base, options);
    ASSERT_TRUE(index.ok()) << CurveFamilyKindName(kind);
    auto results = HashMatch(base, *index, RegularPolygon(7, 1.0), 1);
    ASSERT_TRUE(results.ok());
    ASSERT_FALSE(results->empty());
    EXPECT_EQ(base.shape((*results)[0].shape_id).boundary.size(), 7u)
        << CurveFamilyKindName(kind);
  }
}

class GeoHashIndexTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (int n = 4; n <= 12; ++n) {
      ASSERT_TRUE(base_.AddShape(RegularPolygon(n, 1.0)).ok());
    }
    ASSERT_TRUE(base_.Finalize().ok());
  }
  core::ShapeBase base_;
};

TEST_F(GeoHashIndexTest, RetrievesExactShape) {
  auto index = GeoHashIndex::Create(&base_);
  ASSERT_TRUE(index.ok());
  auto results = HashMatch(base_, *index, RegularPolygon(9, 1.0), 1);
  ASSERT_TRUE(results.ok());
  ASSERT_FALSE(results->empty());
  EXPECT_EQ(base_.shape((*results)[0].shape_id).boundary.size(), 9u);
  EXPECT_NEAR((*results)[0].distance, 0.0, 1e-6);
}

TEST_F(GeoHashIndexTest, ApproximateRetrievalUnderDistortion) {
  auto index = GeoHashIndex::Create(&base_);
  ASSERT_TRUE(index.ok());
  util::Rng rng(21);
  Polyline distorted = RegularPolygon(10, 1.0);
  for (Point& p : distorted.mutable_vertices()) {
    p += Point{rng.Gaussian(0.015), rng.Gaussian(0.015)};
  }
  auto results = HashMatch(base_, *index, distorted, 3);
  ASSERT_TRUE(results.ok());
  ASSERT_FALSE(results->empty());
  EXPECT_EQ(base_.shape((*results)[0].shape_id).boundary.size(), 10u);
}

TEST_F(GeoHashIndexTest, InvariantUnderSimilarityTransform) {
  auto index = GeoHashIndex::Create(&base_);
  ASSERT_TRUE(index.ok());
  const geom::AffineTransform t = geom::AffineTransform::Translation({7, -3}) *
                                  geom::AffineTransform::Rotation(2.2) *
                                  geom::AffineTransform::Scaling(0.4);
  auto results =
      HashMatch(base_, *index, RegularPolygon(6, 1.0).Transformed(t), 1);
  ASSERT_TRUE(results.ok());
  ASSERT_FALSE(results->empty());
  EXPECT_EQ(base_.shape((*results)[0].shape_id).boundary.size(), 6u);
}

TEST_F(GeoHashIndexTest, BucketOccupancyIsModest) {
  auto index = GeoHashIndex::Create(&base_);
  ASSERT_TRUE(index.ok());
  EXPECT_GT(index->AverageBucketOccupancy(), 0.0);
  EXPECT_LT(index->AverageBucketOccupancy(), 20.0);
}

TEST_F(GeoHashIndexTest, QuadruplesStoredPerCopy) {
  auto index = GeoHashIndex::Create(&base_);
  ASSERT_TRUE(index.ok());
  for (size_t i = 0; i < base_.NumCopies(); ++i) {
    const CurveQuadruple& quad = index->QuadrupleOfCopy(i);
    for (int q = 0; q < 4; ++q) {
      EXPECT_GE(quad.c[q], 0);
      EXPECT_LE(quad.c[q], index->options().curves_per_quarter);
    }
  }
}

// --- CandidateSource contract edge cases -------------------------------
// The GeoHash index doubles as a CandidateSource behind the shared tiered
// retrieval seam (core/candidate_source.h); these cases pin the corners
// every implementation must agree on.

TEST(GeoHashCandidateSourceTest, EmptyBaseEmitsNothing) {
  core::ShapeBase base;
  ASSERT_TRUE(base.Finalize().ok());
  auto index = GeoHashIndex::Create(&base);
  ASSERT_TRUE(index.ok());
  GeoHashCandidateSource source(&*index);
  auto norm = core::NormalizeQuery(RegularPolygon(6, 1.0));
  ASSERT_TRUE(norm.ok());
  std::vector<uint32_t> out = {99};  // Must be cleared.
  core::CandidateSourceStats stats;
  ASSERT_TRUE(source.Generate(norm->shape, 0, {}, &out, &stats).ok());
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(stats.candidates_emitted, 0u);
  EXPECT_FALSE(stats.truncated);
}

TEST(GeoHashCandidateSourceTest, SingleShapeBaseFindsIt) {
  core::ShapeBase base;
  ASSERT_TRUE(base.AddShape(RegularPolygon(7, 1.0)).ok());
  ASSERT_TRUE(base.Finalize().ok());
  auto index = GeoHashIndex::Create(&base);
  ASSERT_TRUE(index.ok());
  GeoHashCandidateSource source(&*index);
  auto norm = core::NormalizeQuery(RegularPolygon(7, 1.0));
  ASSERT_TRUE(norm.ok());
  std::vector<uint32_t> out;
  core::CandidateSourceStats stats;
  ASSERT_TRUE(source.Generate(norm->shape, 0, {}, &out, &stats).ok());
  ASSERT_FALSE(out.empty());
  EXPECT_EQ(base.copy(out[0]).shape_id, 0u);
  EXPECT_GT(stats.tables_probed, 0u);
}

TEST(GeoHashCandidateSourceTest, DuplicateShapesAllEmitted) {
  // Exact duplicates and a near-duplicate hash to the same (or
  // neighboring) curve quadruples; the candidate set must carry every
  // copy, not collapse them.
  core::ShapeBase base;
  util::Rng rng(33);
  ASSERT_TRUE(base.AddShape(RegularPolygon(8, 1.0)).ok());
  ASSERT_TRUE(base.AddShape(RegularPolygon(8, 1.0)).ok());
  Polyline near_dup = RegularPolygon(8, 1.0);
  for (Point& p : near_dup.mutable_vertices()) {
    p += Point{rng.Gaussian(0.002), rng.Gaussian(0.002)};
  }
  ASSERT_TRUE(base.AddShape(near_dup).ok());
  ASSERT_TRUE(base.AddShape(RegularPolygon(4, 1.0)).ok());  // Distractor.
  ASSERT_TRUE(base.Finalize().ok());

  auto index = GeoHashIndex::Create(&base);
  ASSERT_TRUE(index.ok());
  GeoHashCandidateSource source(&*index);
  auto norm = core::NormalizeQuery(RegularPolygon(8, 1.0));
  ASSERT_TRUE(norm.ok());
  std::vector<uint32_t> out;
  ASSERT_TRUE(source.Generate(norm->shape, 0, {}, &out, nullptr).ok());
  std::vector<bool> seen(base.NumShapes(), false);
  for (uint32_t c : out) seen[base.copy(c).shape_id] = true;
  EXPECT_TRUE(seen[0]);
  EXPECT_TRUE(seen[1]);
  EXPECT_TRUE(seen[2]);
}

TEST(GeoHashCandidateSourceTest, RepeatedQueriesAreDeterministic) {
  core::ShapeBase base;
  util::Rng rng(37);
  for (int n = 4; n <= 11; ++n) {
    for (int i = 0; i < 3; ++i) {
      Polyline p = RegularPolygon(n, 1.0);
      for (Point& v : p.mutable_vertices()) {
        v += Point{rng.Gaussian(0.01), rng.Gaussian(0.01)};
      }
      ASSERT_TRUE(base.AddShape(p).ok());
    }
  }
  ASSERT_TRUE(base.Finalize().ok());
  auto index = GeoHashIndex::Create(&base);
  ASSERT_TRUE(index.ok());
  GeoHashCandidateSource source(&*index);
  auto norm = core::NormalizeQuery(RegularPolygon(9, 1.0));
  ASSERT_TRUE(norm.ok());

  std::vector<uint32_t> first;
  ASSERT_TRUE(source.Generate(norm->shape, 0, {}, &first, nullptr).ok());
  ASSERT_FALSE(first.empty());
  for (int run = 0; run < 5; ++run) {
    std::vector<uint32_t> again;
    ASSERT_TRUE(source.Generate(norm->shape, 0, {}, &again, nullptr).ok());
    EXPECT_EQ(first, again) << "run " << run;
  }
  // No duplicates in the emitted sequence (contract).
  std::vector<uint32_t> sorted = first;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end());

  // Truncation keeps the ranked prefix.
  std::vector<uint32_t> top;
  core::CandidateSourceStats stats;
  ASSERT_TRUE(source.Generate(norm->shape, 2, {}, &top, &stats).ok());
  if (first.size() > 2) {
    EXPECT_TRUE(stats.truncated);
    ASSERT_EQ(top.size(), 2u);
    EXPECT_TRUE(std::equal(top.begin(), top.end(), first.begin()));
  }
}

TEST(GeoHashCandidateSourceTest, VerifierRanksAsFullScoring) {
  // MatchCandidates over the source ranks exactly as full scoring of
  // every collected copy: FoldBest over CollectCandidates in copy order,
  // then RankResults. Ids and distances agree bit for bit; the copy index
  // may differ only where two copies of one shape tie exactly (regular
  // polygons have several diameters, hence identical copies).
  core::ShapeBase base;
  util::Rng rng(41);
  for (int n = 4; n <= 12; ++n) {
    ASSERT_TRUE(base.AddShape(RegularPolygon(n, 1.0)).ok());
    for (int i = 0; i < 3; ++i) {
      Polyline p = RegularPolygon(n, 1.0);
      for (Point& v : p.mutable_vertices()) {
        v += Point{rng.Gaussian(0.01), rng.Gaussian(0.01)};
      }
      ASSERT_TRUE(base.AddShape(p).ok());
    }
  }
  ASSERT_TRUE(base.Finalize().ok());
  auto index = GeoHashIndex::Create(&base);
  ASSERT_TRUE(index.ok());

  for (core::MatchMeasure measure :
       {core::MatchMeasure::kContinuousSymmetric,
        core::MatchMeasure::kContinuousDirected,
        core::MatchMeasure::kDiscreteSymmetric,
        core::MatchMeasure::kDiscreteDirected}) {
    for (int n = 4; n <= 12; n += 2) {
      Polyline query = RegularPolygon(n, 2.0, {1, -3}, 0.3);
      for (Point& v : query.mutable_vertices()) {
        v += Point{rng.Gaussian(0.02), rng.Gaussian(0.02)};
      }
      auto qnorm = core::NormalizeQuery(query);
      ASSERT_TRUE(qnorm.ok());
      const core::QueryTarget target(qnorm->shape, {});
      const auto collected = index->CollectCandidates(qnorm->shape);
      ASSERT_FALSE(collected.empty());
      std::unordered_map<core::ShapeId, core::MatchResult> best;
      for (const auto& [c, count] : collected) {
        core::FoldBest(
            {base.copy(c).shape_id, target.Score(base.copy(c).shape, measure),
             c},
            &best);
      }
      for (size_t k : {1, 10}) {
        SCOPED_TRACE("measure " + std::to_string(static_cast<int>(measure)) +
                     " n " + std::to_string(n) + " k " + std::to_string(k));
        std::vector<core::MatchResult> want;
        for (const auto& [id, r] : best) want.push_back(r);
        core::RankResults(&want, k);
        core::MatchOptions options;
        options.measure = measure;
        core::MatchStats stats;
        auto got = HashMatch(base, *index, query, k, options, &stats);
        ASSERT_TRUE(got.ok());
        EXPECT_EQ(stats.candidates_evaluated, collected.size());
        ASSERT_EQ(got->size(), want.size());
        for (size_t i = 0; i < want.size(); ++i) {
          const core::MatchResult& g = (*got)[i];
          EXPECT_EQ(g.shape_id, want[i].shape_id) << i;
          EXPECT_EQ(g.distance, want[i].distance) << i;
          if (g.copy_index == want[i].copy_index) continue;
          EXPECT_EQ(base.copy(g.copy_index).shape_id, g.shape_id) << i;
          EXPECT_EQ(target.Score(base.copy(g.copy_index).shape, measure),
                    want[i].distance)
              << i;
        }
      }
    }
  }
}

TEST(GeoHashIndexErrorsTest, UnfinalizedBaseRejected) {
  core::ShapeBase base;
  ASSERT_TRUE(base.AddShape(RegularPolygon(5, 1.0)).ok());
  EXPECT_FALSE(GeoHashIndex::Create(&base).ok());
}

TEST(GeoHashIndexErrorsTest, BadCurveCountRejected) {
  core::ShapeBase base;
  ASSERT_TRUE(base.AddShape(RegularPolygon(5, 1.0)).ok());
  ASSERT_TRUE(base.Finalize().ok());
  GeoHashOptions opts;
  opts.curves_per_quarter = 0;
  EXPECT_FALSE(GeoHashIndex::Create(&base, opts).ok());
}

}  // namespace
}  // namespace geosir::hashing
