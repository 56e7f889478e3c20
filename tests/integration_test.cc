// Cross-module integration tests: exercise the full pipelines the
// examples and benchmarks rely on, with assertions instead of prose.

#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "core/envelope_matcher.h"
#include "extract/boundary_trace.h"
#include "extract/edge_detect.h"
#include "extract/rasterize.h"
#include "extract/simplify.h"
#include "hashing/geo_hash_index.h"
#include "query/planner.h"
#include "storage/layout.h"
#include "storage/stored_shape_base.h"
#include "util/rng.h"
#include "workload/noise.h"
#include "workload/query_set.h"

namespace geosir {
namespace {

using geom::Point;
using geom::Polyline;

class GeneratedBaseTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    workload::ImageBaseSpec spec;
    spec.num_images = 60;
    spec.num_prototypes = 12;
    spec.instance_noise = 0.008;
    spec.seed = 20260705;
    auto generated = workload::GenerateImageBase(spec);
    ASSERT_TRUE(generated.ok());
    generated_ = new workload::GeneratedBase(std::move(*generated));
  }
  static void TearDownTestSuite() {
    delete generated_;
    generated_ = nullptr;
  }

  static workload::GeneratedBase* generated_;
};

workload::GeneratedBase* GeneratedBaseTest::generated_ = nullptr;

TEST_F(GeneratedBaseTest, MatcherAndHashingAgreeOnEasyQueries) {
  const auto& base = generated_->images->shape_base();
  core::EnvelopeMatcher matcher(&base);
  auto hash = hashing::GeoHashIndex::Create(&base);
  ASSERT_TRUE(hash.ok());
  hashing::GeoHashCandidateSource source(&*hash);

  util::Rng rng(1);
  int agreements = 0;
  const int kTrials = 8;
  for (int t = 0; t < kTrials; ++t) {
    const Polyline query = workload::JitterVertices(
        generated_->prototypes[t % generated_->prototypes.size()], 0.005,
        &rng);
    auto exact = matcher.Match(query);
    auto approx = matcher.MatchCandidates(query, &source);
    ASSERT_TRUE(exact.ok());
    ASSERT_TRUE(approx.ok());
    ASSERT_FALSE(exact->empty());
    ASSERT_FALSE(approx->empty());
    const int proto_exact =
        generated_->prototype_of_shape[(*exact)[0].shape_id];
    const int proto_approx =
        generated_->prototype_of_shape[(*approx)[0].shape_id];
    if (proto_exact == proto_approx) ++agreements;
  }
  // Hashing is approximate; it must agree with the exact matcher on the
  // large majority of clean queries.
  EXPECT_GE(agreements, kTrials - 2);
}

TEST_F(GeneratedBaseTest, CollectModeIsConsistentWithKBest) {
  const auto& base = generated_->images->shape_base();
  core::EnvelopeMatcher matcher(&base);
  util::Rng rng(2);
  const Polyline query =
      workload::JitterVertices(generated_->prototypes[3], 0.005, &rng);

  core::MatchOptions top;
  top.k = 1;
  auto best = matcher.Match(query, top);
  ASSERT_TRUE(best.ok());
  ASSERT_FALSE(best->empty());

  core::MatchOptions collect;
  collect.collect_threshold = 0.03;
  auto all = matcher.Match(query, collect);
  ASSERT_TRUE(all.ok());
  // The single best match must be in the collected set with the same
  // distance, and every collected distance respects the threshold.
  bool found = false;
  for (const auto& r : *all) {
    EXPECT_LE(r.distance, 0.03);
    if (r.shape_id == (*best)[0].shape_id) {
      EXPECT_NEAR(r.distance, (*best)[0].distance, 1e-9);
      found = true;
    }
  }
  EXPECT_TRUE(found);
  // Collected results are sorted ascending.
  for (size_t i = 1; i < all->size(); ++i) {
    EXPECT_LE((*all)[i - 1].distance, (*all)[i].distance);
  }
}

TEST_F(GeneratedBaseTest, StorageRoundTripPreservesEveryCopy) {
  const auto& base = generated_->images->shape_base();
  auto hash = hashing::GeoHashIndex::Create(&base);
  ASSERT_TRUE(hash.ok());
  std::vector<hashing::CurveQuadruple> quads;
  for (size_t i = 0; i < base.NumCopies(); ++i) {
    quads.push_back(hash->QuadrupleOfCopy(i));
  }
  for (auto policy : {storage::LayoutPolicy::kMeanCurve,
                      storage::LayoutPolicy::kLocalOptimization}) {
    const auto order = storage::ComputeLayout(policy, base, quads);
    auto stored = storage::StoredShapeBase::Create(base, quads, order);
    ASSERT_TRUE(stored.ok());
    storage::BufferManager buffer(&stored->file(), 16);
    for (uint32_t c = 0; c < base.NumCopies(); c += 97) {
      auto record = stored->ReadCopy(c, &buffer);
      ASSERT_TRUE(record.ok());
      EXPECT_EQ(record->shape_id, base.copy(c).shape_id);
      EXPECT_TRUE(record->quadruple == quads[c]);
      ASSERT_EQ(record->vertices.size(), base.copy(c).shape.size());
      for (size_t v = 0; v < record->vertices.size(); ++v) {
        EXPECT_NEAR(record->vertices[v].x, base.copy(c).shape.vertex(v).x,
                    1e-5);
      }
    }
  }
}

TEST_F(GeneratedBaseTest, BiggerBufferNeverIncreasesIo) {
  const auto& base = generated_->images->shape_base();
  auto hash = hashing::GeoHashIndex::Create(&base);
  ASSERT_TRUE(hash.ok());
  std::vector<hashing::CurveQuadruple> quads;
  for (size_t i = 0; i < base.NumCopies(); ++i) {
    quads.push_back(hash->QuadrupleOfCopy(i));
  }
  const auto order =
      storage::ComputeLayout(storage::LayoutPolicy::kMeanCurve, base, quads);
  auto stored = storage::StoredShapeBase::Create(base, quads, order);
  ASSERT_TRUE(stored.ok());

  core::EnvelopeMatcher matcher(&base);
  util::Rng rng(3);
  const Polyline query =
      workload::JitterVertices(generated_->prototypes[5], 0.008, &rng);
  core::AccessTrace trace;
  core::MatchOptions options;
  options.measure = core::MatchMeasure::kDiscreteSymmetric;
  ASSERT_TRUE(matcher.Match(query, options, nullptr, &trace).ok());
  ASSERT_FALSE(trace.empty());

  uint64_t prev_io = ~0ull;
  for (size_t blocks : {1, 4, 16, 64, 256}) {
    storage::BufferManager buffer(&stored->file(), blocks);
    auto io = stored->ReplayTrace(trace, &buffer);
    ASSERT_TRUE(io.ok());
    EXPECT_LE(*io, prev_io) << blocks;  // LRU is monotone here.
    prev_io = *io;
  }
}

TEST_F(GeneratedBaseTest, QueryAlgebraLawsHoldOnRealBase) {
  query::QueryContext context(generated_->images.get());
  const auto& protos = generated_->prototypes;
  const query::ImageSet all = context.AllImages();

  // similar(P) U ~similar(P) == DB.
  query::QueryPtr p = query::Similar(protos[2]);
  auto pos = query::ExecuteQuery(*p, &context);
  query::QueryPtr np = query::Complement(query::Similar(protos[2]));
  auto neg = query::ExecuteQuery(*np, &context);
  ASSERT_TRUE(pos.ok());
  ASSERT_TRUE(neg.ok());
  EXPECT_EQ(query::SetUnion(*pos, *neg), all);
  EXPECT_TRUE(query::SetIntersection(*pos, *neg).empty());

  // Idempotence: P & P == P; P | P == P.
  query::QueryPtr pp = query::Intersect(query::Similar(protos[2]),
                                        query::Similar(protos[2]));
  auto both = query::ExecuteQuery(*pp, &context);
  ASSERT_TRUE(both.ok());
  EXPECT_EQ(*both, *pos);

  // De Morgan executed through the planner:
  // ~(A | B) == ~A & ~B.
  query::QueryPtr lhs = query::Complement(query::Union(
      query::Similar(protos[0]), query::Similar(protos[1])));
  query::QueryPtr rhs = query::Intersect(
      query::Complement(query::Similar(protos[0])),
      query::Complement(query::Similar(protos[1])));
  auto l = query::ExecuteQuery(*lhs, &context);
  auto r = query::ExecuteQuery(*rhs, &context);
  ASSERT_TRUE(l.ok());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*l, *r);
}

TEST(RasterPipelineIntegration, ExtractedShapesMatchTheirPrototypes) {
  util::Rng rng(11);
  workload::PolygonGenOptions gen;
  gen.min_vertices = 6;
  gen.max_vertices = 9;
  gen.spikiness = 0.2;
  std::vector<Polyline> prototypes;
  for (int i = 0; i < 4; ++i) prototypes.push_back(RandomStarPolygon(&rng, gen));

  core::ShapeBase base;
  std::vector<int> proto_of_shape;
  for (int p = 0; p < 4; ++p) {
    extract::Raster image(192, 192);
    const auto t = geom::AffineTransform::Translation({96, 96}) *
                   geom::AffineTransform::Rotation(rng.Uniform(0, 6.28)) *
                   geom::AffineTransform::Scaling(60.0);
    extract::FillPolygon(&image, prototypes[p].Transformed(t), 1.0f);
    const auto boundaries =
        extract::TraceBoundaries(extract::ThresholdForeground(image, 0.5f));
    ASSERT_EQ(boundaries.size(), 1u) << "prototype " << p;
    const Polyline shape = extract::Simplify(boundaries[0], 1.2);
    ASSERT_TRUE(base.AddShape(shape).ok());
    proto_of_shape.push_back(p);
  }
  ASSERT_TRUE(base.Finalize().ok());

  core::EnvelopeMatcher matcher(&base);
  for (int p = 0; p < 4; ++p) {
    auto results = matcher.Match(prototypes[p]);
    ASSERT_TRUE(results.ok());
    ASSERT_FALSE(results->empty());
    EXPECT_EQ(proto_of_shape[(*results)[0].shape_id], p);
    EXPECT_LT((*results)[0].distance, 0.05);
  }
}

}  // namespace
}  // namespace geosir
