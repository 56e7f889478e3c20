#include <cmath>
#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "query/image_base.h"
#include "query/operators.h"
#include "query/parser.h"
#include "query/planner.h"
#include "query/selectivity.h"
#include "query/topology.h"
#include "util/rng.h"

namespace geosir::query {
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

Polyline Rect(Point lo, Point hi) {
  return Polyline::Closed({lo, {hi.x, lo.y}, hi, {lo.x, hi.y}});
}

TEST(TopologyTest, RelationsDetected) {
  const Polyline outer = Rect({0, 0}, {10, 10});
  const Polyline inner = Rect({2, 2}, {4, 4});
  const Polyline crossing = Rect({8, 8}, {12, 12});
  const Polyline away = Rect({20, 20}, {22, 22});

  EXPECT_TRUE(TestRelation(Relation::kContain, outer, inner));
  EXPECT_FALSE(TestRelation(Relation::kContain, inner, outer));
  EXPECT_TRUE(TestRelation(Relation::kOverlap, outer, crossing));
  EXPECT_FALSE(TestRelation(Relation::kOverlap, outer, inner));
  EXPECT_TRUE(TestRelation(Relation::kDisjoint, outer, away));
  EXPECT_FALSE(TestRelation(Relation::kDisjoint, outer, inner));
}

TEST(TopologyTest, OpenPolylineRelations) {
  const Polyline box = Rect({0, 0}, {10, 10});
  const Polyline inside_path = Polyline::Open({{1, 1}, {3, 2}, {5, 1}});
  const Polyline crossing_path = Polyline::Open({{5, 5}, {15, 5}});
  EXPECT_TRUE(TestRelation(Relation::kContain, box, inside_path));
  EXPECT_FALSE(TestRelation(Relation::kContain, inside_path, box));
  EXPECT_TRUE(TestRelation(Relation::kOverlap, box, crossing_path));
}

TEST(TopologyTest, GraphBuildAndEdgeDirections) {
  const Polyline outer = Rect({0, 0}, {10, 10});
  const Polyline inner = Rect({2, 2}, {4, 4});
  const Polyline lapping = Rect({9, 9}, {12, 12});
  std::vector<core::ShapeId> ids{0, 1, 2};
  std::vector<const Polyline*> shapes{&outer, &inner, &lapping};
  const TopologyGraph graph = TopologyGraph::Build(ids, shapes);

  EXPECT_EQ(graph.RelationBetween(0, 1), Relation::kContain);
  EXPECT_EQ(graph.RelationBetween(1, 0), Relation::kDisjoint);  // No edge.
  EXPECT_EQ(graph.RelationBetween(0, 2), Relation::kOverlap);
  EXPECT_EQ(graph.RelationBetween(2, 0), Relation::kOverlap);
  EXPECT_EQ(graph.RelationBetween(1, 2), Relation::kDisjoint);
  EXPECT_EQ(graph.EdgesFrom(0).size(), 2u);
}

TEST(TopologyTest, DiameterAngle) {
  // Horizontal vs vertical rectangles: diameters are the diagonals, so
  // compare two rects rotated by 90 degrees.
  const Polyline horizontal =
      Polyline::Closed({{0, 0}, {4, 0}, {4, 0.2}, {0, 0.2}});
  const Polyline vertical =
      Polyline::Closed({{0, 0}, {0.2, 0}, {0.2, 4}, {0, 4}});
  const double angle = std::fabs(DiameterAngle(horizontal, vertical));
  // Diameters are near-diagonal; angle should be near pi/2 (within the
  // diagonal skew of the thin rectangles).
  EXPECT_NEAR(angle, M_PI / 2, 0.15);
}

TEST(SelectivityTest, SignificantVerticesBounds) {
  for (int n = 3; n <= 24; n += 3) {
    const Polyline poly = RegularPolygon(n, 1.0);
    const double vs = SignificantVertices(poly);
    EXPECT_GT(vs, 0.0) << n;
    EXPECT_LE(vs, static_cast<double>(n)) << n;
  }
}

TEST(SelectivityTest, PaperWorkedExample) {
  // Figure 9 left: the 5-vertex normalized shape with stated per-vertex
  // contributions summing to 2*(1/2 + sqrt(10)/10) +
  // 2*(3/8 + (2+sqrt2)sqrt10/20) + (1/2 + sqrt5/10).
  // Reconstruct such a shape: a "house" profile with the stated angles
  // is the unit-diameter pentagon below.
  const Polyline house = Polyline::Closed(
      {{0, 0}, {1, 0}, {1, 0.4}, {0.5, 0.6}, {0, 0.4}});
  const double vs = SignificantVertices(house);
  // The construction is not the paper's exact shape; assert the formula
  // produces the expected range (significant but < V(Q) = 5).
  EXPECT_GT(vs, 1.5);
  EXPECT_LT(vs, 5.0);
}

TEST(SelectivityTest, DegenerateVerticesContributeLittle) {
  // A square vs the same square with 4 extra collinear mid-edge vertices:
  // V(Q) grows by 4 but V_S(Q) must grow much less (collinear vertices
  // have angle pi -> zero angle term; only edge-length terms persist).
  const Polyline square = Rect({0, 0}, {1, 1});
  const Polyline subdivided = Polyline::Closed({{0, 0},
                                                {0.5, 0},
                                                {1, 0},
                                                {1, 0.5},
                                                {1, 1},
                                                {0.5, 1},
                                                {0, 1},
                                                {0, 0.5}});
  const double vs_square = SignificantVertices(square);
  const double vs_subdivided = SignificantVertices(subdivided);
  EXPECT_LT(std::fabs(vs_subdivided - vs_square), 1.0);
}

TEST(SelectivityTest, ModelAdapts) {
  SelectivityModel model(10.0);
  EXPECT_NEAR(model.Estimate(2.0), 5.0, 1e-12);
  model.Observe(2.0, 8);  // c sample = 16.
  EXPECT_NEAR(model.c(), 16.0, 1e-12);
  model.Observe(4.0, 2);  // c sample = 8 -> mean 12.
  EXPECT_NEAR(model.c(), 12.0, 1e-12);
  EXPECT_EQ(model.observations(), 2u);
}

TEST(AstTest, BuildersAndToString) {
  QueryPtr q = Intersect(
      Similar(RegularPolygon(5, 1.0)),
      Complement(Overlap(RegularPolygon(4, 1.0), RegularPolygon(3, 1.0))));
  const std::string text = ToString(*q);
  EXPECT_NE(text.find("similar"), std::string::npos);
  EXPECT_NE(text.find("overlap"), std::string::npos);
  EXPECT_NE(text.find("~"), std::string::npos);
}

TEST(AstTest, DnfOfLeafIsSingleTerm) {
  QueryPtr q = Similar(RegularPolygon(5, 1.0));
  auto dnf = ToDnf(*q);
  ASSERT_TRUE(dnf.ok());
  ASSERT_EQ(dnf->terms.size(), 1u);
  ASSERT_EQ(dnf->terms[0].factors.size(), 1u);
  EXPECT_FALSE(dnf->terms[0].factors[0].complemented);
}

TEST(AstTest, DnfDistributesIntersectionOverUnion) {
  // (A | B) & C -> A&C | B&C.
  QueryPtr q = Intersect(Union(Similar(RegularPolygon(3, 1.0)),
                               Similar(RegularPolygon(4, 1.0))),
                         Similar(RegularPolygon(5, 1.0)));
  auto dnf = ToDnf(*q);
  ASSERT_TRUE(dnf.ok());
  EXPECT_EQ(dnf->terms.size(), 2u);
  for (const DnfTerm& term : dnf->terms) {
    EXPECT_EQ(term.factors.size(), 2u);
  }
}

TEST(AstTest, DnfPushesComplementsWithDeMorgan) {
  // ~(A | B) -> ~A & ~B (one term, both complemented).
  QueryPtr q = Complement(Union(Similar(RegularPolygon(3, 1.0)),
                                Similar(RegularPolygon(4, 1.0))));
  auto dnf = ToDnf(*q);
  ASSERT_TRUE(dnf.ok());
  ASSERT_EQ(dnf->terms.size(), 1u);
  ASSERT_EQ(dnf->terms[0].factors.size(), 2u);
  EXPECT_TRUE(dnf->terms[0].factors[0].complemented);
  EXPECT_TRUE(dnf->terms[0].factors[1].complemented);
}

TEST(AstTest, DoubleComplementCancels) {
  QueryPtr q = Complement(Complement(Similar(RegularPolygon(3, 1.0))));
  auto dnf = ToDnf(*q);
  ASSERT_TRUE(dnf.ok());
  ASSERT_EQ(dnf->terms.size(), 1u);
  EXPECT_FALSE(dnf->terms[0].factors[0].complemented);
}

/// Shared fixture: a small image base with known ground truth.
///  image 0: big square containing a triangle.
///  image 1: big square overlapping a pentagon-sized square.
///  image 2: triangle and pentagon, disjoint.
///  image 3: only a hexagon.
class QueryFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    tri_ = RegularPolygon(3, 1.0, {3, 3});
    penta_ = RegularPolygon(5, 1.0, {8, 8});
    hexa_ = RegularPolygon(6, 1.0, {4, 4});
    big_ = Rect({0, 0}, {10, 10});

    ASSERT_TRUE(base_.AddImage({big_, RegularPolygon(3, 1.0, {5, 5})},
                               "contains-tri").ok());
    ASSERT_TRUE(base_.AddImage({Rect({0, 0}, {6, 6}),
                                Rect({5, 5}, {11, 11})},
                               "overlapping-squares").ok());
    ASSERT_TRUE(base_.AddImage({RegularPolygon(3, 1.0, {0, 0}),
                                RegularPolygon(5, 1.0, {8, 8})},
                               "tri-penta-disjoint").ok());
    ASSERT_TRUE(base_.AddImage({RegularPolygon(6, 1.0, {4, 4})},
                               "hexa-only").ok());
    ASSERT_TRUE(base_.Finalize().ok());
    context_ = std::make_unique<QueryContext>(&base_);
  }

  Polyline tri_, penta_, hexa_, big_;
  ImageBase base_;
  std::unique_ptr<QueryContext> context_;
};

TEST_F(QueryFixture, SimilarOperator) {
  auto images = context_->EvalSimilar(RegularPolygon(3, 1.0));
  ASSERT_TRUE(images.ok());
  EXPECT_EQ(*images, (ImageSet{0, 2}));
  auto hexa = context_->EvalSimilar(RegularPolygon(6, 1.0));
  ASSERT_TRUE(hexa.ok());
  EXPECT_EQ(*hexa, (ImageSet{3}));
}

TEST_F(QueryFixture, ContainOperator) {
  for (TopoStrategy strategy :
       {TopoStrategy::kDriveSmaller, TopoStrategy::kIntersectImages}) {
    auto images = context_->EvalTopological(
        Relation::kContain, Rect({0, 0}, {1, 1}), RegularPolygon(3, 1.0),
        std::nullopt, strategy);
    ASSERT_TRUE(images.ok());
    EXPECT_EQ(*images, (ImageSet{0})) << "strategy "
                                      << static_cast<int>(strategy);
  }
}

TEST_F(QueryFixture, OverlapOperator) {
  for (TopoStrategy strategy :
       {TopoStrategy::kDriveSmaller, TopoStrategy::kIntersectImages}) {
    auto images = context_->EvalTopological(
        Relation::kOverlap, Rect({0, 0}, {1, 1}), Rect({0, 0}, {1, 1}),
        std::nullopt, strategy);
    ASSERT_TRUE(images.ok());
    EXPECT_EQ(*images, (ImageSet{1}));
  }
}

TEST_F(QueryFixture, DisjointOperator) {
  for (TopoStrategy strategy :
       {TopoStrategy::kDriveSmaller, TopoStrategy::kIntersectImages}) {
    auto images = context_->EvalTopological(
        Relation::kDisjoint, RegularPolygon(3, 1.0), RegularPolygon(5, 1.0),
        std::nullopt, strategy);
    ASSERT_TRUE(images.ok());
    EXPECT_EQ(*images, (ImageSet{2}));
  }
}

TEST(TopoStrategyTest, BothStrategiesApplyTheConfiguredMeasure) {
  // Image 0 holds two disjoint rectangles inscribed in a hexagon: their
  // vertices lie on the hexagon's boundary while two of their edges cut
  // across it, so under the discrete directed measure they match the
  // hexagon exactly and under the other measures they do not. Image 1
  // (two disjoint hexagons) matches under every measure. Strategy 1's
  // direct g_similar test and strategy 2's shape_similar sets must agree
  // under each measure.
  const auto inscribed_rectangle = [](Point c) {
    std::vector<Point> v;
    for (int i : {0, 1, 3, 4}) {
      const double a = M_PI / 3 * i;
      v.push_back({c.x + std::cos(a), c.y + std::sin(a)});
    }
    return Polyline::Closed(std::move(v));
  };
  ImageBase images;
  ASSERT_TRUE(images
                  .AddImage({inscribed_rectangle({0, 0}),
                             inscribed_rectangle({5, 0})},
                            "rectangles")
                  .ok());
  ASSERT_TRUE(images
                  .AddImage({RegularPolygon(6, 1.0, {0, 10}),
                             RegularPolygon(6, 1.0, {5, 10})},
                            "hexagons")
                  .ok());
  ASSERT_TRUE(images.Finalize().ok());
  const Polyline hexagon = RegularPolygon(6, 2.0, {-3, 1});
  for (core::MatchMeasure measure :
       {core::MatchMeasure::kContinuousSymmetric,
        core::MatchMeasure::kContinuousDirected,
        core::MatchMeasure::kDiscreteSymmetric,
        core::MatchMeasure::kDiscreteDirected}) {
    SCOPED_TRACE(static_cast<int>(measure));
    QueryContextOptions options;
    options.match.measure = measure;
    QueryContext context(&images, options);
    auto drive = context.EvalTopological(Relation::kDisjoint, hexagon, hexagon,
                                         std::nullopt,
                                         TopoStrategy::kDriveSmaller);
    auto intersect = context.EvalTopological(
        Relation::kDisjoint, hexagon, hexagon, std::nullopt,
        TopoStrategy::kIntersectImages);
    ASSERT_TRUE(drive.ok());
    ASSERT_TRUE(intersect.ok());
    EXPECT_EQ(*drive, *intersect);
    EXPECT_EQ(*intersect,
              measure == core::MatchMeasure::kDiscreteDirected
                  ? (ImageSet{0, 1})
                  : (ImageSet{1}));
  }
}

TEST_F(QueryFixture, ComplementViaPlanner) {
  // similar(tri) & ~contain(square, tri): image 0 has the containment,
  // image 2 has a triangle without it.
  QueryPtr q = Intersect(
      Similar(RegularPolygon(3, 1.0)),
      Complement(Contain(Rect({0, 0}, {1, 1}), RegularPolygon(3, 1.0))));
  auto result = ExecuteQuery(*q, context_.get());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, (ImageSet{2}));
}

TEST_F(QueryFixture, UnionViaPlanner) {
  QueryPtr q = Union(Similar(RegularPolygon(6, 1.0)),
                     Similar(RegularPolygon(5, 1.0)));
  auto result = ExecuteQuery(*q, context_.get());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, (ImageSet{2, 3}));
}

TEST_F(QueryFixture, PlannerExplainsAndOrders) {
  QueryPtr q = Intersect(Similar(RegularPolygon(3, 1.0)),
                         Similar(RegularPolygon(5, 1.0)));
  PlanExplanation explanation;
  auto result = ExecuteQuery(*q, context_.get(), {}, &explanation);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, (ImageSet{2}));
  EXPECT_EQ(explanation.num_terms, 1u);
  EXPECT_EQ(explanation.num_factors, 2u);
  EXPECT_FALSE(explanation.text.empty());
}

TEST_F(QueryFixture, SimilarSetsAreCached) {
  context_->ResetStats();
  ASSERT_TRUE(context_->EvalSimilar(RegularPolygon(3, 1.0)).ok());
  ASSERT_TRUE(context_->EvalSimilar(RegularPolygon(3, 1.0)).ok());
  EXPECT_EQ(context_->stats().similar_evaluations, 1u);
  EXPECT_EQ(context_->stats().similar_cache_hits, 1u);
}

TEST_F(QueryFixture, AngleConstraintFilters) {
  // Image 1's overlapping squares have parallel diameters (angle ~ 0).
  auto zero = context_->EvalTopological(
      Relation::kOverlap, Rect({0, 0}, {1, 1}), Rect({0, 0}, {1, 1}), 0.0,
      TopoStrategy::kIntersectImages);
  ASSERT_TRUE(zero.ok());
  EXPECT_EQ(*zero, (ImageSet{1}));
  auto perpendicular = context_->EvalTopological(
      Relation::kOverlap, Rect({0, 0}, {1, 1}), Rect({0, 0}, {1, 1}),
      M_PI / 2, TopoStrategy::kIntersectImages);
  ASSERT_TRUE(perpendicular.ok());
  EXPECT_TRUE(perpendicular->empty());
}

TEST_F(QueryFixture, ParserRoundTrip) {
  std::map<std::string, Polyline> shapes;
  shapes["tri"] = RegularPolygon(3, 1.0);
  shapes["sq"] = Rect({0, 0}, {1, 1});

  auto q = ParseQuery("similar(tri) & ~contain(sq, tri)", shapes);
  ASSERT_TRUE(q.ok());
  auto result = ExecuteQuery(**q, context_.get());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, (ImageSet{2}));
}

TEST(ParserTest, Errors) {
  std::map<std::string, Polyline> shapes;
  shapes["a"] = RegularPolygon(3, 1.0);
  EXPECT_FALSE(ParseQuery("similar(b)", shapes).ok());       // Unknown name.
  EXPECT_FALSE(ParseQuery("similar(a", shapes).ok());        // Missing ')'.
  EXPECT_FALSE(ParseQuery("frobnicate(a)", shapes).ok());    // Unknown op.
  EXPECT_FALSE(ParseQuery("similar(a) extra", shapes).ok()); // Trailing.
  EXPECT_FALSE(ParseQuery("contain(a)", shapes).ok());       // Arity.
}

TEST(ParserTest, AngleForms) {
  std::map<std::string, Polyline> shapes;
  shapes["a"] = RegularPolygon(3, 1.0);
  shapes["b"] = RegularPolygon(4, 1.0);
  auto with_angle = ParseQuery("overlap(a, b, 1.57)", shapes);
  ASSERT_TRUE(with_angle.ok());
  ASSERT_TRUE((*with_angle)->theta.has_value());
  EXPECT_NEAR(*(*with_angle)->theta, 1.57, 1e-12);
  auto any = ParseQuery("overlap(a, b, any)", shapes);
  ASSERT_TRUE(any.ok());
  EXPECT_FALSE((*any)->theta.has_value());
  auto omitted = ParseQuery("overlap(a, b)", shapes);
  ASSERT_TRUE(omitted.ok());
  EXPECT_FALSE((*omitted)->theta.has_value());
}

TEST(SetOpsTest, Basics) {
  const ImageSet a{1, 3, 5};
  const ImageSet b{3, 4, 5, 7};
  EXPECT_EQ(SetUnion(a, b), (ImageSet{1, 3, 4, 5, 7}));
  EXPECT_EQ(SetIntersection(a, b), (ImageSet{3, 5}));
  EXPECT_EQ(SetDifference(a, b), (ImageSet{1}));
  EXPECT_EQ(SetUnion({}, b), b);
  EXPECT_TRUE(SetIntersection(a, {}).empty());
}

}  // namespace
}  // namespace geosir::query
