#include <algorithm>
#include <memory>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "rangesearch/brute_force_index.h"
#include "rangesearch/convex_layers.h"
#include "rangesearch/grid_index.h"
#include "rangesearch/kd_tree_index.h"
#include "rangesearch/range_tree_index.h"
#include "rangesearch/tri_box.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace geosir::rangesearch {
namespace {

using geom::BoundingBox;
using geom::Point;
using geom::Triangle;

std::vector<IndexedPoint> RandomPoints(size_t n, util::Rng* rng,
                                       double lo = 0.0, double hi = 1.0) {
  std::vector<IndexedPoint> pts;
  pts.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    pts.push_back(
        IndexedPoint{{rng->Uniform(lo, hi), rng->Uniform(lo, hi)},
                     static_cast<uint32_t>(i)});
  }
  return pts;
}

std::multiset<uint32_t> CollectTriangle(const SimplexIndex& index,
                                        const Triangle& t) {
  std::multiset<uint32_t> ids;
  index.ReportInTriangle(t, [&](const IndexedPoint& ip) { ids.insert(ip.id); });
  return ids;
}

std::multiset<uint32_t> CollectRect(const SimplexIndex& index,
                                    const BoundingBox& box) {
  std::multiset<uint32_t> ids;
  index.ReportInRect(box, [&](const IndexedPoint& ip) { ids.insert(ip.id); });
  return ids;
}

TEST(TriBoxTest, IntersectionCases) {
  Triangle t{{0, 0}, {4, 0}, {0, 4}};
  EXPECT_TRUE(TriangleIntersectsBox(t, BoundingBox({1, 1}, {2, 2})));
  // Box outside the hypotenuse but inside the bounding box of t.
  EXPECT_FALSE(TriangleIntersectsBox(t, BoundingBox({3.5, 3.5}, {3.9, 3.9})));
  // Box containing the whole triangle.
  EXPECT_TRUE(TriangleIntersectsBox(t, BoundingBox({-1, -1}, {5, 5})));
  // Touching at a vertex.
  EXPECT_TRUE(TriangleIntersectsBox(t, BoundingBox({4, 0}, {5, 1})));
  // Fully disjoint.
  EXPECT_FALSE(TriangleIntersectsBox(t, BoundingBox({5, 5}, {6, 6})));
}

TEST(TriBoxTest, Containment) {
  Triangle t{{0, 0}, {4, 0}, {0, 4}};
  EXPECT_TRUE(TriangleContainsBox(t, BoundingBox({0.5, 0.5}, {1, 1})));
  EXPECT_FALSE(TriangleContainsBox(t, BoundingBox({2, 2}, {3, 3})));
}

class SimplexIndexParamTest
    : public ::testing::TestWithParam<const char*> {
 protected:
  std::unique_ptr<SimplexIndex> MakeIndex() const {
    const std::string which = GetParam();
    if (which == "brute") return std::make_unique<BruteForceIndex>();
    if (which == "grid") return std::make_unique<GridIndex>();
    if (which == "kd") return std::make_unique<KdTreeIndex>();
    if (which == "layers") return std::make_unique<ConvexLayersIndex>();
    return std::make_unique<RangeTreeIndex>();
  }
};

TEST_P(SimplexIndexParamTest, MatchesBruteForceOnRandomTriangles) {
  util::Rng rng(101);
  auto points = RandomPoints(600, &rng);
  BruteForceIndex oracle;
  oracle.Build(points);
  auto index = MakeIndex();
  index->Build(points);
  ASSERT_EQ(index->size(), 600u);

  for (int q = 0; q < 60; ++q) {
    const Triangle t{{rng.Uniform(-0.2, 1.2), rng.Uniform(-0.2, 1.2)},
                     {rng.Uniform(-0.2, 1.2), rng.Uniform(-0.2, 1.2)},
                     {rng.Uniform(-0.2, 1.2), rng.Uniform(-0.2, 1.2)}};
    const auto expect = CollectTriangle(oracle, t);
    const auto got = CollectTriangle(*index, t);
    EXPECT_EQ(got, expect) << index->name() << " query " << q;
    EXPECT_EQ(index->CountInTriangle(t), expect.size());
  }
}

TEST_P(SimplexIndexParamTest, MatchesBruteForceOnRandomRects) {
  util::Rng rng(202);
  auto points = RandomPoints(500, &rng);
  BruteForceIndex oracle;
  oracle.Build(points);
  auto index = MakeIndex();
  index->Build(points);

  for (int q = 0; q < 60; ++q) {
    Point a{rng.Uniform(-0.2, 1.2), rng.Uniform(-0.2, 1.2)};
    Point b{rng.Uniform(-0.2, 1.2), rng.Uniform(-0.2, 1.2)};
    BoundingBox box;
    box.Extend(a);
    box.Extend(b);
    const auto expect = CollectRect(oracle, box);
    const auto got = CollectRect(*index, box);
    EXPECT_EQ(got, expect) << index->name() << " query " << q;
    EXPECT_EQ(index->CountInRect(box), expect.size());
  }
}

TEST_P(SimplexIndexParamTest, HandlesDuplicatesAndCollinear) {
  util::Rng rng(303);
  std::vector<IndexedPoint> points;
  // Grid-aligned duplicates and collinear rows.
  uint32_t id = 0;
  for (int x = 0; x < 10; ++x) {
    for (int y = 0; y < 10; ++y) {
      points.push_back(IndexedPoint{{x * 0.1, y * 0.1}, id++});
      if ((x + y) % 3 == 0) {
        points.push_back(IndexedPoint{{x * 0.1, y * 0.1}, id++});
      }
    }
  }
  BruteForceIndex oracle;
  oracle.Build(points);
  auto index = MakeIndex();
  index->Build(points);
  for (int q = 0; q < 40; ++q) {
    const Triangle t{{rng.Uniform(0, 1), rng.Uniform(0, 1)},
                     {rng.Uniform(0, 1), rng.Uniform(0, 1)},
                     {rng.Uniform(0, 1), rng.Uniform(0, 1)}};
    EXPECT_EQ(CollectTriangle(*index, t), CollectTriangle(oracle, t));
  }
  // Rect query exactly on the lattice lines (boundary inclusivity).
  const BoundingBox exact({0.2, 0.2}, {0.5, 0.5});
  EXPECT_EQ(CollectRect(*index, exact), CollectRect(oracle, exact));
}

TEST_P(SimplexIndexParamTest, EmptyIndex) {
  auto index = MakeIndex();
  index->Build({});
  const Triangle t{{0, 0}, {1, 0}, {0, 1}};
  EXPECT_EQ(index->CountInTriangle(t), 0u);
  EXPECT_EQ(index->CountInRect(BoundingBox({0, 0}, {1, 1})), 0u);
}

TEST_P(SimplexIndexParamTest, SinglePoint) {
  auto index = MakeIndex();
  index->Build({IndexedPoint{{0.5, 0.5}, 7}});
  const Triangle hit{{0, 0}, {1, 0}, {0.5, 1}};
  const Triangle miss{{2, 2}, {3, 2}, {2, 3}};
  EXPECT_EQ(index->CountInTriangle(hit), 1u);
  EXPECT_EQ(index->CountInTriangle(miss), 0u);
}

TEST_P(SimplexIndexParamTest, DegenerateTriangleQuery) {
  util::Rng rng(404);
  auto points = RandomPoints(100, &rng);
  auto index = MakeIndex();
  index->Build(points);
  BruteForceIndex oracle;
  oracle.Build(points);
  // Zero-area triangle (a segment).
  const Triangle t{{0.1, 0.1}, {0.9, 0.9}, {0.5, 0.5}};
  EXPECT_EQ(index->CountInTriangle(t), oracle.CountInTriangle(t));

  // A degenerate triangle is the segment or point its corners span, not
  // the whole supporting line (or plane). Explicit answers: the brute
  // force oracle shares Triangle::Contains. Points k/4 along the
  // diagonal for k in [-2, 6] (ids 0..8, exact binary fractions), a
  // duplicate of (0.5, 0.5) (id 9) and two points off the line.
  std::vector<IndexedPoint> diagonal;
  for (int k = -2; k <= 6; ++k) {
    diagonal.push_back(IndexedPoint{{0.25 * k, 0.25 * k},
                                    static_cast<uint32_t>(k + 2)});
  }
  diagonal.push_back(IndexedPoint{{0.5, 0.5}, 9});
  diagonal.push_back(IndexedPoint{{0.25, 0.5}, 10});
  diagonal.push_back(IndexedPoint{{1.5, 0.0}, 11});
  auto line_index = MakeIndex();
  line_index->Build(diagonal);
  const Triangle segment{{0.0, 0.0}, {1.0, 1.0}, {0.5, 0.5}};
  EXPECT_EQ(CollectTriangle(*line_index, segment),
            (std::multiset<uint32_t>{2, 3, 4, 5, 6, 9}));
  EXPECT_EQ(line_index->CountInTriangle(segment), 6u);
  const Triangle point{{0.5, 0.5}, {0.5, 0.5}, {0.5, 0.5}};
  EXPECT_EQ(CollectTriangle(*line_index, point),
            (std::multiset<uint32_t>{4, 9}));
  EXPECT_EQ(line_index->CountInTriangle(point), 2u);
  // Two coincident corners: the segment (0.25,0.25)-(1,1).
  const Triangle doubled{{0.25, 0.25}, {0.25, 0.25}, {1.0, 1.0}};
  EXPECT_EQ(CollectTriangle(*line_index, doubled),
            (std::multiset<uint32_t>{3, 4, 5, 6, 9}));
}

INSTANTIATE_TEST_SUITE_P(AllBackends, SimplexIndexParamTest,
                         ::testing::Values("brute", "grid", "kd", "rangetree",
                                           "layers"),
                         [](const auto& info) { return info.param; });

// The kd-tree's report order is its point order: a triangle query
// reports exactly the points ReportInRect(everything) reports that the
// triangle contains, in the same sequence, whether a subtree was reported
// whole or point by point. Integer lattice points and lattice triangles
// put points exactly on edges and corners and whole node boxes inside
// triangles; 1.2e5 points make the tree deep enough for the parallel
// build.
TEST(KdTreeTest, TriangleReportsAreFilteredRectOrder) {
  std::vector<IndexedPoint> points;
  uint32_t id = 0;
  for (int x = 0; x < 400; ++x) {
    for (int y = 0; y < 300; ++y) {
      points.push_back(IndexedPoint{{double(x), double(y)}, id++});
    }
  }
  KdTreeIndex index;
  index.Build(points);
  std::vector<IndexedPoint> all;
  index.ReportInRect(BoundingBox({-1, -1}, {400, 300}),
                     [&](const IndexedPoint& ip) { all.push_back(ip); });
  ASSERT_EQ(all.size(), points.size());

  util::Rng rng(505);
  std::vector<Triangle> queries = {
      {{10, 10}, {210, 10}, {10, 210}},     // Hypotenuse through lattice.
      {{0, 0}, {399, 299}, {0, 299}},       // Diagonal through corners.
      {{50, 50}, {50, 50}, {150, 150}},     // Degenerate: a segment.
      {{-5, -5}, {500, -5}, {-5, 400}}};    // Covers everything.
  for (int q = 0; q < 40; ++q) {
    const auto corner = [&] {
      return Point{double(rng.UniformInt(-20, 420)),
                   double(rng.UniformInt(-20, 320))};
    };
    queries.push_back(Triangle{corner(), corner(), corner()});
  }
  for (int q = 0; q < 20; ++q) {  // Thin slivers, as in an envelope ring.
    const Point a{rng.Uniform(0, 400), rng.Uniform(0, 300)};
    const Point b{rng.Uniform(0, 400), rng.Uniform(0, 300)};
    queries.push_back(Triangle{a, b, b + Point{rng.Uniform(-2, 2),
                                               rng.Uniform(-2, 2)}});
  }
  bool some_whole_subtree = false;
  for (size_t q = 0; q < queries.size(); ++q) {
    const Triangle& t = queries[q];
    std::vector<uint32_t> want;
    for (const IndexedPoint& ip : all) {
      if (t.Contains(ip.p)) want.push_back(ip.id);
    }
    index.ResetStats();
    std::vector<uint32_t> got;
    index.ReportInTriangle(t,
                           [&](const IndexedPoint& ip) { got.push_back(ip.id); });
    EXPECT_EQ(got, want) << "query " << q;
    EXPECT_EQ(index.CountInTriangle(t), want.size()) << "query " << q;
    some_whole_subtree = some_whole_subtree ||
                         index.stats().points_tested < want.size();
  }
  EXPECT_TRUE(some_whole_subtree);
}

// Build has no serial/parallel switch: a build inside a ParallelFor body
// runs serially (the pool's nesting rule) and must produce the same tree
// as the parallel build from the main thread.
TEST(KdTreeTest, ParallelAndNestedSerialBuildsAgree) {
  util::Rng rng(606);
  auto points = RandomPoints(150000, &rng);
  for (uint32_t i = 0; i < 20000; ++i) {  // Ties on both split axes.
    points.push_back(IndexedPoint{points[i].p, 150000 + i});
  }
  KdTreeIndex parallel;
  parallel.Build(points);
  KdTreeIndex nested;
  util::ThreadPool::Shared().ParallelFor(
      1, 0, [&](size_t, size_t) { nested.Build(points); });

  const auto rect_order = [](const KdTreeIndex& index) {
    std::vector<uint32_t> ids;
    index.ReportInRect(BoundingBox({0, 0}, {1, 1}),
                       [&](const IndexedPoint& ip) { ids.push_back(ip.id); });
    return ids;
  };
  const std::vector<uint32_t> order = rect_order(parallel);
  ASSERT_EQ(order.size(), points.size());
  EXPECT_EQ(order, rect_order(nested));
  for (int q = 0; q < 50; ++q) {
    const Triangle t{{rng.Uniform(-0.2, 1.2), rng.Uniform(-0.2, 1.2)},
                     {rng.Uniform(-0.2, 1.2), rng.Uniform(-0.2, 1.2)},
                     {rng.Uniform(-0.2, 1.2), rng.Uniform(-0.2, 1.2)}};
    EXPECT_EQ(parallel.CountInTriangle(t), nested.CountInTriangle(t));
  }
}

TEST(RangeTreeTest, SpaceIsNLogN) {
  util::Rng rng(55);
  auto points = RandomPoints(4096, &rng);
  RangeTreeIndex index;
  index.Build(points);
  // Each level stores ~n entries; depth ~ log2(n / leaf).
  EXPECT_LT(index.TotalListEntries(), 4096u * 16u);
  EXPECT_GT(index.TotalListEntries(), 4096u * 8u);
}

TEST(RangeTreeTest, CountingDoesLogarithmicWork) {
  util::Rng rng(56);
  auto points = RandomPoints(32768, &rng);
  RangeTreeIndex index;
  index.Build(points);
  index.ResetStats();
  const BoundingBox box({0.4, 0.4}, {0.6, 0.6});
  const size_t count = index.CountInRect(box);
  EXPECT_GT(count, 500u);  // ~4% of 32768.
  // Counting must not touch reported points: nodes visited should be
  // O(log^1 n) canonical + path nodes, far below the output size.
  EXPECT_LT(index.stats().nodes_visited, 200u);
  EXPECT_LT(index.stats().points_tested, 64u);  // Only partial leaves.
}

TEST(ConvexLayersTest, MatchesBruteForceHalfPlanes) {
  util::Rng rng(77);
  auto points = RandomPoints(400, &rng, -1.0, 1.0);
  ConvexLayersIndex layers;
  layers.Build(points);
  EXPECT_EQ(layers.size(), 400u);
  for (int q = 0; q < 50; ++q) {
    const double angle = rng.Uniform(0, 2 * M_PI);
    const HalfPlane hp{{std::cos(angle), std::sin(angle)},
                       rng.Uniform(-0.8, 0.8)};
    size_t expect = 0;
    for (const auto& ip : points) {
      if (hp.Contains(ip.p)) ++expect;
    }
    std::set<uint32_t> got;
    layers.ReportInHalfPlane(hp, [&](const IndexedPoint& ip) {
      EXPECT_TRUE(hp.Contains(ip.p));
      EXPECT_TRUE(got.insert(ip.id).second) << "duplicate report";
    });
    EXPECT_EQ(got.size(), expect) << "query " << q;
    EXPECT_EQ(layers.CountInHalfPlane(hp), expect);
  }
}

TEST(ConvexLayersTest, LayerCountReasonable) {
  util::Rng rng(78);
  auto points = RandomPoints(1000, &rng);
  ConvexLayersIndex layers;
  layers.Build(points);
  EXPECT_GT(layers.NumLayers(), 5u);
  EXPECT_LT(layers.NumLayers(), 500u);
}

TEST(ConvexLayersTest, EmptyAndTiny) {
  ConvexLayersIndex layers;
  layers.Build({});
  EXPECT_EQ(layers.CountInHalfPlane(HalfPlane{{1, 0}, 0.0}), 0u);
  ConvexLayersIndex one;
  one.Build({IndexedPoint{{0.5, 0.5}, 1}});
  EXPECT_EQ(one.CountInHalfPlane(HalfPlane{{1, 0}, 1.0}), 1u);
  EXPECT_EQ(one.CountInHalfPlane(HalfPlane{{1, 0}, 0.0}), 0u);
}

TEST(ConvexLayersTest, CollinearPoints) {
  std::vector<IndexedPoint> pts;
  for (int i = 0; i < 10; ++i) {
    pts.push_back(IndexedPoint{{i * 0.1, i * 0.1}, static_cast<uint32_t>(i)});
  }
  ConvexLayersIndex layers;
  layers.Build(pts);
  const HalfPlane hp{{1, 0}, 0.45};  // x <= 0.45 -> first 5 points.
  EXPECT_EQ(layers.CountInHalfPlane(hp), 5u);
}

}  // namespace
}  // namespace geosir::rangesearch
