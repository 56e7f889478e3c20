// The flat edge store's point-to-boundary distance, the one the verifier,
// the envelope's ring test and the lower-bound field all answer with,
// against the hypot-based brute-force DistancePointPolyline on shapes of
// every regime: many-edge, open, degenerate extents, clustered vertices,
// zero-length edges, far-away probes and edgeless shapes.

#include "geom/edge_soa.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "geom/distance.h"
#include "geom/polyline.h"
#include "util/rng.h"
#include "workload/polygon_gen.h"

namespace geosir::geom {
namespace {

/// Query points exercising every regime: inside the bbox, on the
/// boundary, near vertices, and far outside the shape.
std::vector<Point> ProbePoints(const Polyline& shape, util::Rng* rng,
                               int count) {
  std::vector<Point> probes;
  BoundingBox box = shape.Bounds();
  box.Inflate(std::max(box.Width(), box.Height()) * 0.5 + 0.1);
  for (int i = 0; i < count; ++i) {
    probes.push_back({rng->Uniform(box.min_x, box.max_x),
                      rng->Uniform(box.min_y, box.max_y)});
  }
  // On-boundary points (the quadrature's common case: similar shapes).
  for (size_t e = 0; e < shape.NumEdges(); ++e) {
    probes.push_back(shape.Edge(e).At(0.37));
    probes.push_back(shape.Edge(e).a);
  }
  // Far outside the shape in all four quadrants.
  const double reach = 10.0 * (box.Width() + box.Height() + 1.0);
  probes.push_back({box.min_x - reach, box.min_y - reach});
  probes.push_back({box.max_x + reach, box.min_y - 0.5 * reach});
  probes.push_back({box.Center().x, box.max_y + reach});
  probes.push_back({box.min_x - 0.5 * reach, box.Center().y});
  return probes;
}

void ExpectMatchesBruteForce(const Polyline& shape, util::Rng* rng,
                             int probe_count = 60) {
  const EdgeSoA soa(shape);
  ASSERT_EQ(soa.num_edges(), shape.NumEdges());
  const std::vector<Point> probes = ProbePoints(shape, rng, probe_count);
  std::vector<double> batched(probes.size());
  soa.MinDistances(probes.data(), probes.size(), batched.data());
  for (size_t i = 0; i < probes.size(); ++i) {
    const Point p = probes[i];
    const double expected = DistancePointPolyline(p, shape);
    const double actual = soa.MinDistance(p);
    ASSERT_NEAR(actual, expected, 1e-12)
        << "at (" << p.x << ", " << p.y << ")";
    ASSERT_EQ(batched[i], actual) << "at (" << p.x << ", " << p.y << ")";
  }
}

TEST(EdgeSoATest, RandomStarPolygons) {
  util::Rng rng(1234);
  workload::PolygonGenOptions gen;
  for (int trial = 0; trial < 30; ++trial) {
    ExpectMatchesBruteForce(workload::RandomStarPolygon(&rng, gen), &rng);
  }
}

TEST(EdgeSoATest, LargeManyEdgePolygons) {
  util::Rng rng(99);
  workload::PolygonGenOptions gen;
  gen.min_vertices = 64;
  gen.max_vertices = 256;
  for (int trial = 0; trial < 10; ++trial) {
    ExpectMatchesBruteForce(workload::RandomStarPolygon(&rng, gen), &rng);
  }
}

TEST(EdgeSoATest, RandomOpenPolylines) {
  util::Rng rng(4321);
  workload::PolygonGenOptions gen;
  for (int trial = 0; trial < 20; ++trial) {
    ExpectMatchesBruteForce(workload::RandomOpenPolyline(&rng, gen), &rng);
  }
}

TEST(EdgeSoATest, CollinearDegenerateBoundingBox) {
  util::Rng rng(7);
  // Horizontal: the y extent is zero.
  std::vector<Point> horizontal;
  for (int i = 0; i <= 20; ++i) horizontal.push_back({0.1 * i, 2.0});
  ExpectMatchesBruteForce(Polyline::Open(horizontal), &rng);
  // Vertical: the x extent is zero.
  std::vector<Point> vertical;
  for (int i = 0; i <= 20; ++i) vertical.push_back({-1.0, 0.05 * i});
  ExpectMatchesBruteForce(Polyline::Open(vertical), &rng);
  // Diagonal collinear vertices.
  std::vector<Point> diagonal;
  for (int i = 0; i <= 15; ++i) diagonal.push_back({1.0 * i, 2.0 * i});
  ExpectMatchesBruteForce(Polyline::Open(diagonal), &rng);
}

TEST(EdgeSoATest, SingleEdge) {
  util::Rng rng(11);
  ExpectMatchesBruteForce(Polyline::Open({{0.0, 0.0}, {3.0, 1.0}}), &rng);
}

TEST(EdgeSoATest, ClusteredVertices) {
  util::Rng rng(5);
  // Many vertices crammed into a tiny cluster plus one distant vertex:
  // edges whose lengths span six orders of magnitude.
  std::vector<Point> v;
  for (int i = 0; i < 40; ++i) {
    v.push_back({1e-4 * rng.Uniform(0.0, 1.0), 1e-4 * rng.Uniform(0.0, 1.0)});
  }
  v.push_back({50.0, 30.0});
  ExpectMatchesBruteForce(Polyline::Open(v), &rng);
}

TEST(EdgeSoATest, ZeroLengthEdges) {
  util::Rng rng(3);
  // Duplicate consecutive vertices produce zero-length edges; the store
  // must measure them like the brute-force scan does.
  ExpectMatchesBruteForce(
      Polyline::Closed({{0, 0}, {1, 0}, {1, 0}, {1, 1}, {0, 1}, {0, 1}}),
      &rng);
}

TEST(EdgeSoATest, EdgelessShapes) {
  const EdgeSoA empty((Polyline()));
  EXPECT_TRUE(empty.empty());
  EXPECT_TRUE(std::isinf(empty.MinDistance({0.0, 0.0})));

  const EdgeSoA lone_vertex(Polyline::Open({{2.0, -1.0}}));
  EXPECT_TRUE(lone_vertex.empty());
  EXPECT_DOUBLE_EQ(lone_vertex.MinDistance({2.0, 3.0}), 4.0);
  const Point probes[] = {{2.0, 3.0}, {2.0, -1.0}};
  double batched[2];
  lone_vertex.MinDistances(probes, 2, batched);
  EXPECT_DOUBLE_EQ(batched[0], 4.0);
  EXPECT_EQ(batched[1], 0.0);
}

}  // namespace
}  // namespace geosir::geom
