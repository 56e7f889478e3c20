// Property-based tests of the geometric substrate on randomized inputs.

#include <cmath>
#include <cstdint>

#include <gtest/gtest.h>

#include "extract/decompose.h"
#include "geom/convex_hull.h"
#include "geom/diameter.h"
#include "geom/distance.h"
#include "geom/edge_soa.h"
#include "geom/envelope.h"
#include "geom/kernel_dispatch.h"
#include "geom/predicates.h"
#include "util/rng.h"
#include "workload/polygon_gen.h"

namespace geosir::geom {
namespace {

class GeomPropertyTest : public ::testing::TestWithParam<int> {
 protected:
  util::Rng MakeRng() const { return util::Rng(5000 + GetParam()); }
};

TEST_P(GeomPropertyTest, ConvexHullContainsAllPoints) {
  util::Rng rng = MakeRng();
  std::vector<Point> pts;
  for (int i = 0; i < 120; ++i) {
    pts.push_back({rng.Uniform(-3, 3), rng.Uniform(-3, 3)});
  }
  const auto hull = ConvexHull(pts);
  ASSERT_GE(hull.size(), 3u);
  const Polyline hull_poly = Polyline::Closed(hull);
  for (Point p : pts) {
    EXPECT_TRUE(PolygonContainsPoint(hull_poly, p, 1e-9));
  }
}

TEST_P(GeomPropertyTest, DiameterIsMaxPairwiseDistance) {
  util::Rng rng = MakeRng();
  const Polyline poly = workload::RandomStarPolygon(&rng);
  const VertexPair d = Diameter(poly.vertices());
  for (size_t i = 0; i < poly.size(); ++i) {
    for (size_t j = i + 1; j < poly.size(); ++j) {
      EXPECT_LE(Distance(poly.vertex(i), poly.vertex(j)),
                d.distance + 1e-9);
    }
  }
}

TEST_P(GeomPropertyTest, RelationTrichotomyOnRandomPolygonPairs) {
  // For generic (non-touching) simple polygons exactly one of
  // {a contains b, b contains a, overlap, disjoint} holds.
  util::Rng rng = MakeRng();
  const Polyline a = workload::RandomStarPolygon(&rng);
  Polyline b = workload::RandomStarPolygon(&rng);
  // Random relative placement, biased to produce all four relations.
  const double spread = rng.Uniform(0.0, 3.0);
  const double scale = rng.Uniform(0.2, 1.8);
  const geom::AffineTransform t =
      AffineTransform::Translation({rng.Uniform(-spread, spread),
                                    rng.Uniform(-spread, spread)}) *
      AffineTransform::Scaling(scale);
  b = b.Transformed(t);

  const bool a_in_b = PolygonContainsPolygon(b, a);
  const bool b_in_a = PolygonContainsPolygon(a, b);
  const bool overlap = PolygonsOverlap(a, b);
  const bool disjoint = PolygonsDisjoint(a, b);
  const int count = static_cast<int>(a_in_b) + static_cast<int>(b_in_a) +
                    static_cast<int>(overlap) + static_cast<int>(disjoint);
  EXPECT_EQ(count, 1) << "a_in_b=" << a_in_b << " b_in_a=" << b_in_a
                      << " overlap=" << overlap << " disjoint=" << disjoint;
}

TEST_P(GeomPropertyTest, EnvelopeMembershipMonotoneInEps) {
  util::Rng rng = MakeRng();
  const Polyline shape = workload::RandomStarPolygon(&rng);
  for (int i = 0; i < 50; ++i) {
    const Point p{rng.Uniform(-2, 2), rng.Uniform(-2, 2)};
    const double d = DistancePointPolyline(p, shape);
    EXPECT_EQ(InEnvelope(shape, p, d + 1e-9), true);
    if (d > 1e-9) {
      EXPECT_EQ(InEnvelope(shape, p, d - 1e-9), false);
    }
  }
}

TEST_P(GeomPropertyTest, RingCoverIsSupersetAcrossSchedules) {
  util::Rng rng = MakeRng();
  const Polyline shape = workload::RandomStarPolygon(&rng);
  double prev = 0.0;
  for (double eps : {0.01, 0.03, 0.09, 0.27}) {
    const EnvelopeRingCover cover = BuildEnvelopeRingCover(shape, prev, eps);
    for (int i = 0; i < 200; ++i) {
      const Point p{rng.Uniform(-2, 2), rng.Uniform(-2, 2)};
      if (!InEnvelopeRing(shape, p, prev, eps)) continue;
      bool covered = false;
      for (const Triangle& t : cover.triangles) {
        if (t.Contains(p)) {
          covered = true;
          break;
        }
      }
      EXPECT_TRUE(covered) << "eps=" << eps << " p=(" << p.x << "," << p.y
                           << ")";
    }
    prev = eps;
  }
}

TEST_P(GeomPropertyTest, SegmentDistanceSymmetryAndZeroOnIntersect) {
  util::Rng rng = MakeRng();
  for (int i = 0; i < 40; ++i) {
    const Segment s1{{rng.Uniform(-1, 1), rng.Uniform(-1, 1)},
                     {rng.Uniform(-1, 1), rng.Uniform(-1, 1)}};
    const Segment s2{{rng.Uniform(-1, 1), rng.Uniform(-1, 1)},
                     {rng.Uniform(-1, 1), rng.Uniform(-1, 1)}};
    const double d12 = DistanceSegmentSegment(s1, s2);
    const double d21 = DistanceSegmentSegment(s2, s1);
    EXPECT_NEAR(d12, d21, 1e-12);
    EXPECT_EQ(d12 == 0.0, SegmentsIntersect(s1, s2));
  }
}

TEST_P(GeomPropertyTest, DecomposePreservesTotalEdgeLength) {
  // The decomposition only splits edges at crossing points, so the total
  // boundary length of the pieces equals the input's (no degenerate
  // drops for these inputs).
  util::Rng rng = MakeRng();
  // Build a self-intersecting polyline: a random closed walk.
  std::vector<Point> v;
  const int n = 6 + static_cast<int>(rng.UniformInt(0, 4));
  for (int i = 0; i < n; ++i) {
    v.push_back({rng.Uniform(-1, 1), rng.Uniform(-1, 1)});
  }
  const Polyline tangle = Polyline::Closed(v);
  const auto pieces = extract::DecomposeSelfIntersecting(tangle);
  ASSERT_FALSE(pieces.empty());
  double total = 0.0;
  for (const Polyline& piece : pieces) {
    EXPECT_FALSE(piece.SelfIntersects());
    total += piece.Perimeter();
  }
  EXPECT_NEAR(total, tangle.Perimeter(), 1e-6 * tangle.Perimeter());
}

// ---------------------------------------------------------------------------
// Differential fuzzing of the batch distance kernels: the dispatched
// kernel (AVX2 where selected), the AVX2 kernel called directly (even
// under GEOSIR_FORCE_SCALAR, so the forced-scalar CI job still exercises
// it), and the portable scalar oracle must agree BIT FOR BIT on every
// input — random and adversarial alike.
// ---------------------------------------------------------------------------

/// Asserts exact equality of all kernel tiers on one (span, point) pair
/// and returns the agreed value.
double ExpectKernelsAgree(const EdgeSpanView& span, Point p) {
  const double scalar = BatchMinDistanceSqScalar(span, p);
  const double dispatched = BatchMinDistanceSq(span, p);
  // EXPECT_EQ on doubles is bitwise here: the kernels never produce NaN
  // for finite inputs and -0.0 == 0.0 folds the one benign ambiguity.
  EXPECT_EQ(scalar, dispatched) << "dispatched kernel diverged at p=(" << p.x
                                << "," << p.y << ")";
  if (internal::Avx2KernelCompiledIn() && CpuSupportsAvx2Kernel()) {
    const double avx2 = internal::BatchMinDistanceSqAvx2(span, p);
    EXPECT_EQ(scalar, avx2) << "avx2 kernel diverged at p=(" << p.x << ","
                            << p.y << ")";
  }
  return scalar;
}

TEST_P(GeomPropertyTest, BatchKernelMatchesScalarOnRandomShapes) {
  util::Rng rng = MakeRng();
  workload::PolygonGenOptions gen;
  gen.min_vertices = 3;
  gen.max_vertices = 60;
  const Polyline shape = workload::RandomStarPolygon(&rng, gen);
  const EdgeSoA soa(shape);
  const EdgeSpanView span = soa.PaddedView();
  for (int i = 0; i < 200; ++i) {
    const Point p{rng.Uniform(-4, 4), rng.Uniform(-4, 4)};
    const double d2 = ExpectKernelsAgree(span, p);
    // Sanity against the legacy hypot-based scan: same value up to a few
    // ulps (the two formulations differ in rounding, not in math).
    const double legacy = DistancePointPolyline(p, shape);
    EXPECT_NEAR(std::sqrt(d2), legacy, 1e-12 * std::max(1.0, legacy));
    // EdgeSoA::MinDistance is the dispatched kernel + sqrt.
    EXPECT_EQ(soa.MinDistance(p), std::sqrt(BatchMinDistanceSq(span, p)));
  }
}

TEST_P(GeomPropertyTest, BatchKernelMatchesScalarOnAdversarialInputs) {
  util::Rng rng = MakeRng();
  // Corpora chosen to hit the kernel's numeric edge regimes: denormal
  // coordinate deltas, huge magnitudes (d2 up to ~1e240), duplicate
  // vertices (zero-length edges, inv_len2 == 0), and near-collinear
  // slivers whose projection parameter cancels catastrophically.
  const std::vector<std::vector<Point>> corpora = {
      // Denormal-scale geometry around the origin.
      {{5e-324, 0.0}, {1e-310, 1e-315}, {0.0, 3e-320}, {2e-310, 2e-310}},
      // Huge magnitudes.
      {{1e120, -1e119}, {-5e119, 1e120}, {1e120, 1e120}},
      // Duplicate vertices: every edge degenerate.
      {{0.25, -0.75}, {0.25, -0.75}, {0.25, -0.75}},
      // Mixed scales: edge lengths spanning ~240 orders of magnitude.
      {{0.0, 0.0}, {1e-200, 0.0}, {1.0, 1e-200}, {1e100, 1.0}},
      // Near-collinear sliver.
      {{0.0, 0.0}, {1.0, 1e-17}, {2.0, -1e-17}, {3.0, 0.0}},
  };
  for (const auto& vertices : corpora) {
    const Polyline shape = Polyline::Closed(vertices);
    const EdgeSoA soa(shape);
    const EdgeSpanView span = soa.PaddedView();
    // Probe with the shape's own vertices (distance 0 lanes), tiny
    // perturbations, and far-away points.
    for (Point v : vertices) {
      ExpectKernelsAgree(span, v);
      ExpectKernelsAgree(span, {v.x + 1e-300, v.y - 1e-300});
    }
    for (int i = 0; i < 50; ++i) {
      const Point p{rng.Uniform(-2, 2), rng.Uniform(-2, 2)};
      const double d2 = ExpectKernelsAgree(span, p);
      EXPECT_FALSE(std::isnan(d2)) << "kernel leaked NaN for finite input";
    }
  }
}

// ---------------------------------------------------------------------------
// Exact orientation predicate.
// ---------------------------------------------------------------------------

TEST_P(GeomPropertyTest, ExactOrientationMatchesIntegerOracle) {
  // On an integer lattice the determinant fits __int128 exactly, giving
  // a ground-truth sign for every triple. The small range makes exactly
  // collinear and duplicate-point triples common.
  util::Rng rng = MakeRng();
  for (int i = 0; i < 4000; ++i) {
    const int64_t range = (i % 2 == 0) ? 8 : (int64_t{1} << 26);
    const auto coord = [&] { return rng.UniformInt(-range, range); };
    const int64_t ax = coord(), ay = coord(), bx = coord(), by = coord(),
                  cx = coord(), cy = coord();
    const __int128 det = static_cast<__int128>(bx - ax) * (cy - ay) -
                         static_cast<__int128>(by - ay) * (cx - ax);
    const int want = det > 0 ? 1 : (det < 0 ? -1 : 0);
    EXPECT_EQ(Orientation({static_cast<double>(ax), static_cast<double>(ay)},
                          {static_cast<double>(bx), static_cast<double>(by)},
                          {static_cast<double>(cx), static_cast<double>(cy)}),
              want)
        << "a=(" << ax << "," << ay << ") b=(" << bx << "," << by << ") c=("
        << cx << "," << cy << ")";
  }
}

TEST_P(GeomPropertyTest, ExactOrientationOnNearCollinearGrid) {
  // Shewchuk-style degenerate grid: c sits a tiny exact offset k*2^-40
  // off the diagonal through a and b. Every coordinate is exactly
  // representable (M <= 2^10, so M + k*2^-40 needs <= 52 mantissa bits),
  // and det = N*k*2^-40 exactly — sign(k). The float filter is
  // inconclusive here, so this drives the expansion path.
  util::Rng rng = MakeRng();
  const double tiny = std::ldexp(1.0, -40);
  for (int i = 0; i < 2000; ++i) {
    const double n = static_cast<double>(rng.UniformInt(1, 1024));
    const double m = static_cast<double>(rng.UniformInt(1, 1024));
    const int k = static_cast<int>(rng.UniformInt(-2, 2));
    const Point a{0.0, 0.0};
    const Point b{n, n};
    const Point c{m, m + static_cast<double>(k) * tiny};
    const int want = k > 0 ? 1 : (k < 0 ? -1 : 0);
    EXPECT_EQ(Orientation(a, b, c), want)
        << "n=" << n << " m=" << m << " k=" << k;
    // Translation by an exactly representable offset must not change the
    // answer (the predicate is exact, not merely translation-robust).
    const Point shift{512.0, -256.0};
    EXPECT_EQ(Orientation(a + shift, b + shift, c + shift), want);
  }
}

TEST_P(GeomPropertyTest, TriangleContainsConsistentWithOrientation) {
  // Triangle::Contains now runs on exact orientations: a point ON any
  // edge's supporting line inside the triangle is contained, and sliver
  // triangles classify their own vertices correctly.
  util::Rng rng = MakeRng();
  for (int i = 0; i < 500; ++i) {
    const auto coord = [&] {
      return static_cast<double>(rng.UniformInt(-64, 64));
    };
    const Triangle t{{coord(), coord()}, {coord(), coord()}, {coord(), coord()}};
    EXPECT_TRUE(t.Contains(t.a));
    EXPECT_TRUE(t.Contains(t.b));
    EXPECT_TRUE(t.Contains(t.c));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeomPropertyTest, ::testing::Range(0, 10));

// Non-parameterized regression cases for the exact predicate.
TEST(ExactOrientationTest, DecidesBelowLegacyEpsilon) {
  // 200.0 lies in [128, 256), where the ulp is exactly 2^-45, so
  // 200 +/- 2^-45 is representable. det = 4 * 2^-45 = 2^-43 ~ 1.1e-13:
  // smaller than the old 1e-12 epsilon (which wrongly reported
  // collinear), exactly nonzero.
  const double off = std::ldexp(1.0, -45);
  const Point a{0.0, 0.0};
  const Point b{4.0, 4.0};
  ASSERT_NE(200.0 + off, 200.0);
  EXPECT_EQ(Orientation(a, b, {200.0, 200.0 + off}), 1);
  EXPECT_EQ(Orientation(a, b, {200.0, 200.0 - off}), -1);
  EXPECT_EQ(Orientation(a, b, {200.0, 200.0}), 0);
}

TEST(ExactOrientationTest, DegenerateTriples) {
  const Point p{3.5, -1.25};
  const Point q{-2.0, 7.0};
  EXPECT_EQ(Orientation(p, p, q), 0);
  EXPECT_EQ(Orientation(p, q, q), 0);
  EXPECT_EQ(Orientation(p, q, p), 0);
  EXPECT_EQ(Orientation(p, p, p), 0);
  // Exactly collinear with huge and mixed magnitudes.
  EXPECT_EQ(Orientation({1e100, 1e100}, {2e100, 2e100}, {-3e100, -3e100}), 0);
  EXPECT_EQ(Orientation({0.0, 0.0}, {1e-160, 1e-160}, {1e160, 1e160}), 0);
}

}  // namespace
}  // namespace geosir::geom
