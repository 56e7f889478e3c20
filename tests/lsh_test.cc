// Tests of the approximate LSH pre-filter tier (src/lsh/) and the
// CandidateSource seam it plugs into: sketch canonicalization, index
// determinism, recall on jittered instances, source interchangeability in
// EnvelopeMatcher::MatchCandidates, the query-lifecycle contract
// (deadline / cancel / budget), the dynamic-base observer mirror, and a
// concurrent query-vs-insert exercise for TSan.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/candidate_source.h"
#include "core/dynamic_shape_base.h"
#include "core/envelope_matcher.h"
#include "core/normalize.h"
#include "core/shape_base.h"
#include "lsh/dynamic_lsh.h"
#include "lsh/lsh_index.h"
#include "lsh/sketch.h"
#include "obs/metrics.h"
#include "query/image_base.h"
#include "query/operators.h"
#include "util/rng.h"

namespace geosir::lsh {
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

Polyline Jitter(const Polyline& p, util::Rng* rng, double sigma) {
  Polyline out = p;
  for (Point& v : out.mutable_vertices()) {
    v += Point{rng->Gaussian(sigma), rng->Gaussian(sigma)};
  }
  return out;
}

/// Normalized copy of a raw query boundary (the form LshIndex consumes).
Polyline Normalized(const Polyline& q) {
  auto norm = core::NormalizeQuery(q);
  EXPECT_TRUE(norm.ok()) << norm.status().message();
  return norm->shape;
}

// --- Sketch canonicalization -------------------------------------------

TEST(SketchTest, CanonicalStartSurvivesVertexRelabeling) {
  // The same closed geometry entered at a different starting vertex and
  // in the opposite orientation must produce the identical sketch: the
  // canonical start (vertex nearest the origin) and CCW traversal erase
  // the labeling.
  const Polyline base = Normalized(RegularPolygon(9, 1.0, {0.3, -0.1}, 0.4));
  std::vector<Point> rolled(base.vertices().begin() + 3,
                            base.vertices().end());
  rolled.insert(rolled.end(), base.vertices().begin(),
                base.vertices().begin() + 3);
  std::vector<Point> reversed(rolled.rbegin(), rolled.rend());

  for (auto kind : {SketchKind::kVertexSample, SketchKind::kTurningFunction}) {
    const auto s0 = ComputeSketch(base, kind, 16);
    const auto s1 = ComputeSketch(Polyline::Closed(rolled), kind, 16);
    ASSERT_EQ(s0.size(), s1.size()) << SketchKindName(kind);
    for (size_t i = 0; i < s0.size(); ++i) {
      EXPECT_NEAR(s0[i], s1[i], 1e-9) << SketchKindName(kind) << " i=" << i;
    }
  }
  // Orientation flip: vertex samples land on the same boundary points.
  const auto s0 = ComputeSketch(base, SketchKind::kVertexSample, 16);
  const auto s2 = ComputeSketch(Polyline::Closed(reversed),
                                SketchKind::kVertexSample, 16);
  ASSERT_EQ(s0.size(), s2.size());
  for (size_t i = 0; i < s0.size(); ++i) {
    EXPECT_NEAR(s0[i], s2[i], 1e-9) << "i=" << i;
  }
}

TEST(SketchTest, SketchSizesMatchKind) {
  const Polyline p = Normalized(RegularPolygon(7, 1.0));
  EXPECT_EQ(ComputeSketch(p, SketchKind::kVertexSample, 12).size(), 24u);
  EXPECT_EQ(ComputeSketch(p, SketchKind::kTurningFunction, 12).size(), 12u);
  EXPECT_EQ(FeaturesPerSample(SketchKind::kVertexSample), 2u);
  EXPECT_EQ(FeaturesPerSample(SketchKind::kTurningFunction), 1u);
}

TEST(SketchTest, JitteredInstanceStaysClose) {
  // The locality property the banding math depends on: a small vertex
  // perturbation moves every sketch feature by O(noise), not O(1).
  util::Rng rng(5);
  const Polyline proto = RegularPolygon(10, 1.0);
  const auto s0 = ComputeSketch(Normalized(proto),
                                SketchKind::kVertexSample, 16);
  const auto s1 = ComputeSketch(Normalized(Jitter(proto, &rng, 0.01)),
                                SketchKind::kVertexSample, 16);
  ASSERT_EQ(s0.size(), s1.size());
  for (size_t i = 0; i < s0.size(); ++i) {
    EXPECT_LT(std::fabs(s0[i] - s1[i]), 0.08) << "i=" << i;
  }
}

TEST(SketchTest, OpenPolylineSketches) {
  std::vector<Point> v = {{0, 0}, {1, 0.2}, {2, 0}, {3, 0.4}};
  const Polyline open = Polyline::Open(std::move(v));
  const auto norm = core::NormalizeQuery(open);
  ASSERT_TRUE(norm.ok());
  const auto s = ComputeSketch(norm->shape, SketchKind::kVertexSample, 8);
  EXPECT_EQ(s.size(), 16u);
  for (double f : s) EXPECT_TRUE(std::isfinite(f));
}

// --- Options validation ------------------------------------------------

TEST(LshIndexTest, RejectsNonsenseOptions) {
  LshOptions bad;
  bad.tables = 0;
  EXPECT_FALSE(LshIndex::Create(bad).ok());
  bad = LshOptions{};
  bad.bands = -1;
  EXPECT_FALSE(LshIndex::Create(bad).ok());
  bad = LshOptions{};
  bad.rows = 0;
  EXPECT_FALSE(LshIndex::Create(bad).ok());
  bad = LshOptions{};
  bad.quantum = 0.0;
  EXPECT_FALSE(LshIndex::Create(bad).ok());
  bad = LshOptions{};
  bad.quantum = std::nan("");
  EXPECT_FALSE(LshIndex::Create(bad).ok());
  EXPECT_TRUE(LshIndex::Create(LshOptions{}).ok());
}

TEST(LshIndexTest, RemoveRequiresTrackedKeys) {
  auto index = LshIndex::Create(LshOptions{});
  ASSERT_TRUE(index.ok());
  (*index)->Insert(7, Normalized(RegularPolygon(6, 1.0)));
  const util::Status st = (*index)->Remove(7);
  EXPECT_EQ(st.code(), util::StatusCode::kFailedPrecondition);
}

// --- Determinism -------------------------------------------------------

TEST(LshIndexTest, SeedDeterministicQueries) {
  // Two indexes built with identical options and insertion sequences
  // return bit-identical candidate rankings; repeated queries on one
  // index are idempotent.
  LshOptions options;
  options.seed = 42;
  auto a = LshIndex::Create(options);
  auto b = LshIndex::Create(options);
  ASSERT_TRUE(a.ok() && b.ok());
  util::Rng rng(9);
  for (uint64_t id = 0; id < 40; ++id) {
    const Polyline p =
        Normalized(Jitter(RegularPolygon(5 + int(id % 6), 1.0), &rng, 0.01));
    (*a)->Insert(id, p);
    (*b)->Insert(id, p);
  }
  const Polyline q = Normalized(RegularPolygon(7, 1.0));
  std::vector<uint64_t> ra, rb, ra2;
  ASSERT_TRUE((*a)->Query(q, 0, {}, &ra, nullptr).ok());
  ASSERT_TRUE((*b)->Query(q, 0, {}, &rb, nullptr).ok());
  ASSERT_TRUE((*a)->Query(q, 0, {}, &ra2, nullptr).ok());
  EXPECT_EQ(ra, rb);
  EXPECT_EQ(ra, ra2);
}

TEST(LshIndexTest, TruncationKeepsRankedPrefix) {
  auto index = LshIndex::Create(LshOptions{});
  ASSERT_TRUE(index.ok());
  util::Rng rng(3);
  const Polyline proto = RegularPolygon(8, 1.0);
  for (uint64_t id = 0; id < 30; ++id) {
    (*index)->Insert(id, Normalized(Jitter(proto, &rng, 0.008)));
  }
  std::vector<uint64_t> all, top;
  LshIndex::QueryStats stats_all, stats_top;
  const Polyline q = Normalized(Jitter(proto, &rng, 0.008));
  ASSERT_TRUE((*index)->Query(q, 0, {}, &all, &stats_all).ok());
  ASSERT_TRUE((*index)->Query(q, 5, {}, &top, &stats_top).ok());
  ASSERT_GT(all.size(), 5u);
  ASSERT_EQ(top.size(), 5u);
  EXPECT_TRUE(stats_top.truncated);
  EXPECT_FALSE(stats_all.truncated);
  EXPECT_TRUE(std::equal(top.begin(), top.end(), all.begin()));
}

// --- Recall on jittered instances -------------------------------------

/// Irregular star polygon with a dominant axis: the 1 + 0.35 cos(a) term
/// keeps the alpha-diameter stable under jitter (so query and instance
/// normalize about the same axis), the per-vertex wiggles make each
/// prototype geometrically unique — unlike regular n-gons, whose
/// rotational symmetry makes phase-shifted prototypes normalize
/// identically.
Polyline StarPolygon(int n, util::Rng* rng) {
  std::vector<Point> v;
  for (int i = 0; i < n; ++i) {
    const double a = 2.0 * M_PI * i / n;
    const double r = 1.0 + 0.35 * std::cos(a) + rng->Uniform(-0.08, 0.08);
    v.push_back({r * std::cos(a), r * std::sin(a)});
  }
  return Polyline::Closed(std::move(v));
}

TEST(LshIndexTest, RecallOnJitteredInstances) {
  // 20 distinct prototypes x 10 jittered instances, indexed the way the
  // retrieval pipeline does it (every normalized copy of a finalized
  // base). Querying with a fresh jitter of one prototype must surface
  // (nearly all of) that prototype's instances in the top candidates.
  constexpr int kProtos = 20;
  constexpr int kInstances = 10;
  util::Rng rng(17);
  std::vector<Polyline> protos;
  for (int p = 0; p < kProtos; ++p) {
    protos.push_back(StarPolygon(8 + p % 6, &rng));
  }
  core::ShapeBase base;
  for (int p = 0; p < kProtos; ++p) {
    for (int i = 0; i < kInstances; ++i) {
      ASSERT_TRUE(base.AddShape(Jitter(protos[p], &rng, 0.008)).ok());
    }
  }
  ASSERT_TRUE(base.Finalize().ok());
  auto index = LshIndex::BuildFromBase(base, LshOptions{});
  ASSERT_TRUE(index.ok());

  size_t hits = 0, want = 0;
  for (int p = 0; p < kProtos; ++p) {
    std::vector<uint64_t> out;
    ASSERT_TRUE((*index)
                    ->Query(Normalized(Jitter(protos[p], &rng, 0.008)), 0, {},
                            &out, nullptr)
                    .ok());
    // Candidates are copy indices in preference order; fold to the first
    // kInstances distinct shapes and count the prototype's own.
    std::vector<bool> seen(base.NumShapes(), false);
    size_t distinct = 0;
    want += kInstances;
    for (uint64_t copy_idx : out) {
      const core::ShapeId shape = base.copy(uint32_t(copy_idx)).shape_id;
      if (seen[shape]) continue;
      seen[shape] = true;
      if (int(shape) / kInstances == p) ++hits;
      if (++distinct == kInstances) break;
    }
  }
  // Banding math predicts ~0.99+ per instance at these settings; leave
  // slack for unlucky prototypes.
  EXPECT_GT(double(hits) / double(want), 0.9) << hits << "/" << want;
}

TEST(LshIndexTest, SparseIdsMatchDenseCounting) {
  // Query counts collisions in a flat array when ids are small and falls
  // back to a hash map for sparse id spaces; the two paths must produce
  // the identical ranking. Build twin indexes whose ids differ only by a
  // huge offset (forcing the map path) and compare.
  constexpr uint64_t kOffset = uint64_t{1} << 40;
  LshOptions options;
  options.seed = 7;
  auto dense = LshIndex::Create(options);
  auto sparse = LshIndex::Create(options);
  ASSERT_TRUE(dense.ok() && sparse.ok());
  util::Rng rng(29);
  const Polyline proto = RegularPolygon(9, 1.0);
  for (uint64_t id = 0; id < 30; ++id) {
    const Polyline inst = Normalized(Jitter(proto, &rng, 0.008));
    (*dense)->Insert(id, inst);
    (*sparse)->Insert(kOffset + id, inst);
  }
  const Polyline q = Normalized(Jitter(proto, &rng, 0.008));
  std::vector<uint64_t> rd, rs;
  LshIndex::QueryStats sd, ss;
  ASSERT_TRUE((*dense)->Query(q, 0, {}, &rd, &sd).ok());
  ASSERT_TRUE((*sparse)->Query(q, 0, {}, &rs, &ss).ok());
  ASSERT_EQ(rd.size(), rs.size());
  ASSERT_FALSE(rd.empty());
  for (size_t i = 0; i < rd.size(); ++i) {
    EXPECT_EQ(rd[i] + kOffset, rs[i]) << "i=" << i;
  }
  EXPECT_EQ(sd.candidates, ss.candidates);
  EXPECT_EQ(sd.buckets_probed, ss.buckets_probed);
}

// --- CandidateSource contract ------------------------------------------

class CandidateSourceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    util::Rng rng(23);
    for (int p = 0; p < 8; ++p) {
      const Polyline proto = RegularPolygon(4 + p, 1.0);
      for (int i = 0; i < 5; ++i) {
        ASSERT_TRUE(base_.AddShape(Jitter(proto, &rng, 0.008)).ok());
      }
    }
    ASSERT_TRUE(base_.Finalize().ok());
  }
  core::ShapeBase base_;
};

TEST_F(CandidateSourceTest, ExactEnumerationEmitsEveryCopy) {
  core::ExactEnumerationSource source(&base_);
  std::vector<uint32_t> out;
  core::CandidateSourceStats stats;
  ASSERT_TRUE(source
                  .Generate(Normalized(RegularPolygon(6, 1.0)), 0, {}, &out,
                            &stats)
                  .ok());
  EXPECT_EQ(out.size(), base_.NumCopies());
  EXPECT_TRUE(stats.exhaustive);
  EXPECT_FALSE(stats.truncated);
  EXPECT_EQ(stats.candidates_emitted, base_.NumCopies());
  for (size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i);
}

TEST_F(CandidateSourceTest, ExactEnumerationTruncates) {
  core::ExactEnumerationSource source(&base_);
  std::vector<uint32_t> out;
  core::CandidateSourceStats stats;
  ASSERT_TRUE(source
                  .Generate(Normalized(RegularPolygon(6, 1.0)), 7, {}, &out,
                            &stats)
                  .ok());
  EXPECT_EQ(out.size(), 7u);
  EXPECT_TRUE(stats.truncated);
  EXPECT_FALSE(stats.exhaustive);
}

TEST_F(CandidateSourceTest, SourcesAreInterchangeableInMatchCandidates) {
  // MatchCandidates over the exhaustive source must equal plain Match
  // under the discrete measure (same scoring, same candidate pool) —
  // the interchangeability half of the CandidateSource contract.
  core::EnvelopeMatcher matcher(&base_);
  core::MatchOptions options;
  options.k = 5;
  options.measure = core::MatchMeasure::kDiscreteSymmetric;
  const Polyline q = RegularPolygon(7, 1.0);

  auto exact = matcher.Match(q, options);
  ASSERT_TRUE(exact.ok());

  core::ExactEnumerationSource source(&base_);
  core::MatchStats stats;
  auto tiered = matcher.MatchCandidates(q, &source, options, &stats);
  ASSERT_TRUE(tiered.ok());

  ASSERT_EQ(exact->size(), tiered->size());
  for (size_t i = 0; i < exact->size(); ++i) {
    EXPECT_EQ((*exact)[i].shape_id, (*tiered)[i].shape_id) << "rank " << i;
    EXPECT_NEAR((*exact)[i].distance, (*tiered)[i].distance, 1e-12);
  }
  EXPECT_FALSE(stats.partial);
  EXPECT_TRUE(stats.exhausted);
  EXPECT_EQ(stats.candidates_evaluated, base_.NumCopies());
}

TEST_F(CandidateSourceTest, LshSourceFindsTheNearDuplicate) {
  auto source = LshCandidateSource::Build(&base_, LshOptions{});
  ASSERT_TRUE(source.ok());
  core::EnvelopeMatcher matcher(&base_);
  core::MatchOptions options;
  options.k = 3;
  options.measure = core::MatchMeasure::kDiscreteSymmetric;
  util::Rng rng(31);
  const Polyline q = Jitter(RegularPolygon(7, 1.0), &rng, 0.008);

  core::MatchStats stats;
  auto results = matcher.MatchCandidates(q, source->get(), options, &stats);
  ASSERT_TRUE(results.ok());
  ASSERT_FALSE(results->empty());
  // The best hit is one of the 7-gon instances (shape ids 15..19).
  EXPECT_EQ(base_.shape((*results)[0].shape_id).boundary.size(), 7u);
  // The pre-filter pruned: fewer candidates scored than the base holds.
  EXPECT_LT(stats.candidates_evaluated, base_.NumCopies());
  EXPECT_GT(stats.candidates_evaluated, 0u);
}

TEST_F(CandidateSourceTest, BudgetTruncationIsDeterministicPartial) {
  core::EnvelopeMatcher matcher(&base_);
  core::MatchOptions options;
  options.k = 3;
  options.measure = core::MatchMeasure::kDiscreteSymmetric;
  options.budget.max_candidates = 6;
  core::ExactEnumerationSource source(&base_);

  core::MatchStats s1, s2;
  auto r1 = matcher.MatchCandidates(RegularPolygon(6, 1.0), &source, options,
                                    &s1);
  auto r2 = matcher.MatchCandidates(RegularPolygon(6, 1.0), &source, options,
                                    &s2);
  ASSERT_TRUE(r1.ok() && r2.ok());
  EXPECT_TRUE(s1.partial);
  EXPECT_EQ(s1.termination.code(), util::StatusCode::kResourceExhausted);
  EXPECT_EQ(s1.candidates_evaluated, 6u);
  ASSERT_EQ(r1->size(), r2->size());
  for (size_t i = 0; i < r1->size(); ++i) {
    EXPECT_EQ((*r1)[i].shape_id, (*r2)[i].shape_id);
    EXPECT_DOUBLE_EQ((*r1)[i].distance, (*r2)[i].distance);
  }
}

TEST_F(CandidateSourceTest, ExpiredDeadlineAtEntryIsAnError) {
  core::EnvelopeMatcher matcher(&base_);
  core::MatchOptions options;
  options.deadline = util::Deadline::AfterMicros(0);
  core::ExactEnumerationSource source(&base_);
  core::MatchStats stats;
  auto result =
      matcher.MatchCandidates(RegularPolygon(6, 1.0), &source, options,
                              &stats);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kDeadlineExceeded);
  EXPECT_FALSE(stats.partial);
  EXPECT_EQ(stats.candidates_evaluated, 0u);
}

TEST_F(CandidateSourceTest, CancelledTokenStopsMatchCandidates) {
  core::EnvelopeMatcher matcher(&base_);
  core::MatchOptions options;
  util::CancellationToken token;
  token.Cancel("operator stop");
  options.cancel_token = &token;
  core::ExactEnumerationSource source(&base_);
  auto result =
      matcher.MatchCandidates(RegularPolygon(6, 1.0), &source, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kCancelled);
}

TEST_F(CandidateSourceTest, LshQueryHonorsCancellation) {
  auto index = LshIndex::BuildFromBase(base_, LshOptions{});
  ASSERT_TRUE(index.ok());
  util::CancellationToken token;
  token.Cancel();
  util::QueryControl control;
  control.cancel = &token;
  std::vector<uint64_t> out;
  const util::Status st =
      (*index)->Query(Normalized(RegularPolygon(6, 1.0)), 0, control, &out,
                      nullptr);
  EXPECT_EQ(st.code(), util::StatusCode::kCancelled);
}

// --- Query-operator integration ----------------------------------------

TEST(QueryPrefilterTest, ExactPrefilterKeepsOperatorResults) {
  util::Rng rng(41);
  query::ImageBase images;
  for (int img = 0; img < 6; ++img) {
    std::vector<Polyline> boundaries;
    boundaries.push_back(
        Jitter(RegularPolygon(5, 1.0, {0, 0}), &rng, 0.005));
    boundaries.push_back(
        Jitter(RegularPolygon(8, 0.8, {4, 0}), &rng, 0.005));
    ASSERT_TRUE(images.AddImage(boundaries).ok());
  }
  ASSERT_TRUE(images.Finalize().ok());

  const Polyline q = RegularPolygon(5, 1.0);

  query::QueryContext plain(&images);
  auto want = plain.EvalSimilar(q);
  ASSERT_TRUE(want.ok());
  ASSERT_FALSE(want->empty());

  // Exhaustive source through the tiered path: identical image set.
  core::ExactEnumerationSource exact(&images.shape_base());
  query::QueryContextOptions exact_opts;
  exact_opts.prefilter = &exact;
  query::QueryContext tiered(&images, exact_opts);
  auto got = tiered.EvalSimilar(q);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*want, *got);
  EXPECT_GT(tiered.stats().prefilter_candidates, 0u);

  // LSH source: a subset of the exact answer (approximate recall), and
  // here the near-duplicates collide reliably, so the full set.
  auto lsh = LshCandidateSource::Build(&images.shape_base(), LshOptions{});
  ASSERT_TRUE(lsh.ok());
  query::QueryContextOptions lsh_opts;
  lsh_opts.prefilter = lsh->get();
  query::QueryContext approx(&images, lsh_opts);
  auto approx_got = approx.EvalSimilar(q);
  ASSERT_TRUE(approx_got.ok());
  for (core::ImageId id : *approx_got) {
    EXPECT_TRUE(std::binary_search(want->begin(), want->end(), id));
  }
  EXPECT_EQ(*approx_got, *want);
}

// --- Dynamic tier ------------------------------------------------------

TEST(DynamicLshTest, ObserverMirrorsInsertsAndRemoves) {
  core::DynamicShapeBase base;
  auto lsh = DynamicLshIndex::Create(&base, LshOptions{});
  ASSERT_TRUE(lsh.ok());
  base.SetObserver(lsh->get());

  util::Rng rng(51);
  const Polyline proto = RegularPolygon(7, 1.0);
  std::vector<uint64_t> ids;
  for (int i = 0; i < 12; ++i) {
    auto id = base.Insert(Jitter(proto, &rng, 0.008));
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  // Distractors.
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(base.Insert(Jitter(RegularPolygon(4, 1.0), &rng, 0.008)).ok());
  }
  EXPECT_GT((*lsh)->index().NumSketches(), 0u);

  const Polyline q = Normalized(Jitter(proto, &rng, 0.008));
  std::vector<uint64_t> out;
  ASSERT_TRUE((*lsh)->index().Query(q, 0, {}, &out, nullptr).ok());
  size_t proto_hits = 0;
  for (uint64_t id : out) {
    if (std::find(ids.begin(), ids.end(), id) != ids.end()) ++proto_hits;
  }
  EXPECT_GE(proto_hits, 10u) << "recall over live instances";

  // Remove half; the candidates must drop them immediately.
  for (size_t i = 0; i < ids.size(); i += 2) {
    ASSERT_TRUE(base.Remove(ids[i]).ok());
  }
  out.clear();
  ASSERT_TRUE((*lsh)->index().Query(q, 0, {}, &out, nullptr).ok());
  for (uint64_t id : out) {
    EXPECT_TRUE(base.IsLive(id)) << "stale candidate " << id;
  }
}

TEST(DynamicLshTest, CandidatesFeedMatchCandidates) {
  core::DynamicShapeBase base;
  auto lsh = DynamicLshIndex::Create(&base, LshOptions{});
  ASSERT_TRUE(lsh.ok());
  base.match_options().measure = core::MatchMeasure::kDiscreteSymmetric;
  base.SetObserver(lsh->get());

  util::Rng rng(61);
  for (int p = 0; p < 6; ++p) {
    const Polyline proto = RegularPolygon(4 + p, 1.0);
    for (int i = 0; i < 6; ++i) {
      ASSERT_TRUE(base.Insert(Jitter(proto, &rng, 0.008)).ok());
    }
  }

  const Polyline raw_q = Jitter(RegularPolygon(7, 1.0), &rng, 0.008);
  std::vector<uint64_t> candidates;
  ASSERT_TRUE(
      (*lsh)->index().Query(Normalized(raw_q), 0, {}, &candidates, nullptr)
          .ok());
  ASSERT_FALSE(candidates.empty());

  // Exact verification over the approximate candidates equals the full
  // dynamic Match when the pre-filter recalled the true best.
  auto verified = base.MatchCandidates(raw_q, lsh->get(), 3);
  ASSERT_TRUE(verified.ok());
  auto full = base.Match(raw_q, 3);
  ASSERT_TRUE(full.ok());
  ASSERT_FALSE(verified->empty());
  EXPECT_EQ((*verified)[0].first, (*full)[0].first);
  EXPECT_NEAR((*verified)[0].second, (*full)[0].second, 1e-12);
}

TEST(DynamicLshTest, SurvivesCompactionViaStableIds) {
  core::DynamicShapeBase::Options options;
  options.min_compaction_size = 4;
  options.max_delta_fraction = 0.01;  // Compact aggressively.
  core::DynamicShapeBase base(options);
  auto lsh = DynamicLshIndex::Create(&base, LshOptions{});
  ASSERT_TRUE(lsh.ok());
  base.SetObserver(lsh->get());

  util::Rng rng(71);
  const Polyline proto = RegularPolygon(6, 1.0);
  std::vector<uint64_t> ids;
  for (int i = 0; i < 20; ++i) {
    auto id = base.Insert(Jitter(proto, &rng, 0.008));
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  ASSERT_TRUE(base.Compact().ok());
  ASSERT_GT(base.NumCompactions(), 0u);

  // Stable ids survived compaction, so candidates stay valid and map to
  // the rebuilt main base's copies.
  std::vector<uint64_t> out;
  ASSERT_TRUE((*lsh)
                  ->index()
                  .Query(Normalized(Jitter(proto, &rng, 0.008)), 0, {}, &out,
                         nullptr)
                  .ok());
  ASSERT_FALSE(out.empty());
  auto verified =
      base.MatchCandidates(Jitter(proto, &rng, 0.008), lsh->get(), 3);
  ASSERT_TRUE(verified.ok());
  EXPECT_FALSE(verified->empty());
}

TEST(DynamicLshTest, RebuildRepopulatesTables) {
  core::DynamicShapeBase base;
  util::Rng rng(81);
  const Polyline proto = RegularPolygon(8, 1.0);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(base.Insert(Jitter(proto, &rng, 0.008)).ok());
  }
  // Attached late: tables are empty until Rebuild seeds them.
  auto lsh = DynamicLshIndex::Create(&base, LshOptions{});
  ASSERT_TRUE(lsh.ok());
  EXPECT_EQ((*lsh)->index().NumSketches(), 0u);
  ASSERT_TRUE((*lsh)->Rebuild().ok());
  EXPECT_GT((*lsh)->index().NumSketches(), 0u);
  std::vector<uint64_t> out;
  ASSERT_TRUE((*lsh)
                  ->index()
                  .Query(Normalized(Jitter(proto, &rng, 0.008)), 0, {}, &out,
                         nullptr)
                  .ok());
  EXPECT_GE(out.size(), 8u);
}

// --- Concurrency (the TSan target) -------------------------------------

TEST(DynamicLshTest, ConcurrentQueriesDuringInserts) {
  core::DynamicShapeBase base;
  auto lsh = DynamicLshIndex::Create(&base, LshOptions{});
  ASSERT_TRUE(lsh.ok());
  base.SetObserver(lsh->get());

  util::Rng seed_rng(91);
  const Polyline proto = RegularPolygon(7, 1.0);
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(base.Insert(Jitter(proto, &seed_rng, 0.008)).ok());
  }

  std::atomic<bool> stop{false};
  std::atomic<size_t> queries{0};
  const Polyline q = Normalized(RegularPolygon(7, 1.0));
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&] {
      std::vector<uint64_t> out;
      LshIndex::QueryStats stats;
      while (!stop.load(std::memory_order_acquire)) {
        EXPECT_TRUE((*lsh)->index().Query(q, 16, {}, &out, &stats).ok());
        queries.fetch_add(1, std::memory_order_relaxed);
        // Let the writer through: glibc's rwlock prefers readers, and a
        // tight shared-lock loop would starve the insert thread.
        std::this_thread::yield();
      }
    });
  }
  // The single mutating thread (the base's contract) interleaves inserts
  // and removes while the readers probe.
  util::Rng rng(92);
  std::vector<uint64_t> ids;
  for (int i = 0; i < 64; ++i) {
    auto id = base.Insert(Jitter(proto, &rng, 0.01));
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
    if (i % 3 == 0 && ids.size() > 4) {
      ASSERT_TRUE(base.Remove(ids[ids.size() - 3]).ok());
    }
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  EXPECT_GT(queries.load(), 0u);
  EXPECT_EQ((*lsh)->index().NumSketches() > 0, true);
}

// --- Observability -----------------------------------------------------

TEST(LshMetricsTest, QueryAndMutationCountersAdvance)  {
  auto& registry = obs::MetricRegistry::Default();
  const auto value_of = [&registry](const std::string& name) {
    uint64_t total = 0;
    for (const auto& s : registry.Snapshot().samples) {
      if (s.name == name) total += s.counter_value;
    }
    return total;
  };
  const uint64_t queries_before = value_of("geosir_lsh_queries_total");
  const uint64_t inserts_before = value_of("geosir_lsh_inserts_total");

  auto index = LshIndex::Create(LshOptions{});
  ASSERT_TRUE(index.ok());
  (*index)->Insert(1, Normalized(RegularPolygon(6, 1.0)));
  std::vector<uint64_t> out;
  ASSERT_TRUE(
      (*index)->Query(Normalized(RegularPolygon(6, 1.0)), 0, {}, &out, nullptr)
          .ok());

  EXPECT_GT(value_of("geosir_lsh_queries_total"), queries_before);
  EXPECT_GT(value_of("geosir_lsh_inserts_total"), inserts_before);
}

}  // namespace
}  // namespace geosir::lsh
