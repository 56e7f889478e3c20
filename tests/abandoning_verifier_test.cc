// Differential tests of the early-abandoning verifier behind
// EnvelopeMatcher::MatchCandidates and EnvelopeMatcher::Match (DESIGN.md
// section 14.3): on a seeded base of 10^3 shapes, some stored twice so
// exact distance ties exist, every ranking must equal a test-local fold
// of QueryTarget::Score over the same candidates in the same order — the
// source's for MatchCandidates, the envelope rounds' admission order
// (Match's AccessTrace) for Match — bit for bit on shape id, distance and
// copy index, for all four measures, k in {1, 10}, collect mode, and 1
// and 4 threads; MatchCandidates also under the exhaustive and LSH
// sources. Both entry points also run over a dynamic variant of the base
// (some shapes removal-marked, an unindexed tail appended): no removed
// copy may be verified, and Match's trace ends with every live tail copy.
// A deadline that expires mid-scan must leave the ranking of the
// scanned prefix, and Match's early exit must agree with its stop rule
// evaluated on the full-scoring ranking, also at k = NumShapes. One
// verifier call must count its kernel edges in both directions.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "core/candidate_source.h"
#include "core/envelope_matcher.h"
#include "core/normalize.h"
#include "core/shape_base.h"
#include "core/similarity.h"
#include "geom/kernel_dispatch.h"
#include "lsh/lsh_index.h"
#include "obs/metrics.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "workload/noise.h"
#include "workload/polygon_gen.h"

namespace geosir::core {
namespace {

using geom::Polyline;

constexpr size_t kPrototypes = 100;
constexpr size_t kInstances = 10;  // Jittered instances per prototype.
constexpr size_t kDuplicated = 10;  // Instances stored a second time.

ShapeBaseOptions FixtureOptions() {
  ShapeBaseOptions options;
  options.normalize.max_axes = 4;  // Keeps the continuous scans short.
  return options;
}

struct Fixture {
  ShapeBase base{FixtureOptions()};
  // The same shapes, then some removal-marked and an unindexed tail
  // appended after Finalize, as a dynamic base holds them.
  ShapeBase dynamic{FixtureOptions()};
  std::unique_ptr<lsh::LshCandidateSource> lsh;
  std::vector<Polyline> queries;
};

/// Appends `boundary` to `base`'s unindexed tail.
void AppendToTail(ShapeBase* base, const Polyline& boundary) {
  Shape shape;
  shape.boundary = boundary;
  auto copies = NormalizeShape(shape, base->options().normalize);
  ASSERT_TRUE(copies.ok()) << copies.status().ToString();
  base->AddNormalized(std::move(shape), std::move(copies).value());
}

const Fixture& SharedFixture() {
  static const Fixture* fixture = [] {
    auto* f = new Fixture();
    util::Rng rng(1616);
    workload::PolygonGenOptions gen;
    gen.min_vertices = 8;
    gen.max_vertices = 16;
    // Prototype 0 is a regular 12-gon: its instances have several
    // near-equal diameters, so each stores several copies that all score
    // close to a 12-gon query. A bound over the k best *copies* would
    // then cut into the k best shapes.
    std::vector<geom::Point> dodecagon;
    for (int i = 0; i < 12; ++i) {
      dodecagon.push_back({std::cos(i * M_PI / 6), std::sin(i * M_PI / 6)});
    }
    std::vector<Polyline> prototypes = {Polyline::Closed(dodecagon)};
    while (prototypes.size() < kPrototypes) {
      prototypes.push_back(RandomStarPolygon(&rng, gen));
    }
    std::vector<Polyline> instances;
    for (size_t i = 0; i < kPrototypes * kInstances - kDuplicated; ++i) {
      instances.push_back(
          workload::JitterVertices(prototypes[i % kPrototypes], 0.01, &rng));
    }
    // The first instances of the first prototypes again, verbatim: their
    // copies tie exactly with the originals on every measure.
    for (size_t i = 0; i < kDuplicated; ++i) instances.push_back(instances[i]);
    for (const Polyline& shape : instances) {
      EXPECT_TRUE(f->base.AddShape(shape).ok());
      EXPECT_TRUE(f->dynamic.AddShape(shape).ok());
    }
    EXPECT_TRUE(f->base.Finalize().ok());
    EXPECT_TRUE(f->dynamic.Finalize().ok());
    auto lsh = lsh::LshCandidateSource::Build(&f->base, lsh::LshOptions{});
    EXPECT_TRUE(lsh.ok());
    f->lsh = std::move(lsh).value();
    // Queries near duplicated shapes, so ties compete for the top ranks.
    for (size_t q = 0; q < 2; ++q) {
      f->queries.push_back(
          workload::JitterVertices(prototypes[q * 3], 0.01, &rng));
    }
    // The dynamic variant: every other instance of the query prototypes
    // (0 and 3) and the duplicate of instance 0 removed; a tail of fresh
    // instances of both prototypes plus verbatim copies of instances 0-3
    // (exact ties with indexed shapes), its first shape removed too.
    for (ShapeId id = 0; id < kPrototypes * kInstances - kDuplicated; ++id) {
      const size_t prototype = id % kPrototypes;
      if ((prototype == 0 || prototype == 3) && (id / kPrototypes) % 2 == 1) {
        f->dynamic.MarkRemoved(id);
      }
    }
    f->dynamic.MarkRemoved(kPrototypes * kInstances - kDuplicated);
    const ShapeId first_tail = static_cast<ShapeId>(f->dynamic.NumShapes());
    for (size_t i = 0; i < 8; ++i) {
      AppendToTail(&f->dynamic, workload::JitterVertices(
                                    prototypes[(i % 2) * 3], 0.01, &rng));
    }
    for (size_t i = 0; i < 4; ++i) AppendToTail(&f->dynamic, instances[i]);
    f->dynamic.MarkRemoved(first_tail);
    return f;
  }();
  return *fixture;
}

/// The candidates `source` emits for `query`, in source order, with each
/// one's full score under `measure`.
struct Scored {
  std::vector<uint32_t> candidates;
  std::vector<double> scores;
};

Scored ScoreInFull(const ShapeBase& base, const Polyline& query,
                   std::vector<uint32_t> candidates, MatchMeasure measure) {
  Scored out;
  out.candidates = std::move(candidates);
  auto qnorm = NormalizeQuery(query);
  EXPECT_TRUE(qnorm.ok());
  const QueryTarget target(qnorm->shape, MatchOptions{}.similarity);
  for (uint32_t c : out.candidates) {
    out.scores.push_back(target.Score(base.copy(c).shape, measure));
  }
  return out;
}

/// The source's candidates minus removed shapes' copies, which
/// MatchCandidates drops before verifying.
Scored ScoreAll(const ShapeBase& base, const Polyline& query,
                CandidateSource* source, MatchMeasure measure) {
  auto qnorm = NormalizeQuery(query);
  EXPECT_TRUE(qnorm.ok());
  std::vector<uint32_t> candidates;
  EXPECT_TRUE(
      source->Generate(qnorm->shape, 0, MatchOptions{}, &candidates, nullptr)
          .ok());
  std::erase_if(candidates, [&](uint32_t c) {
    return base.removed(base.copy(c).shape_id);
  });
  return ScoreInFull(base, query, std::move(candidates), measure);
}

/// The live copies of `base`'s unindexed tail, in copy order.
std::vector<uint32_t> LiveTail(const ShapeBase& base) {
  std::vector<uint32_t> tail;
  for (size_t c = base.NumIndexedCopies(); c < base.NumCopies(); ++c) {
    if (!base.removed(base.copy(c).shape_id)) tail.push_back(c);
  }
  return tail;
}

/// Names the base a case runs over.
std::string BaseName(const Fixture& f, const ShapeBase* base) {
  return base == &f.base ? "static " : "dynamic ";
}

/// The reference ranking: FoldBest over the first `prefix` candidates in
/// source order, then RankResults.
std::vector<MatchResult> Reference(const ShapeBase& base, const Scored& s,
                                   size_t prefix, size_t k,
                                   double collect_threshold) {
  std::unordered_map<ShapeId, MatchResult> best;
  for (size_t i = 0; i < prefix; ++i) {
    const uint32_t c = s.candidates[i];
    FoldBest({base.copy(c).shape_id, s.scores[i], c}, &best);
  }
  std::vector<MatchResult> results;
  for (const auto& [id, result] : best) results.push_back(result);
  RankResults(&results, k, collect_threshold);
  return results;
}

void ExpectSame(const std::vector<MatchResult>& want,
                const std::vector<MatchResult>& got, const std::string& what) {
  ASSERT_EQ(want.size(), got.size()) << what;
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want[i].shape_id, got[i].shape_id) << what << " rank " << i;
    EXPECT_EQ(want[i].distance, got[i].distance) << what << " rank " << i;
    EXPECT_EQ(want[i].copy_index, got[i].copy_index) << what << " rank " << i;
  }
}

bool IsDiscrete(MatchMeasure m) {
  return m == MatchMeasure::kDiscreteSymmetric ||
         m == MatchMeasure::kDiscreteDirected;
}

using Param = std::tuple<MatchMeasure, bool /*lsh source*/>;

class AbandoningVerifierTest : public ::testing::TestWithParam<Param> {};

TEST_P(AbandoningVerifierTest, MatchesFullScoringFold) {
  const auto [measure, use_lsh] = GetParam();
  const Fixture& f = SharedFixture();
  util::ThreadPool pool(4);
  // The LSH tables index the static base only.
  std::vector<const ShapeBase*> bases = {&f.base};
  if (!use_lsh) bases.push_back(&f.dynamic);

  for (const ShapeBase* base : bases) {
    ExactEnumerationSource exhaustive(base);
    CandidateSource* source =
        use_lsh ? static_cast<CandidateSource*>(f.lsh.get()) : &exhaustive;
    for (size_t q = 0; q < f.queries.size(); ++q) {
      const Scored scored = ScoreAll(*base, f.queries[q], source, measure);
      ASSERT_FALSE(scored.candidates.empty());
      const size_t n = scored.candidates.size();
      // Collect mode's threshold sits exactly on the 15th best shape's
      // distance, so the strict abandon rule meets a tie at the boundary.
      const std::vector<MatchResult> top = Reference(*base, scored, n, 15, -1);
      ASSERT_FALSE(top.empty());
      const double collect = top.back().distance;

      struct Mode {
        const char* name;
        size_t k;
        double collect_threshold;
      };
      for (const Mode& mode : {Mode{"k=1", 1, -1.0}, Mode{"k=10", 10, -1.0},
                               Mode{"collect", 0, collect}}) {
        const std::vector<MatchResult> want =
            Reference(*base, scored, n, mode.k, mode.collect_threshold);
        for (size_t threads : {1, 4}) {
          MatchOptions options;
          options.measure = measure;
          options.k = mode.k;
          options.collect_threshold = mode.collect_threshold;
          options.num_threads = threads;
          options.pool = &pool;
          EnvelopeMatcher matcher(base);
          MatchStats stats;
          auto got = matcher.MatchCandidates(f.queries[q], source, options,
                                             &stats);
          ASSERT_TRUE(got.ok()) << got.status().ToString();
          const std::string what = BaseName(f, base) + source->name() + " q" +
                                   std::to_string(q) + " " + mode.name +
                                   " threads=" + std::to_string(threads);
          ExpectSame(want, *got, what);
          EXPECT_EQ(stats.candidates_evaluated, n) << what;
          EXPECT_EQ(stats.eval_cache_hits, 0u) << what;
          if (!IsDiscrete(measure)) {
            EXPECT_EQ(stats.candidates_abandoned, 0u) << what;
          } else if (!use_lsh) {
            EXPECT_GT(stats.candidates_abandoned, 0u) << what;
          }
          EXPECT_LE(stats.candidates_abandoned, n) << what;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    MeasuresAndSources, AbandoningVerifierTest,
    ::testing::Combine(::testing::Values(MatchMeasure::kContinuousSymmetric,
                                         MatchMeasure::kContinuousDirected,
                                         MatchMeasure::kDiscreteSymmetric,
                                         MatchMeasure::kDiscreteDirected),
                       ::testing::Bool()));

class AbandoningMatchTest : public ::testing::TestWithParam<MatchMeasure> {};

TEST_P(AbandoningMatchTest, MatchEqualsFullScoringOfItsAdmittedCandidates) {
  const MatchMeasure measure = GetParam();
  const Fixture& f = SharedFixture();
  util::ThreadPool pool(4);

  for (const ShapeBase* base : {&f.base, &f.dynamic}) {
    const std::vector<uint32_t> tail = LiveTail(*base);
    for (size_t q = 0; q < f.queries.size(); ++q) {
      // Collect mode's threshold sits exactly on the 15th best shape's
      // distance, so the strict abandon rule meets a tie at the boundary.
      MatchOptions top_options;
      top_options.measure = measure;
      top_options.k = 15;
      EnvelopeMatcher top_matcher(base);
      auto top = top_matcher.Match(f.queries[q], top_options);
      ASSERT_TRUE(top.ok()) << top.status().ToString();
      ASSERT_FALSE(top->empty());
      const double collect = top->back().distance;

      struct Mode {
        const char* name;
        size_t k;
        double collect_threshold;
      };
      for (const Mode& mode : {Mode{"k=1", 1, -1.0}, Mode{"k=10", 10, -1.0},
                               Mode{"collect", 0, collect}}) {
        AccessTrace serial_trace;
        for (size_t threads : {1, 4}) {
          MatchOptions options;
          options.measure = measure;
          options.k = mode.k;
          options.collect_threshold = mode.collect_threshold;
          options.num_threads = threads;
          options.pool = &pool;
          EnvelopeMatcher matcher(base);
          MatchStats stats;
          AccessTrace trace;
          auto got = matcher.Match(f.queries[q], options, &stats, &trace);
          ASSERT_TRUE(got.ok()) << got.status().ToString();
          const std::string what = BaseName(f, base) + "q" + std::to_string(q) +
                                   " " + mode.name +
                                   " threads=" + std::to_string(threads);
          ASSERT_FALSE(got->empty()) << what;
          EXPECT_EQ(stats.candidates_evaluated, trace.size()) << what;
          EXPECT_EQ(stats.eval_cache_hits, 0u) << what;
          if (threads == 1) {
            serial_trace = trace;
          } else {
            EXPECT_EQ(serial_trace, trace) << what;
          }
          for (uint32_t c : trace) {
            EXPECT_FALSE(base->removed(base->copy(c).shape_id))
                << what << " verified removed copy " << c;
          }
          // The live tail is verified last, whole.
          ASSERT_GE(trace.size(), tail.size()) << what;
          EXPECT_TRUE(std::equal(tail.begin(), tail.end(),
                                 trace.end() - tail.size()))
              << what;
          const Scored scored =
              ScoreInFull(*base, f.queries[q], trace, measure);
          ExpectSame(Reference(*base, scored, scored.candidates.size(), mode.k,
                               mode.collect_threshold),
                     *got, what);
          if (!IsDiscrete(measure)) {
            EXPECT_EQ(stats.candidates_abandoned, 0u) << what;
          } else if (mode.collect_threshold > 0.0) {
            EXPECT_GT(stats.candidates_abandoned, 0u) << what;
          }
          EXPECT_LE(stats.candidates_abandoned, trace.size()) << what;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Measures, AbandoningMatchTest,
    ::testing::Values(MatchMeasure::kContinuousSymmetric,
                      MatchMeasure::kContinuousDirected,
                      MatchMeasure::kDiscreteSymmetric,
                      MatchMeasure::kDiscreteDirected));

// At k = NumShapes the k-th best exists only once every shape has been
// verified, and at k = NumShapes + 1 never: Match's early exit must fire
// exactly when its stop rule, kth <= stop_factor * beta * eps, holds on
// the full-scoring ranking at the final epsilon.
TEST(AbandoningMatchStopTest, EarlyExitFollowsTheStopRuleAtKNearTheShapeCount) {
  util::Rng rng(2024);
  workload::PolygonGenOptions gen;
  const Polyline prototype = workload::RandomStarPolygon(&rng, gen);
  ShapeBase base;
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(
        base.AddShape(workload::JitterVertices(prototype, 0.01, &rng)).ok());
  }
  ASSERT_TRUE(base.Finalize().ok());
  const Polyline query = workload::JitterVertices(prototype, 0.01, &rng);

  for (MatchMeasure measure :
       {MatchMeasure::kDiscreteSymmetric, MatchMeasure::kDiscreteDirected}) {
    for (size_t k : {base.NumShapes(), base.NumShapes() + 1}) {
      MatchOptions options;
      options.measure = measure;
      options.k = k;
      EnvelopeMatcher matcher(&base);
      MatchStats stats;
      AccessTrace trace;
      auto got = matcher.Match(query, options, &stats, &trace);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      const std::string what = "k=" + std::to_string(k) + " measure " +
                               std::to_string(static_cast<int>(measure));
      const Scored scored = ScoreInFull(base, query, trace, measure);
      const std::vector<MatchResult> want =
          Reference(base, scored, scored.candidates.size(), k, -1);
      ExpectSame(want, *got, what);
      const bool rule = want.size() >= k &&
                        want[k - 1].distance <= options.stop_factor *
                                                    options.beta *
                                                    stats.final_epsilon;
      EXPECT_EQ(stats.stopped_early, rule) << what;
      EXPECT_NE(stats.stopped_early, stats.exhausted) << what;
      // The fixture is tight enough for the exit to fire once every
      // shape is in; a k beyond the shape count never fills.
      EXPECT_EQ(stats.stopped_early, k == base.NumShapes()) << what;
    }
  }
}

TEST(AbandoningVerifierDeadlineTest, MidScanStopRanksTheScannedPrefix) {
  const Fixture& f = SharedFixture();
  ExactEnumerationSource exhaustive(&f.base);
  const MatchMeasure measure = MatchMeasure::kDiscreteSymmetric;
  const Scored scored = ScoreAll(f.base, f.queries[0], &exhaustive, measure);
  const size_t n = scored.candidates.size();

  MatchOptions options;
  options.measure = measure;
  options.k = 10;
  EnvelopeMatcher matcher(&f.base);
  const auto start = std::chrono::steady_clock::now();
  ASSERT_TRUE(matcher.MatchCandidates(f.queries[0], &exhaustive, options).ok());
  const auto full = std::chrono::steady_clock::now() - start;

  // Deadlines at fractions of a full scan's time. Wall-clock timing can
  // land a stop before the first chunk (an error) or after the last (a
  // complete answer); retry until one lands mid-scan.
  bool saw_partial = false;
  for (int attempt = 0; attempt < 30 && !saw_partial; ++attempt) {
    MatchOptions timed = options;
    timed.deadline = util::Deadline::After(full * (1 + attempt % 4) / 8);
    MatchStats stats;
    auto got = matcher.MatchCandidates(f.queries[0], &exhaustive, timed, &stats);
    if (!got.ok()) {
      EXPECT_EQ(got.status().code(), util::StatusCode::kDeadlineExceeded);
      continue;
    }
    const size_t prefix = stats.candidates_evaluated;
    EXPECT_EQ(prefix + stats.candidates_skipped, n);
    ExpectSame(Reference(f.base, scored, prefix, options.k, -1), *got,
               "prefix " + std::to_string(prefix));
    if (stats.partial) {
      EXPECT_EQ(stats.termination.code(), util::StatusCode::kDeadlineExceeded);
      EXPECT_LT(prefix, n);
      EXPECT_FALSE(got->empty());
      saw_partial = true;
    }
  }
  EXPECT_TRUE(saw_partial) << "no deadline landed mid-scan";
}

// geosir_geom_kernel_batched_edges_total counts every kernel edge one
// verifier call evaluates: to-query distances against the query's edge
// store (below grid_min_edges) as well as from-query ones against the
// copy's scratch store, including a call abandoned after one vertex.
TEST(AbandoningVerifierKernelCounterTest, CountsBothDirections) {
  const Fixture& f = SharedFixture();
  std::vector<geom::Point> octagon;
  for (int i = 0; i < 8; ++i) {
    octagon.push_back({std::cos(i * M_PI / 4), 1.5 * std::sin(i * M_PI / 4)});
  }
  auto qnorm = NormalizeQuery(Polyline::Closed(octagon));
  ASSERT_TRUE(qnorm.ok());
  const Polyline& q = qnorm->shape;
  const SimilarityOptions similarity;
  ASSERT_LT(q.NumEdges(), similarity.grid_min_edges);
  const QueryTarget target(q, similarity);
  const Polyline& copy = f.base.copy(0).shape;
  obs::Counter* edges = obs::MetricRegistry::Default().GetCounter(
      "geosir_geom_kernel_batched_edges_total",
      "Edge evaluations routed through the batch kernels");
  ASSERT_TRUE(obs::Armed());
  geom::EdgeSoA scratch;

  uint64_t before = edges->value();
  ASSERT_TRUE(target
                  .BoundedScore(copy, MatchMeasure::kDiscreteSymmetric,
                                std::numeric_limits<double>::infinity(),
                                &scratch)
                  .has_value());
  EXPECT_EQ(edges->value() - before,
            copy.size() * q.NumEdges() + q.size() * copy.NumEdges());

  // A negative threshold abandons after the first to-query vertex.
  before = edges->value();
  EXPECT_FALSE(target
                   .BoundedScore(copy, MatchMeasure::kDiscreteSymmetric, -1.0,
                                 &scratch)
                   .has_value());
  EXPECT_EQ(edges->value() - before, q.NumEdges());
}

}  // namespace
}  // namespace geosir::core
