#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "core/candidate_source.h"
#include "core/dynamic_shape_base.h"
#include "core/normalize.h"
#include "core/similarity.h"
#include "lsh/dynamic_lsh.h"
#include "obs/metrics.h"
#include "storage/appendable_file.h"
#include "storage/base_io.h"
#include "storage/wal.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "workload/noise.h"
#include "workload/polygon_gen.h"

namespace geosir::core {
namespace {

using geom::Point;
using geom::Polyline;

Polyline RegularPolygon(int n, double r) {
  std::vector<Point> v;
  for (int i = 0; i < n; ++i) {
    const double a = 2.0 * M_PI * i / n;
    v.push_back({r * std::cos(a), r * std::sin(a)});
  }
  return Polyline::Closed(std::move(v));
}

TEST(DynamicShapeBaseTest, InsertQueryWithoutCompaction) {
  DynamicShapeBase base;
  for (int n = 3; n <= 10; ++n) {
    auto id = base.Insert(RegularPolygon(n, 1.0));
    ASSERT_TRUE(id.ok());
    EXPECT_EQ(*id, static_cast<uint64_t>(n - 3));
  }
  EXPECT_EQ(base.NumLive(), 8u);
  EXPECT_EQ(base.NumCompactions(), 0u);  // Below min_compaction_size.
  auto results = base.Match(RegularPolygon(7, 2.5), 1);
  ASSERT_TRUE(results.ok());
  ASSERT_EQ(results->size(), 1u);
  EXPECT_EQ((*results)[0].first, 4u);  // The heptagon.
  EXPECT_NEAR((*results)[0].second, 0.0, 1e-6);
}

TEST(DynamicShapeBaseTest, RemoveHidesShape) {
  DynamicShapeBase base;
  auto tri = base.Insert(RegularPolygon(3, 1.0));
  auto sq = base.Insert(RegularPolygon(4, 1.0));
  ASSERT_TRUE(tri.ok());
  ASSERT_TRUE(sq.ok());
  ASSERT_TRUE(base.Remove(*tri).ok());
  EXPECT_EQ(base.NumLive(), 1u);
  auto results = base.Match(RegularPolygon(3, 1.0), 2);
  ASSERT_TRUE(results.ok());
  for (const auto& [id, distance] : *results) {
    EXPECT_NE(id, *tri);
  }
  // Double delete and unknown ids fail.
  EXPECT_FALSE(base.Remove(*tri).ok());
  EXPECT_FALSE(base.Remove(999).ok());
}

TEST(DynamicShapeBaseTest, CompactionPreservesStableIds) {
  DynamicShapeBase::Options options;
  options.min_compaction_size = 8;
  options.max_delta_fraction = 0.1;
  DynamicShapeBase base(options);
  util::Rng rng(1);
  workload::PolygonGenOptions gen;
  std::vector<uint64_t> ids;
  std::vector<Polyline> shapes;
  for (int i = 0; i < 120; ++i) {
    shapes.push_back(RandomStarPolygon(&rng, gen));
    auto id = base.Insert(shapes.back());
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  EXPECT_GT(base.NumCompactions(), 0u);
  // Every inserted shape is still retrievable under its original id.
  for (int probe : {0, 17, 63, 119}) {
    auto results = base.Match(shapes[probe], 1);
    ASSERT_TRUE(results.ok());
    ASSERT_FALSE(results->empty());
    EXPECT_EQ((*results)[0].first, ids[probe]) << probe;
    EXPECT_NEAR((*results)[0].second, 0.0, 1e-6);
  }
}

TEST(DynamicShapeBaseTest, TombstoneCompactionReclaims) {
  DynamicShapeBase::Options options;
  options.min_compaction_size = 8;
  DynamicShapeBase base(options);
  util::Rng rng(2);
  workload::PolygonGenOptions gen;
  std::vector<uint64_t> ids;
  for (int i = 0; i < 100; ++i) {
    auto id = base.Insert(RandomStarPolygon(&rng, gen));
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  const size_t before = base.NumCompactions();
  // Delete half: tombstones exceed the threshold and trigger a rebuild.
  for (size_t i = 0; i < ids.size(); i += 2) {
    ASSERT_TRUE(base.Remove(ids[i]).ok());
  }
  EXPECT_GT(base.NumCompactions(), before);
  // Tombstones were reclaimed at the compaction; only the deletes after
  // the last rebuild remain, below the trigger threshold.
  EXPECT_LT(base.NumTombstones(), 50u * options.max_tombstone_fraction);
  EXPECT_EQ(base.NumLive(), 50u);
}

TEST(DynamicShapeBaseTest, DeltaAndMainScoringAgreeBitForBit) {
  // Delta (unindexed tail) and compacted shapes are scored from the
  // copies the main base stores, through the one verifier, against one
  // query target: every distance must agree exactly, for every measure.
  util::Rng rng(7);
  workload::PolygonGenOptions gen;
  std::vector<Polyline> shapes;
  for (int i = 0; i < 12; ++i) shapes.push_back(RandomStarPolygon(&rng, gen));
  const Polyline query = workload::JitterVertices(shapes[5], 0.01, &rng);
  for (MatchMeasure measure :
       {MatchMeasure::kContinuousSymmetric, MatchMeasure::kContinuousDirected,
        MatchMeasure::kDiscreteSymmetric, MatchMeasure::kDiscreteDirected}) {
    SCOPED_TRACE(static_cast<int>(measure));
    DynamicShapeBase::Options options;
    options.match.measure = measure;
    DynamicShapeBase base(options);
    std::vector<uint64_t> ids;
    for (const Polyline& shape : shapes) {
      auto id = base.Insert(shape);
      ASSERT_TRUE(id.ok());
      ids.push_back(*id);
    }
    ASSERT_EQ(base.NumDelta(), shapes.size());  // Below min_compaction_size.
    ExactEnumerationSource delta_source(&base.main_base());
    auto delta = base.MatchCandidates(query, &delta_source, ids.size());
    ASSERT_TRUE(delta.ok());
    auto delta_top = base.Match(query, 1);
    ASSERT_TRUE(delta_top.ok());
    ASSERT_EQ(delta_top->size(), 1u);
    EXPECT_EQ((*delta_top)[0], delta->front());

    ASSERT_TRUE(base.Compact().ok());
    ASSERT_EQ(base.NumDelta(), 0u);
    ExactEnumerationSource main_source(&base.main_base());
    auto main = base.MatchCandidates(query, &main_source, ids.size());
    ASSERT_TRUE(main.ok());
    ASSERT_EQ(delta->size(), ids.size());
    ASSERT_EQ(main->size(), ids.size());
    std::map<uint64_t, double> main_distance;
    for (size_t i = 0; i < ids.size(); ++i) {
      EXPECT_EQ((*main)[i].first, (*delta)[i].first) << i;
      EXPECT_EQ((*main)[i].second, (*delta)[i].second) << i;
      main_distance[(*main)[i].first] = (*main)[i].second;
    }
    auto top = base.Match(query, 1);
    ASSERT_TRUE(top.ok());
    ASSERT_EQ(top->size(), 1u);
    EXPECT_EQ((*top)[0].second, main_distance.at((*top)[0].first));
  }
}

TEST(DynamicShapeBaseTest, MixedWorkloadMatchesSnapshotSemantics) {
  // Interleave inserts/deletes/queries; after the dust settles, the
  // dynamic base must return exactly what a freshly-built static base
  // over the live set returns.
  DynamicShapeBase::Options options;
  options.min_compaction_size = 16;
  options.match.measure = MatchMeasure::kDiscreteSymmetric;
  DynamicShapeBase dynamic(options);
  util::Rng rng(3);
  workload::PolygonGenOptions gen;
  std::vector<std::pair<uint64_t, Polyline>> live;
  for (int round = 0; round < 150; ++round) {
    if (!live.empty() && rng.Bernoulli(0.3)) {
      const size_t victim = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(live.size()) - 1));
      ASSERT_TRUE(dynamic.Remove(live[victim].first).ok());
      live.erase(live.begin() + victim);
    } else {
      Polyline shape = RandomStarPolygon(&rng, gen);
      auto id = dynamic.Insert(shape);
      ASSERT_TRUE(id.ok());
      live.emplace_back(*id, std::move(shape));
    }
  }
  ASSERT_FALSE(live.empty());
  EXPECT_EQ(dynamic.NumLive(), live.size());

  ShapeBase snapshot;
  for (const auto& [id, shape] : live) {
    ASSERT_TRUE(snapshot.AddShape(shape).ok());
  }
  ASSERT_TRUE(snapshot.Finalize().ok());
  EnvelopeMatcher matcher(&snapshot);
  util::Rng qrng(4);
  for (int q = 0; q < 5; ++q) {
    const Polyline query = workload::JitterVertices(
        live[q % live.size()].second, 0.01, &qrng);
    auto dyn = dynamic.Match(query, 1);
    MatchOptions static_options;
    static_options.measure = MatchMeasure::kDiscreteSymmetric;
    auto stat = matcher.Match(query, static_options);
    ASSERT_TRUE(dyn.ok());
    ASSERT_TRUE(stat.ok());
    ASSERT_FALSE(dyn->empty());
    ASSERT_FALSE(stat->empty());
    // Same shape geometry wins (compare by distance; ids differ).
    EXPECT_NEAR((*dyn)[0].second, (*stat)[0].distance, 1e-9) << q;
  }
}

constexpr MatchMeasure kMeasures[] = {
    MatchMeasure::kContinuousSymmetric, MatchMeasure::kContinuousDirected,
    MatchMeasure::kDiscreteSymmetric, MatchMeasure::kDiscreteDirected};

/// `measure` of a live id's best stored copy, scored in full.
double BestScore(const DynamicShapeBase& base, uint64_t id,
                 const Polyline& query, MatchMeasure measure) {
  auto qnorm = NormalizeQuery(query);
  EXPECT_TRUE(qnorm.ok());
  const QueryTarget target(qnorm->shape, base.match_options().similarity);
  auto copies = base.NormalizedCopiesOf(id);
  EXPECT_TRUE(copies.ok());
  double best = std::numeric_limits<double>::infinity();
  for (const NormalizedCopy& copy : *copies) {
    best = std::min(best, target.Score(copy.shape, measure));
  }
  return best;
}

TEST(DynamicShapeBaseTest, OneMatcherPassPerQuery) {
  // Every instance of the query's prototype is deleted — in the index and
  // in the delta — so deleted shapes would fill the top k. Match must
  // still be one matcher pass that never returns a deleted id.
  util::Rng rng(11);
  workload::PolygonGenOptions gen;
  std::vector<Polyline> prototypes;
  for (int p = 0; p < 20; ++p) {
    prototypes.push_back(RandomStarPolygon(&rng, gen));
  }
  const Polyline query = workload::JitterVertices(prototypes[0], 0.01, &rng);
  obs::Counter* queries = obs::MetricRegistry::Default().GetCounter(
      "geosir_matcher_queries_total", "Match calls finished (any outcome)");
  for (MatchMeasure measure : kMeasures) {
    SCOPED_TRACE(static_cast<int>(measure));
    DynamicShapeBase::Options options;
    options.match.measure = measure;
    DynamicShapeBase base(options);
    std::vector<uint64_t> doomed;
    for (int i = 0; i < 200; ++i) {
      auto id = base.Insert(
          workload::JitterVertices(prototypes[i % 20], 0.01, &rng));
      ASSERT_TRUE(id.ok());
      if (i % 20 == 0) doomed.push_back(*id);
    }
    ASSERT_TRUE(base.Compact().ok());
    for (int i = 0; i < 20; ++i) {
      auto id = base.Insert(
          workload::JitterVertices(prototypes[i % 4], 0.01, &rng));
      ASSERT_TRUE(id.ok());
      if (i % 4 == 0) doomed.push_back(*id);
    }
    for (uint64_t id : doomed) ASSERT_TRUE(base.Remove(id).ok());
    ASSERT_EQ(base.NumTombstones(), 15u);  // No compaction since.
    ASSERT_EQ(base.NumDelta(), 15u);

    const uint64_t before = queries->value();
    MatchStats stats;
    auto results = base.Match(query, 10, &stats);
    ASSERT_TRUE(results.ok()) << results.status().ToString();
    EXPECT_EQ(queries->value() - before, 1u);
    ASSERT_EQ(results->size(), 10u);
    for (const auto& [id, distance] : *results) {
      ASSERT_TRUE(base.IsLive(id)) << "deleted id " << id;
      EXPECT_EQ(distance, BestScore(base, id, query, measure)) << id;
    }
  }
}

TEST(DynamicShapeBaseTest, TombstoneFreeMatchEqualsStaticMatchPlusDelta) {
  // Without tombstones, Match and MatchBatch must equal a static
  // EnvelopeMatcher over the main shapes (same order, so ShapeId ==
  // stable id) plus every delta shape scored in full, ranked together.
  util::Rng rng(12);
  workload::PolygonGenOptions gen;
  std::vector<Polyline> prototypes;
  for (int p = 0; p < 30; ++p) {
    prototypes.push_back(RandomStarPolygon(&rng, gen));
  }
  std::vector<Polyline> main_shapes;
  for (int i = 0; i < 180; ++i) {
    main_shapes.push_back(
        workload::JitterVertices(prototypes[i % 30], 0.01, &rng));
  }
  std::vector<Polyline> delta_shapes;
  for (int i = 0; i < 24; ++i) {
    delta_shapes.push_back(
        workload::JitterVertices(prototypes[i % 4], 0.01, &rng));
  }
  std::vector<Polyline> queries;
  for (int q = 0; q < 4; ++q) {
    queries.push_back(workload::JitterVertices(prototypes[q], 0.01, &rng));
  }
  ShapeBaseOptions base_options;
  base_options.normalize.max_axes = 2;  // Keeps the continuous scans short.
  ShapeBase snapshot(base_options);
  for (const Polyline& shape : main_shapes) {
    ASSERT_TRUE(snapshot.AddShape(shape).ok());
  }
  ASSERT_TRUE(snapshot.Finalize().ok());
  util::ThreadPool pool(4);

  for (MatchMeasure measure : kMeasures) {
    SCOPED_TRACE(static_cast<int>(measure));
    DynamicShapeBase::Options options;
    options.base = base_options;
    options.match.measure = measure;
    options.match.pool = &pool;
    DynamicShapeBase dynamic(options);
    for (const Polyline& shape : main_shapes) {
      ASSERT_TRUE(dynamic.Insert(shape).ok());
    }
    ASSERT_TRUE(dynamic.Compact().ok());
    for (const Polyline& shape : delta_shapes) {
      ASSERT_TRUE(dynamic.Insert(shape).ok());
    }
    ASSERT_EQ(dynamic.NumDelta(), delta_shapes.size());

    for (size_t k : {1, 10}) {
      std::vector<std::vector<std::pair<uint64_t, double>>> want;
      for (const Polyline& query : queries) {
        MatchOptions static_options;
        static_options.measure = measure;
        static_options.k = k;
        EnvelopeMatcher matcher(&snapshot);
        auto main = matcher.Match(query, static_options);
        ASSERT_TRUE(main.ok());
        std::vector<MatchResult> ranked = *main;
        auto qnorm = NormalizeQuery(query);
        ASSERT_TRUE(qnorm.ok());
        const QueryTarget target(qnorm->shape, static_options.similarity);
        for (size_t d = 0; d < delta_shapes.size(); ++d) {
          Shape shape;
          shape.boundary = delta_shapes[d];
          auto copies = NormalizeShape(shape, options.base.normalize);
          ASSERT_TRUE(copies.ok());
          double best = std::numeric_limits<double>::infinity();
          for (const NormalizedCopy& copy : *copies) {
            best = std::min(best, target.Score(copy.shape, measure));
          }
          ranked.push_back(
              {static_cast<ShapeId>(main_shapes.size() + d), best, 0});
        }
        RankResults(&ranked, k);
        std::vector<std::pair<uint64_t, double>> pairs;
        for (const MatchResult& m : ranked) {
          pairs.emplace_back(m.shape_id, m.distance);
        }
        want.push_back(std::move(pairs));
      }
      for (size_t threads : {1, 4}) {
        dynamic.match_options().num_threads = threads;
        const std::string what =
            "k=" + std::to_string(k) + " threads=" + std::to_string(threads);
        auto batch = dynamic.MatchBatch(queries, k);
        ASSERT_TRUE(batch.ok()) << what;
        ASSERT_EQ(batch->size(), queries.size());
        for (size_t q = 0; q < queries.size(); ++q) {
          auto single = dynamic.Match(queries[q], k);
          ASSERT_TRUE(single.ok()) << what;
          EXPECT_EQ(*single, want[q]) << what << " q" << q;
          EXPECT_EQ((*batch)[q], want[q]) << what << " q" << q;
        }
      }
    }
  }
}

/// The (stable id, distance) ranking full scoring gives over `ids`: each
/// live id's best stored copy under the base's measure, ranked by
/// (distance, id) and cut to k. Ids the base no longer holds are skipped.
std::vector<std::pair<uint64_t, double>> FullScoringRanking(
    const DynamicShapeBase& base, const std::vector<uint64_t>& ids,
    const Polyline& query, size_t k) {
  std::vector<std::pair<uint64_t, double>> ranked;
  for (uint64_t id : ids) {
    if (!base.IsLive(id)) continue;
    ranked.emplace_back(
        id, BestScore(base, id, query, base.match_options().measure));
  }
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    return a.second != b.second ? a.second < b.second : a.first < b.first;
  });
  if (ranked.size() > k) ranked.resize(k);
  return ranked;
}

TEST(DynamicShapeBaseTest, CandidateSourcesRankAsFullScoring) {
  // MatchCandidates through the one verifier equals full scoring of the
  // ids behind its candidates, bit for bit: over the LSH pre-filter (its
  // ranked stable ids) and over exact enumeration of the main base (the
  // live ids). States: a delta over an index with tombstones in both,
  // the same state compacted, then fresh inserts and removes on top.
  util::Rng rng(21);
  workload::PolygonGenOptions gen;
  std::vector<Polyline> prototypes;
  for (int p = 0; p < 12; ++p) {
    prototypes.push_back(RandomStarPolygon(&rng, gen));
  }
  std::vector<Polyline> queries;
  for (int q = 0; q < 3; ++q) {
    queries.push_back(workload::JitterVertices(prototypes[q], 0.01, &rng));
  }
  util::ThreadPool pool(4);
  DynamicShapeBase::Options options;
  options.base.normalize.max_axes = 2;  // Keeps the continuous scans short.
  options.min_compaction_size = 1000;   // Compact only when told to.
  options.match.pool = &pool;
  DynamicShapeBase base(options);
  auto lsh = lsh::DynamicLshIndex::Create(&base, lsh::LshOptions{});
  ASSERT_TRUE(lsh.ok());
  base.SetObserver(lsh->get());

  std::vector<uint64_t> ids;
  const auto insert = [&](int n) {
    for (int i = 0; i < n; ++i) {
      auto id = base.Insert(workload::JitterVertices(
          prototypes[ids.size() % prototypes.size()], 0.01, &rng));
      ASSERT_TRUE(id.ok());
      ids.push_back(*id);
    }
  };
  const auto remove_every = [&](size_t from, size_t step) {
    for (size_t i = from; i < ids.size(); i += step) {
      if (base.IsLive(ids[i])) {
        ASSERT_TRUE(base.Remove(ids[i]).ok());
      }
    }
  };

  const auto check = [&](const std::string& state) {
    for (MatchMeasure measure : kMeasures) {
      base.match_options().measure = measure;
      for (const Polyline& query : queries) {
        auto qnorm = NormalizeQuery(query);
        ASSERT_TRUE(qnorm.ok());
        std::vector<uint64_t> lsh_ids;
        ASSERT_TRUE((*lsh)
                        ->index()
                        .Query(qnorm->shape, 0, {}, &lsh_ids, nullptr)
                        .ok());
        size_t lsh_copies = 0;
        for (uint64_t id : lsh_ids) lsh_copies += base.CopiesOf(id).size();
        for (size_t k : {1, 10}) {
          const auto want_lsh = FullScoringRanking(base, lsh_ids, query, k);
          const auto want_exact =
              FullScoringRanking(base, base.LiveIds(), query, k);
          ASSERT_FALSE(want_lsh.empty());
          for (size_t threads : {1, 4}) {
            base.match_options().num_threads = threads;
            SCOPED_TRACE(state + " measure " +
                         std::to_string(static_cast<int>(measure)) + " k " +
                         std::to_string(k) + " threads " +
                         std::to_string(threads));
            MatchStats stats;
            auto got_lsh = base.MatchCandidates(query, lsh->get(), k, &stats);
            ASSERT_TRUE(got_lsh.ok());
            EXPECT_EQ(*got_lsh, want_lsh);
            EXPECT_EQ(stats.candidates_evaluated, lsh_copies);
            ExactEnumerationSource exact(&base.main_base());
            auto got_exact = base.MatchCandidates(query, &exact, k);
            ASSERT_TRUE(got_exact.ok());
            EXPECT_EQ(*got_exact, want_exact);
          }
        }
      }
    }
  };

  insert(96);
  ASSERT_TRUE(base.Compact().ok());
  insert(24);
  remove_every(0, 7);  // Indexed and delta shapes alike.
  ASSERT_GT(base.NumDelta(), 0u);
  ASSERT_GT(base.NumTombstones(), 0u);
  check("delta+tombstones");
  ASSERT_TRUE(base.Compact().ok());
  ASSERT_EQ(base.NumTombstones(), 0u);
  check("compacted");
  insert(12);
  remove_every(3, 11);
  ASSERT_GT(base.NumDelta(), 0u);
  check("after compaction");
}

TEST(DynamicShapeBaseTest, TailRoundHonoursTheCandidateBudget) {
  // Below the first compaction every shape is in the unindexed tail, so
  // a query is one round: the tail. Uncapped it is a full scan, reported
  // exhausted; a candidate budget truncates it like any source's round,
  // as a kResourceExhausted partial.
  util::Rng rng(5);
  workload::PolygonGenOptions gen;
  DynamicShapeBase base;
  for (int s = 0; s < 20; ++s) {
    ASSERT_TRUE(base.Insert(workload::RandomStarPolygon(&rng, gen)).ok());
  }
  ASSERT_EQ(base.NumDelta(), 20u);
  ASSERT_EQ(base.main_base().NumIndexedCopies(), 0u);
  const size_t copies = base.main_base().NumCopies();
  const Polyline query = workload::RandomStarPolygon(&rng, gen);

  MatchStats full;
  auto all = base.Match(query, 3, &full);
  ASSERT_TRUE(all.ok()) << all.status().ToString();
  EXPECT_EQ(all->size(), 3u);
  EXPECT_EQ(full.candidates_evaluated, copies);
  EXPECT_TRUE(full.exhausted);
  EXPECT_FALSE(full.stopped_early);
  EXPECT_FALSE(full.partial);
  EXPECT_EQ(full.iterations, 0u);

  base.match_options().budget.max_candidates = 1;
  MatchStats capped;
  auto one = base.Match(query, 3, &capped);
  ASSERT_TRUE(one.ok()) << one.status().ToString();
  EXPECT_EQ(one->size(), 1u);
  EXPECT_EQ(capped.candidates_evaluated, 1u);
  EXPECT_EQ(capped.candidates_skipped, copies - 1);
  EXPECT_TRUE(capped.partial);
  EXPECT_EQ(capped.termination.code(), util::StatusCode::kResourceExhausted);
  EXPECT_FALSE(capped.exhausted);
}

TEST(DynamicShapeBaseTest, BatchDeadlineBoundsEveryQuery) {
  // MatchBatch runs under the earlier of the base's deadline and its own:
  // an expired one stops every query before it ranks anything.
  DynamicShapeBase base;
  for (int n = 3; n <= 10; ++n) {
    ASSERT_TRUE(base.Insert(RegularPolygon(n, 1.0)).ok());
  }
  const std::vector<Polyline> queries = {RegularPolygon(5, 2.0),
                                         RegularPolygon(8, 0.5)};
  std::vector<MatchStats> stats;
  auto expired =
      base.MatchBatch(queries, 1, &stats, util::Deadline::AfterMicros(0));
  ASSERT_TRUE(expired.ok()) << expired.status().ToString();
  ASSERT_EQ(stats.size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_TRUE((*expired)[i].empty());
    EXPECT_EQ(stats[i].termination.code(),
              util::StatusCode::kDeadlineExceeded);
    EXPECT_EQ(stats[i].candidates_evaluated, 0u);
  }
  auto unbounded = base.MatchBatch(queries, 1, &stats);
  ASSERT_TRUE(unbounded.ok());
  EXPECT_EQ((*unbounded)[0].front().first, 2u);  // The pentagon.
  EXPECT_TRUE(stats[0].termination.ok());
}

TEST(BaseIoTest, SaveLoadRoundTrip) {
  ShapeBase original;
  ASSERT_TRUE(original
                  .AddShape(RegularPolygon(5, 1.0), 7, "penta")
                  .ok());
  ASSERT_TRUE(original
                  .AddShape(Polyline::Open({{0, 0}, {1, 0.3}, {2, 0}}),
                            kNoImage, "arc")
                  .ok());
  const std::string path = "/tmp/geosir_base_io_test.gsir";
  ASSERT_TRUE(storage::SaveShapeBase(original, path).ok());

  auto loaded = storage::LoadShapeBase(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE((*loaded)->finalized());
  ASSERT_EQ((*loaded)->NumShapes(), 2u);
  EXPECT_EQ((*loaded)->shape(0).label, "penta");
  EXPECT_EQ((*loaded)->shape(0).image, 7u);
  EXPECT_EQ((*loaded)->shape(1).label, "arc");
  EXPECT_FALSE((*loaded)->shape(1).boundary.closed());
  EXPECT_EQ((*loaded)->NumCopies(), original.NumCopies());
  for (size_t v = 0; v < original.shape(0).boundary.size(); ++v) {
    EXPECT_EQ((*loaded)->shape(0).boundary.vertex(v),
              original.shape(0).boundary.vertex(v));
  }
}

TEST(BaseIoTest, ErrorsSurfaced) {
  EXPECT_FALSE(storage::LoadShapeBase("/tmp/does_not_exist.gsir").ok());
  // Corrupt magic.
  const std::string path = "/tmp/geosir_bad_magic.gsir";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("NOPE", f);
  std::fclose(f);
  auto result = storage::LoadShapeBase(path);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kCorruption);
}

TEST(BaseIoTest, CheckpointsListExactlyTheStoredShapes) {
  // A checkpoint names one stable id per stored shape, so a base carrying
  // removal marks or an unindexed tail cannot be serialized.
  ShapeBase marked;
  ASSERT_TRUE(marked.AddShape(RegularPolygon(5, 1.0)).ok());
  ASSERT_TRUE(marked.AddShape(RegularPolygon(6, 1.0)).ok());
  ASSERT_TRUE(marked.Finalize().ok());
  ASSERT_TRUE(storage::SerializeShapeBase(marked).ok());
  marked.MarkRemoved(1);
  EXPECT_EQ(storage::SerializeShapeBase(marked).status().code(),
            util::StatusCode::kFailedPrecondition);

  ShapeBase tailed;
  ASSERT_TRUE(tailed.AddShape(RegularPolygon(5, 1.0)).ok());
  ASSERT_TRUE(tailed.Finalize().ok());
  Shape shape;
  shape.boundary = RegularPolygon(7, 1.0);
  auto copies = NormalizeShape(shape, tailed.options().normalize);
  ASSERT_TRUE(copies.ok());
  tailed.AddNormalized(std::move(shape), std::move(copies).value());
  EXPECT_EQ(storage::SerializeShapeBase(tailed).status().code(),
            util::StatusCode::kFailedPrecondition);
}

TEST(DurablePropertyTest, RandomizedWorkloadSurvivesRecovery) {
  // Property test: a randomized insert/remove/compact stream mirrored
  // into a std::map reference model. The durable base runs over a MemEnv
  // "disk" and is periodically torn down and recovered from it; after
  // every recovery, and again at the end, the recovered live set with all
  // labels, images and exact geometry must equal the reference — under
  // kEveryRecord, clean recovery loses nothing that was acknowledged.
  storage::MemEnv env;
  storage::DurabilityOptions durability;
  durability.env = &env;
  durability.wal.sync_policy = storage::WalSyncPolicy::kEveryRecord;
  DynamicShapeBase::Options options;
  options.min_compaction_size = 16;
  options.max_delta_fraction = 0.3;

  struct Ref {
    Polyline boundary;
    ImageId image;
    std::string label;
  };
  std::map<uint64_t, Ref> reference;

  auto reopen = [&](storage::DurableDynamicBase* durable) {
    // Destroy the old handles first: one journal per directory.
    durable->base.reset();
    durable->journal.reset();
    auto opened = storage::OpenDurableDynamicBase("db", options, durability);
    ASSERT_TRUE(opened.ok()) << opened.status().message();
    *durable = std::move(*opened);
  };
  auto verify = [&](const storage::DurableDynamicBase& durable) {
    const std::vector<uint64_t> live = durable.base->LiveIds();
    ASSERT_EQ(live.size(), reference.size());
    for (uint64_t id : live) {
      const auto it = reference.find(id);
      ASSERT_NE(it, reference.end()) << "phantom id " << id;
      EXPECT_EQ(durable.base->label(id), it->second.label);
      EXPECT_EQ(durable.base->image(id), it->second.image);
      const Polyline& got = durable.base->boundary(id);
      const Polyline& want = it->second.boundary;
      ASSERT_EQ(got.size(), want.size());
      EXPECT_EQ(got.closed(), want.closed());
      for (size_t v = 0; v < want.size(); ++v) {
        EXPECT_EQ(got.vertex(v).x, want.vertex(v).x);
        EXPECT_EQ(got.vertex(v).y, want.vertex(v).y);
      }
    }
  };

  storage::DurableDynamicBase durable;
  {
    auto opened = storage::OpenDurableDynamicBase("db", options, durability);
    ASSERT_TRUE(opened.ok()) << opened.status().message();
    durable = std::move(*opened);
  }

  util::Rng rng(20260814);
  workload::PolygonGenOptions gen;
  for (int op = 0; op < 300; ++op) {
    const double dice = rng.Uniform(0, 1);
    if (dice < 0.62 || reference.empty()) {
      const Polyline poly = workload::RandomStarPolygon(&rng, gen);
      const ImageId image = static_cast<ImageId>(op);
      char label_buf[24];
      std::snprintf(label_buf, sizeof(label_buf), "p%d", op);
      const std::string label = label_buf;
      auto id = durable.base->Insert(poly, image, label);
      ASSERT_TRUE(id.ok()) << id.status().message();
      reference.emplace(*id, Ref{poly, image, label});
    } else if (dice < 0.92) {
      auto victim = reference.begin();
      std::advance(victim, static_cast<long>(rng.UniformInt(
                               0, static_cast<int64_t>(reference.size()) - 1)));
      ASSERT_TRUE(durable.base->Remove(victim->first).ok());
      reference.erase(victim);
    } else {
      ASSERT_TRUE(durable.base->Compact().ok());
    }
    if (op % 60 == 59) {
      reopen(&durable);
      verify(durable);
    }
  }
  reopen(&durable);
  verify(durable);

  // The recovered base must also answer queries: an exact live boundary
  // finds itself at (near-)zero distance.
  ASSERT_FALSE(reference.empty());
  const auto& [probe_id, probe] = *reference.begin();
  auto results = durable.base->Match(probe.boundary, 1);
  ASSERT_TRUE(results.ok());
  ASSERT_EQ(results->size(), 1u);
  EXPECT_EQ((*results)[0].first, probe_id);
  EXPECT_NEAR((*results)[0].second, 0.0, 1e-9);
}

}  // namespace
}  // namespace geosir::core
