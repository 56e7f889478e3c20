// Determinism contract of the parallel query engine: for every
// MatchMeasure, Match() and MatchBatch() return bit-identical MatchResult
// vectors at num_threads = 1 and num_threads = 8 (the range-search phase
// is single-threaded and candidate scoring merges in candidate order, so
// parallelism must never change a distance, an ordering, or a tie-break).

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/candidate_source.h"
#include "core/dynamic_shape_base.h"
#include "core/envelope_matcher.h"
#include "core/shape_base.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "workload/noise.h"
#include "workload/polygon_gen.h"

namespace geosir::core {
namespace {

using geom::Polyline;

constexpr size_t kNumShapes = 1000;
constexpr size_t kNumQueries = 6;

struct Fixture {
  std::unique_ptr<ShapeBase> base;
  std::vector<Polyline> queries;
};

Fixture BuildSeededFixture() {
  Fixture out;
  util::Rng rng(20240814);
  ShapeBaseOptions options;
  options.normalize.max_axes = 2;
  out.base = std::make_unique<ShapeBase>(options);

  workload::PolygonGenOptions gen;
  std::vector<Polyline> prototypes;
  const size_t num_protos = kNumShapes / 10;
  for (size_t p = 0; p < num_protos; ++p) {
    prototypes.push_back(workload::RandomStarPolygon(&rng, gen));
  }
  for (size_t s = 0; s < kNumShapes; ++s) {
    const Polyline instance = workload::JitterVertices(
        prototypes[s % num_protos], 0.008, &rng);
    EXPECT_TRUE(out.base->AddShape(instance).ok());
  }
  EXPECT_TRUE(out.base->Finalize().ok());

  util::Rng qrng(7);
  for (size_t q = 0; q < kNumQueries; ++q) {
    out.queries.push_back(workload::JitterVertices(
        prototypes[(3 * q) % num_protos], 0.01, &qrng));
  }
  return out;
}

void ExpectIdentical(const std::vector<MatchResult>& serial,
                     const std::vector<MatchResult>& parallel) {
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].shape_id, parallel[i].shape_id) << "rank " << i;
    EXPECT_EQ(serial[i].copy_index, parallel[i].copy_index) << "rank " << i;
    // Bit-identical, not just close.
    EXPECT_EQ(serial[i].distance, parallel[i].distance) << "rank " << i;
  }
}

class ParallelMatcherTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { fixture_ = new Fixture(BuildSeededFixture()); }
  static void TearDownTestSuite() {
    delete fixture_;
    fixture_ = nullptr;
  }
  static Fixture* fixture_;
};

Fixture* ParallelMatcherTest::fixture_ = nullptr;

const MatchMeasure kAllMeasures[] = {
    MatchMeasure::kContinuousSymmetric,
    MatchMeasure::kContinuousDirected,
    MatchMeasure::kDiscreteSymmetric,
    MatchMeasure::kDiscreteDirected,
};

TEST_F(ParallelMatcherTest, MatchIsBitIdenticalAcrossThreadCounts) {
  util::ThreadPool pool(8);
  for (MatchMeasure measure : kAllMeasures) {
    MatchOptions options;
    options.measure = measure;
    options.k = 5;

    options.num_threads = 1;
    EnvelopeMatcher serial_matcher(fixture_->base.get());
    std::vector<std::vector<MatchResult>> serial;
    for (const Polyline& query : fixture_->queries) {
      auto result = serial_matcher.Match(query, options);
      ASSERT_TRUE(result.ok());
      serial.push_back(*std::move(result));
    }

    options.num_threads = 8;
    options.pool = &pool;
    EnvelopeMatcher parallel_matcher(fixture_->base.get());
    for (size_t i = 0; i < fixture_->queries.size(); ++i) {
      auto result = parallel_matcher.Match(fixture_->queries[i], options);
      ASSERT_TRUE(result.ok());
      ExpectIdentical(serial[i], *result);
    }
  }
}

TEST_F(ParallelMatcherTest, MatchBatchIsBitIdenticalAcrossThreadCounts) {
  util::ThreadPool pool(8);
  for (MatchMeasure measure : kAllMeasures) {
    MatchOptions options;
    options.measure = measure;
    options.k = 3;

    options.num_threads = 1;
    auto serial = fixture_->base->MatchBatch(fixture_->queries, options);
    ASSERT_TRUE(serial.ok());
    ASSERT_EQ(serial->size(), fixture_->queries.size());

    options.num_threads = 8;
    options.pool = &pool;
    std::vector<MatchStats> stats;
    auto parallel =
        fixture_->base->MatchBatch(fixture_->queries, options, &stats);
    ASSERT_TRUE(parallel.ok());
    ASSERT_EQ(parallel->size(), fixture_->queries.size());
    ASSERT_EQ(stats.size(), fixture_->queries.size());
    for (size_t i = 0; i < serial->size(); ++i) {
      ExpectIdentical((*serial)[i], (*parallel)[i]);
      EXPECT_GE(stats[i].iterations, 1u);
    }
  }
}

TEST_F(ParallelMatcherTest, MatchBatchAgreesWithSequentialMatchLoop) {
  MatchOptions options;
  options.measure = MatchMeasure::kDiscreteSymmetric;
  options.k = 4;
  options.num_threads = 8;

  auto batch = fixture_->base->MatchBatch(fixture_->queries, options);
  ASSERT_TRUE(batch.ok());
  EnvelopeMatcher matcher(fixture_->base.get());
  MatchOptions serial = options;
  serial.num_threads = 1;
  for (size_t i = 0; i < fixture_->queries.size(); ++i) {
    auto single = matcher.Match(fixture_->queries[i], serial);
    ASSERT_TRUE(single.ok());
    ExpectIdentical(*single, (*batch)[i]);
  }
}

/// ExactEnumerationSource's copies in two rounds, split at the middle,
/// under one candidate budget across both. Records what it emits.
class TwoRoundSource final : public CandidateSource {
 public:
  explicit TwoRoundSource(const ShapeBase* base) : exact_(base) {}

  const char* name() const override { return "two_round"; }

  util::Status Generate(const Polyline& normalized_query,
                        size_t max_candidates, const MatchOptions& options,
                        std::vector<uint32_t>* out,
                        CandidateSourceStats* stats) override {
    GEOSIR_RETURN_IF_ERROR(
        exact_.Generate(normalized_query, 0, options, &all_, nullptr));
    max_candidates_ = max_candidates;
    emitted.clear();
    return Emit(0, all_.size() / 2, out, stats);
  }

  util::Status NextRound(const util::Status& verified, double kth_best,
                         const MatchOptions& options,
                         std::vector<uint32_t>* out,
                         CandidateSourceStats* stats) override {
    (void)kth_best;
    (void)options;
    if (!verified.ok()) {
      out->clear();
      *stats = CandidateSourceStats{};
      return verified;
    }
    return Emit(all_.size() / 2, all_.size(), out, stats);
  }

  std::vector<uint32_t> emitted;  // Every round's copies, in order.

 private:
  // Emits all_[begin, end) cut at the budget; `begin` copies are out.
  util::Status Emit(size_t begin, size_t end, std::vector<uint32_t>* out,
                    CandidateSourceStats* stats) {
    *stats = CandidateSourceStats{};
    const size_t cut =
        max_candidates_ > 0 ? std::min(end, max_candidates_) : end;
    out->assign(all_.begin() + begin, all_.begin() + cut);
    emitted.insert(emitted.end(), out->begin(), out->end());
    stats->candidates_emitted = out->size();
    stats->truncated = cut < end;
    stats->more_rounds = begin == 0 && !stats->truncated;
    return util::Status::OK();
  }

  ExactEnumerationSource exact_;
  std::vector<uint32_t> all_;
  size_t max_candidates_ = 0;
};

TEST(RoundSeamTest, TwoRoundsRankAsOne) {
  // The driver carries the verifier's bound across rounds, so a source
  // that splits its candidates in two ranks exactly as one that emits
  // them at once, and a budget cut inside the second round is the same
  // prefix of the same order.
  util::Rng rng(31);
  workload::PolygonGenOptions gen;
  ShapeBaseOptions base_options;
  base_options.normalize.max_axes = 2;
  ShapeBase base(base_options);
  std::vector<Polyline> prototypes;
  for (int p = 0; p < 15; ++p) {
    prototypes.push_back(workload::RandomStarPolygon(&rng, gen));
  }
  for (int s = 0; s < 120; ++s) {
    ASSERT_TRUE(
        base.AddShape(workload::JitterVertices(prototypes[s % 15], 0.01, &rng))
            .ok());
  }
  ASSERT_TRUE(base.Finalize().ok());
  const size_t half = base.NumCopies() / 2;
  const Polyline query = workload::JitterVertices(prototypes[4], 0.015, &rng);

  util::ThreadPool pool(4);
  EnvelopeMatcher matcher(&base);
  for (MatchMeasure measure : kAllMeasures) {
    for (size_t k : {1u, 10u}) {
      for (size_t threads : {1u, 4u}) {
        // Unlimited, a cut at the split, and a cut inside round 2.
        for (size_t budget : {size_t{0}, half, half + 7}) {
          SCOPED_TRACE(testing::Message()
                       << "measure " << static_cast<int>(measure) << " k "
                       << k << " threads " << threads << " budget "
                       << budget);
          MatchOptions options;
          options.measure = measure;
          options.k = k;
          options.num_threads = threads;
          options.pool = &pool;
          options.budget.max_candidates = budget;
          ExactEnumerationSource one(&base);
          MatchStats one_stats;
          AccessTrace one_trace;
          auto single = matcher.MatchCandidates(query, &one, options,
                                                &one_stats, &one_trace);
          TwoRoundSource two(&base);
          MatchStats two_stats;
          AccessTrace two_trace;
          auto split = matcher.MatchCandidates(query, &two, options,
                                               &two_stats, &two_trace);
          ASSERT_TRUE(single.ok()) << single.status().ToString();
          ASSERT_TRUE(split.ok()) << split.status().ToString();
          ASSERT_FALSE(split->empty());
          ExpectIdentical(*single, *split);
          EXPECT_EQ(two_trace, two.emitted);
          EXPECT_EQ(two_trace, one_trace);
          EXPECT_EQ(two_stats.candidates_evaluated,
                    one_stats.candidates_evaluated);
          EXPECT_EQ(two_stats.partial, budget > 0);
          EXPECT_EQ(two_stats.exhausted, budget == 0);
          EXPECT_EQ(two_stats.termination.code(),
                    budget > 0 ? util::StatusCode::kResourceExhausted
                               : util::StatusCode::kOk);
          if (budget == half) {
            // The cut falls between the rounds: round one's ranking.
            EXPECT_EQ(two_trace.size(), half);
          }
        }
      }
    }
  }
}

TEST(DynamicBatchTest, MatchBatchAgreesWithMatchLoop) {
  util::Rng rng(99);
  workload::PolygonGenOptions gen;
  DynamicShapeBase::Options options;
  options.base.normalize.max_axes = 2;
  options.match.measure = MatchMeasure::kDiscreteSymmetric;
  options.match.num_threads = 8;
  options.min_compaction_size = 16;
  DynamicShapeBase dynamic(options);

  std::vector<Polyline> prototypes;
  for (int p = 0; p < 12; ++p) {
    prototypes.push_back(workload::RandomStarPolygon(&rng, gen));
  }
  for (int s = 0; s < 150; ++s) {
    ASSERT_TRUE(dynamic
                    .Insert(workload::JitterVertices(prototypes[s % 12], 0.01,
                                                     &rng))
                    .ok());
  }
  for (uint64_t id = 0; id < 150; id += 7) {
    ASSERT_TRUE(dynamic.Remove(id).ok());
  }

  std::vector<Polyline> queries;
  for (int q = 0; q < 5; ++q) {
    queries.push_back(
        workload::JitterVertices(prototypes[q % 12], 0.015, &rng));
  }
  auto batch = dynamic.MatchBatch(queries, /*k=*/3);
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(batch->size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    auto single = dynamic.Match(queries[i], /*k=*/3);
    ASSERT_TRUE(single.ok());
    ASSERT_EQ(single->size(), (*batch)[i].size());
    for (size_t r = 0; r < single->size(); ++r) {
      EXPECT_EQ((*single)[r].first, (*batch)[i][r].first);
      EXPECT_EQ((*single)[r].second, (*batch)[i][r].second);
    }
  }
}

}  // namespace
}  // namespace geosir::core
