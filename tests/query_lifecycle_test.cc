// Query-lifecycle resilience: deadlines, cooperative cancellation, work
// budgets, admission control and the partial-result contract.
//
// Determinism notes: budget stops run entirely on the single-threaded
// control path, so every budget test asserts bit-identical results and
// stats between num_threads = 1 and num_threads = 8. Deadline tests that
// depend on wall-clock timing only assert coarse bounds (the query stops
// "soon", not "at instant X"); the precise mid-flight cancellation test
// triggers the cancel from inside the range-search traversal at an exact
// vertex-report ordinal, which is timing-free and therefore exact.

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/candidate_source.h"
#include "core/dynamic_shape_base.h"
#include "core/envelope_matcher.h"
#include "core/shape_base.h"
#include "query/admission.h"
#include "rangesearch/simplex_index.h"
#include "util/query_control.h"
#include "util/retry.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "workload/noise.h"
#include "workload/polygon_gen.h"

namespace geosir {
namespace {

using core::EnvelopeMatcher;
using core::MatchMeasure;
using core::MatchOptions;
using core::MatchResult;
using core::MatchStats;
using core::ShapeBase;
using core::ShapeBaseOptions;
using geom::Polyline;

const MatchMeasure kAllMeasures[] = {
    MatchMeasure::kContinuousSymmetric,
    MatchMeasure::kContinuousDirected,
    MatchMeasure::kDiscreteSymmetric,
    MatchMeasure::kDiscreteDirected,
};

// Instrumentation plan shared with InstrumentedIndex: fires `token` after
// the `cancel_at`-th vertex report, fails the `fail_at_triangle`-th
// triangle query with a (non-lifecycle) I/O-style error, optionally
// sleeps per triangle query (to make wall-clock tests slow enough to
// interrupt). The range-search phase is single-threaded, so plain
// counters suffice.
struct CancelPlan {
  util::CancellationToken* token = nullptr;
  uint64_t cancel_at = 0;  // Report ordinal that triggers Cancel; 0 = never.
  uint64_t seen = 0;
  uint64_t fail_at_triangle = 0;  // Triangle ordinal that fails; 0 = never.
  uint64_t triangles = 0;
  int64_t sleep_us_per_triangle = 0;

  void Reset(util::CancellationToken* t, uint64_t at) {
    token = t;
    cancel_at = at;
    seen = 0;
    fail_at_triangle = 0;
    triangles = 0;
  }
};

// SimplexIndex decorator used as the test's fault/cancel injection point.
// Mirrors the external backends' behavior: when the operation is already
// cancelled it aborts the traversal and surfaces the stop through the
// TakeLastError() channel instead of returning a silently partial report.
class InstrumentedIndex : public rangesearch::SimplexIndex {
 public:
  InstrumentedIndex(std::unique_ptr<rangesearch::SimplexIndex> inner,
                    CancelPlan* plan)
      : inner_(std::move(inner)), plan_(plan) {}

  void Build(std::vector<rangesearch::IndexedPoint> points) override {
    inner_->Build(std::move(points));
  }
  size_t CountInTriangle(const geom::Triangle& t) const override {
    return inner_->CountInTriangle(t);
  }
  void ReportInTriangle(const geom::Triangle& t,
                        const Visitor& visit) const override {
    if (plan_->sleep_us_per_triangle > 0) {
      std::this_thread::sleep_for(
          std::chrono::microseconds(plan_->sleep_us_per_triangle));
    }
    if (plan_->token != nullptr && plan_->token->cancelled()) {
      last_error_ = util::Status::Cancelled(plan_->token->reason());
      return;
    }
    if (++plan_->triangles == plan_->fail_at_triangle) {
      last_error_ = util::Status::Unavailable("injected index fault");
      return;
    }
    inner_->ReportInTriangle(t, [&](const rangesearch::IndexedPoint& ip) {
      ++plan_->seen;
      if (plan_->cancel_at != 0 && plan_->seen == plan_->cancel_at &&
          plan_->token != nullptr) {
        plan_->token->Cancel("test cancel point");
      }
      visit(ip);
    });
  }
  size_t CountInRect(const geom::BoundingBox& box) const override {
    return inner_->CountInRect(box);
  }
  void ReportInRect(const geom::BoundingBox& box,
                    const Visitor& visit) const override {
    inner_->ReportInRect(box, visit);
  }
  std::string name() const override { return "instrumented:" + inner_->name(); }
  size_t size() const override { return inner_->size(); }
  util::Status TakeLastError() const override {
    util::Status out = last_error_;
    last_error_ = util::Status::OK();
    if (!out.ok()) return out;
    return inner_->TakeLastError();
  }

 private:
  std::unique_ptr<rangesearch::SimplexIndex> inner_;
  CancelPlan* plan_;
  mutable util::Status last_error_;
};

struct Fixture {
  CancelPlan plan;  // Must outlive the base (captured by the factory).
  std::unique_ptr<ShapeBase> base;
  std::vector<Polyline> queries;
};

std::unique_ptr<Fixture> BuildFixture(size_t num_shapes, uint64_t seed) {
  auto out = std::make_unique<Fixture>();
  util::Rng rng(seed);
  ShapeBaseOptions options;
  options.normalize.max_axes = 2;
  CancelPlan* plan = &out->plan;
  options.index_factory = [plan]() {
    return std::make_unique<InstrumentedIndex>(
        core::MakeSimplexIndex(core::IndexBackend::kKdTree), plan);
  };
  out->base = std::make_unique<ShapeBase>(options);

  workload::PolygonGenOptions gen;
  std::vector<Polyline> prototypes;
  const size_t num_protos = std::max<size_t>(1, num_shapes / 10);
  for (size_t p = 0; p < num_protos; ++p) {
    prototypes.push_back(workload::RandomStarPolygon(&rng, gen));
  }
  for (size_t s = 0; s < num_shapes; ++s) {
    const Polyline instance =
        workload::JitterVertices(prototypes[s % num_protos], 0.008, &rng);
    EXPECT_TRUE(out->base->AddShape(instance).ok());
  }
  EXPECT_TRUE(out->base->Finalize().ok());

  util::Rng qrng(7);
  for (size_t q = 0; q < 4; ++q) {
    out->queries.push_back(
        workload::JitterVertices(prototypes[(3 * q) % num_protos], 0.01, &qrng));
  }
  return out;
}

void ExpectIdentical(const std::vector<MatchResult>& a,
                     const std::vector<MatchResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].shape_id, b[i].shape_id) << "rank " << i;
    EXPECT_EQ(a[i].copy_index, b[i].copy_index) << "rank " << i;
    EXPECT_EQ(a[i].distance, b[i].distance) << "rank " << i;
  }
}

void ExpectSameLifecycleStats(const MatchStats& a, const MatchStats& b) {
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.rounds_completed, b.rounds_completed);
  EXPECT_EQ(a.vertices_reported, b.vertices_reported);
  EXPECT_EQ(a.vertices_accepted, b.vertices_accepted);
  EXPECT_EQ(a.candidates_evaluated, b.candidates_evaluated);
  EXPECT_EQ(a.candidates_skipped, b.candidates_skipped);
  EXPECT_EQ(a.partial, b.partial);
  EXPECT_EQ(a.termination.code(), b.termination.code());
}

class QueryLifecycleTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    fixture_ = BuildFixture(1000, 20240814).release();
  }
  static void TearDownTestSuite() {
    delete fixture_;
    fixture_ = nullptr;
  }
  void TearDown() override {
    // Leave the injection plan inert for the next test.
    fixture_->plan = CancelPlan{};
  }
  static Fixture* fixture_;
};

Fixture* QueryLifecycleTest::fixture_ = nullptr;

TEST_F(QueryLifecycleTest, ExpiredDeadlineAtEntryDoesZeroWork) {
  EnvelopeMatcher matcher(fixture_->base.get());
  MatchOptions options;
  options.deadline = util::Deadline::AfterMicros(0);
  MatchStats stats;
  auto result = matcher.Match(fixture_->queries[0], options, &stats);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kDeadlineExceeded);
  // Zero work: not a single round, vertex report or similarity integral.
  EXPECT_EQ(stats.iterations, 0u);
  EXPECT_EQ(stats.vertices_reported, 0u);
  EXPECT_EQ(stats.candidates_evaluated, 0u);
  EXPECT_FALSE(stats.partial);
  EXPECT_EQ(stats.termination.code(), util::StatusCode::kDeadlineExceeded);

  // k = 0 outside collect mode fails the shared entry validation on
  // every ranking entry point; collect mode ignores k.
  MatchOptions zero_k;
  zero_k.k = 0;
  const Polyline& query = fixture_->queries[0];
  EXPECT_EQ(matcher.Match(query, zero_k).status().code(),
            util::StatusCode::kInvalidArgument);
  core::ExactEnumerationSource source(fixture_->base.get());
  EXPECT_EQ(matcher.MatchCandidates(query, &source, zero_k).status().code(),
            util::StatusCode::kInvalidArgument);
  EXPECT_EQ(core::MatchBatch(*fixture_->base, {query}, zero_k).status().code(),
            util::StatusCode::kInvalidArgument);
  zero_k.collect_threshold = 0.05;
  EXPECT_TRUE(matcher.Match(query, zero_k).ok());
  EXPECT_TRUE(matcher.MatchCandidates(query, &source, zero_k).ok());
}

TEST_F(QueryLifecycleTest, PreCancelledTokenPropagatesReason) {
  EnvelopeMatcher matcher(fixture_->base.get());
  util::CancellationToken token;
  token.Cancel("client went away");
  MatchOptions options;
  options.cancel_token = &token;
  MatchStats stats;
  auto result = matcher.Match(fixture_->queries[0], options, &stats);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kCancelled);
  EXPECT_NE(result.status().message().find("client went away"),
            std::string::npos);
  EXPECT_EQ(stats.candidates_evaluated, 0u);
}

TEST_F(QueryLifecycleTest, CancelBeatsDeadlineWhenBothFired) {
  EnvelopeMatcher matcher(fixture_->base.get());
  util::CancellationToken token;
  token.Cancel("explicit cancel");
  MatchOptions options;
  options.cancel_token = &token;
  options.deadline = util::Deadline::AfterMicros(0);
  auto result = matcher.Match(fixture_->queries[0], options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kCancelled);
}

TEST_F(QueryLifecycleTest, MidFlightCancelIsDeterministicAndPartial) {
  const Polyline& query = fixture_->queries[0];
  util::ThreadPool pool(8);

  // Reference run: how many rounds does this query take naturally?
  MatchOptions options;
  options.k = 5;
  options.stop_factor = 0.3;  // Delay the early exit past first candidates.
  EnvelopeMatcher probe_matcher(fixture_->base.get());
  MatchStats full_stats;
  auto full = probe_matcher.Match(query, options, &full_stats);
  ASSERT_TRUE(full.ok());
  ASSERT_FALSE(full->empty());
  ASSERT_GE(full_stats.iterations, 2u)
      << "fixture too easy: cannot cancel mid-flight";

  // Probe: smallest round budget that already holds ranked candidates.
  std::vector<MatchResult> probe_results;
  MatchStats probe_stats;
  size_t partial_rounds = 0;
  for (size_t r = 1; r < full_stats.iterations; ++r) {
    MatchOptions bounded = options;
    bounded.budget.max_rounds = r;
    auto result = probe_matcher.Match(query, bounded, &probe_stats);
    if (result.ok() && !result->empty() && probe_stats.partial) {
      probe_results = *std::move(result);
      partial_rounds = r;
      break;
    }
  }
  ASSERT_GT(partial_rounds, 0u)
      << "no round budget yields a non-empty partial result";

  // Cancel exactly at the first vertex report after those rounds: the
  // traversal observes the token, aborts, and the match returns the
  // best-so-far ranking of the completed rounds — identically for every
  // thread count, because the range-search phase is single-threaded.
  const uint64_t cancel_at = probe_stats.vertices_reported + 1;
  std::vector<MatchResult> outcomes[2];
  MatchStats stat_pair[2];
  for (int run = 0; run < 2; ++run) {
    util::CancellationToken token;
    fixture_->plan.Reset(&token, cancel_at);
    MatchOptions cancelled = options;
    cancelled.cancel_token = &token;
    if (run == 1) {
      cancelled.num_threads = 8;
      cancelled.pool = &pool;
    }
    EnvelopeMatcher matcher(fixture_->base.get());
    auto result = matcher.Match(query, cancelled, &stat_pair[run]);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    outcomes[run] = *std::move(result);
    EXPECT_TRUE(token.cancelled());
    EXPECT_TRUE(stat_pair[run].partial);
    EXPECT_EQ(stat_pair[run].termination.code(),
              util::StatusCode::kCancelled);
    EXPECT_FALSE(outcomes[run].empty());
  }
  ExpectIdentical(outcomes[0], outcomes[1]);
  ExpectSameLifecycleStats(stat_pair[0], stat_pair[1]);
  // The cancelled run returns exactly the completed rounds' ranking.
  ExpectIdentical(outcomes[0], probe_results);
}

TEST_F(QueryLifecycleTest, IndexErrorMidMatchLeavesTheMatcherClean) {
  // A discrete measure, so the verifier abandons candidates against the
  // per-shape bests: bests left behind by a failed query would make the
  // matcher's next query drop copies it must rank.
  MatchOptions options;
  options.measure = MatchMeasure::kDiscreteSymmetric;
  options.k = 5;
  options.stop_factor = 0.3;  // Delay the early exit past first candidates.
  const Polyline& query = fixture_->queries[0];

  // Probe: the smallest round budget that already holds ranked
  // candidates, and the triangle queries those rounds made. The fault
  // hits the next round's first triangle.
  EnvelopeMatcher probe(fixture_->base.get());
  uint64_t fail_at = 0;
  for (size_t rounds = 1; fail_at == 0; ++rounds) {
    MatchOptions bounded = options;
    bounded.budget.max_rounds = rounds;
    fixture_->plan.Reset(nullptr, 0);
    MatchStats stats;
    auto result = probe.Match(query, bounded, &stats);
    if (!result.ok()) {  // Nothing ranked yet.
      ASSERT_EQ(result.status().code(), util::StatusCode::kResourceExhausted);
      continue;
    }
    ASSERT_TRUE(stats.partial)
        << "query finished before a later round could fail";
    fail_at = fixture_->plan.triangles + 1;
  }

  EnvelopeMatcher matcher(fixture_->base.get());
  fixture_->plan.Reset(nullptr, 0);
  fixture_->plan.fail_at_triangle = fail_at;
  MatchStats failed_stats;
  auto failed = matcher.Match(query, options, &failed_stats);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), util::StatusCode::kUnavailable);
  EXPECT_GE(failed_stats.iterations, 2u);
  EXPECT_GT(failed_stats.candidates_evaluated, 0u);
  fixture_->plan = CancelPlan{};

  // The next query on the same matcher is a jittered copy of the failed
  // one, so it ranks the same shapes at nearby distances.
  util::Rng rng(11);
  const Polyline next = workload::JitterVertices(query, 0.01, &rng);
  MatchStats reused_stats;
  auto reused = matcher.Match(next, options, &reused_stats);
  ASSERT_TRUE(reused.ok()) << reused.status().ToString();
  EnvelopeMatcher fresh_matcher(fixture_->base.get());
  MatchStats fresh_stats;
  auto fresh = fresh_matcher.Match(next, options, &fresh_stats);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  ASSERT_FALSE(fresh->empty());
  ExpectIdentical(*fresh, *reused);
  ExpectSameLifecycleStats(fresh_stats, reused_stats);
  EXPECT_EQ(fresh_stats.candidates_abandoned, reused_stats.candidates_abandoned);
}

TEST_F(QueryLifecycleTest, BudgetStopsAreBitIdenticalAcrossThreadCounts) {
  util::ThreadPool pool(8);
  for (MatchMeasure measure : kAllMeasures) {
    for (int variant = 0; variant < 3; ++variant) {
      MatchOptions options;
      options.measure = measure;
      options.k = 5;
      switch (variant) {
        case 0:
          options.budget.max_rounds = 1;
          break;
        case 1:
          options.budget.max_candidates = 3;
          break;
        case 2:
          options.budget.max_vertex_reports = 512;
          break;
      }
      std::vector<std::vector<MatchResult>> serial(fixture_->queries.size());
      std::vector<MatchStats> serial_stats(fixture_->queries.size());
      std::vector<util::StatusCode> serial_codes(fixture_->queries.size());
      EnvelopeMatcher serial_matcher(fixture_->base.get());
      for (size_t i = 0; i < fixture_->queries.size(); ++i) {
        auto result =
            serial_matcher.Match(fixture_->queries[i], options,
                                 &serial_stats[i]);
        serial_codes[i] = result.ok() ? util::StatusCode::kOk
                                      : result.status().code();
        if (result.ok()) serial[i] = *std::move(result);
      }

      MatchOptions parallel_options = options;
      parallel_options.num_threads = 8;
      parallel_options.pool = &pool;
      EnvelopeMatcher parallel_matcher(fixture_->base.get());
      for (size_t i = 0; i < fixture_->queries.size(); ++i) {
        MatchStats stats;
        auto result = parallel_matcher.Match(fixture_->queries[i],
                                             parallel_options, &stats);
        const util::StatusCode code =
            result.ok() ? util::StatusCode::kOk : result.status().code();
        EXPECT_EQ(code, serial_codes[i]) << "query " << i;
        if (result.ok() && serial_codes[i] == util::StatusCode::kOk) {
          ExpectIdentical(serial[i], *result);
          ExpectSameLifecycleStats(serial_stats[i], stats);
        }
      }
    }
  }
}

TEST_F(QueryLifecycleTest, CandidateBudgetCapsEvaluationsAndMarksPartial) {
  EnvelopeMatcher matcher(fixture_->base.get());
  MatchOptions options;
  options.k = 5;
  options.budget.max_candidates = 1;
  MatchStats stats;
  auto result = matcher.Match(fixture_->queries[0], options, &stats);
  EXPECT_LE(stats.candidates_evaluated, 1u);
  if (result.ok()) {
    if (stats.partial) {
      EXPECT_EQ(stats.termination.code(),
                util::StatusCode::kResourceExhausted);
      EXPECT_GT(stats.candidates_skipped, 0u);
    }
  } else {
    EXPECT_EQ(result.status().code(), util::StatusCode::kResourceExhausted);
  }
}

TEST_F(QueryLifecycleTest, RoundBudgetBoundsIterations) {
  EnvelopeMatcher matcher(fixture_->base.get());
  MatchOptions options;
  options.budget.max_rounds = 1;
  MatchStats stats;
  auto result = matcher.Match(fixture_->queries[0], options, &stats);
  (void)result;
  EXPECT_LE(stats.iterations, 1u);
  EXPECT_LE(stats.rounds_completed, 1u);
}

TEST_F(QueryLifecycleTest, UnlimitedBudgetIsNotPartial) {
  EnvelopeMatcher matcher(fixture_->base.get());
  MatchOptions options;
  EXPECT_TRUE(options.budget.Unlimited());
  MatchStats stats;
  auto result = matcher.Match(fixture_->queries[0], options, &stats);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(stats.partial);
  EXPECT_TRUE(stats.termination.ok());
}

TEST_F(QueryLifecycleTest, BatchWithExpiredDeadlineReturnsEmptyPerQuery) {
  MatchOptions options;
  options.deadline = util::Deadline::AfterMicros(0);
  std::vector<MatchStats> stats;
  auto batch = core::MatchBatch(*fixture_->base, fixture_->queries, options,
                                &stats);
  // Lifecycle stops never fail the batch; every query reports its own
  // termination with an empty ranking.
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(batch->size(), fixture_->queries.size());
  for (size_t i = 0; i < batch->size(); ++i) {
    EXPECT_TRUE((*batch)[i].empty()) << "query " << i;
    EXPECT_EQ(stats[i].termination.code(),
              util::StatusCode::kDeadlineExceeded);
    EXPECT_EQ(stats[i].iterations, 0u);
  }
}

TEST_F(QueryLifecycleTest, SerialBatchSkipsQueriesAfterCancel) {
  // The injected plan cancels the shared token on the very first vertex
  // report, i.e. during query 0: the serial loop must then skip queries
  // 1.. entirely and stamp their termination.
  util::CancellationToken token;
  fixture_->plan.Reset(&token, 1);
  MatchOptions options;
  options.cancel_token = &token;
  std::vector<MatchStats> stats;
  auto batch = core::MatchBatch(*fixture_->base, fixture_->queries, options,
                                &stats);
  ASSERT_TRUE(batch.ok());
  EXPECT_TRUE(token.cancelled());
  for (size_t i = 1; i < stats.size(); ++i) {
    EXPECT_TRUE((*batch)[i].empty()) << "query " << i;
    EXPECT_EQ(stats[i].termination.code(), util::StatusCode::kCancelled)
        << "query " << i;
    EXPECT_EQ(stats[i].iterations, 0u) << "query " << i;
  }
}

TEST_F(QueryLifecycleTest, PooledBatchWithPreCancelledTokenRunsNothing) {
  util::ThreadPool pool(4);
  util::CancellationToken token;
  token.Cancel("shed the whole batch");
  MatchOptions options;
  options.cancel_token = &token;
  options.num_threads = 4;
  options.pool = &pool;
  std::vector<MatchStats> stats;
  auto batch = core::MatchBatch(*fixture_->base, fixture_->queries, options,
                                &stats);
  ASSERT_TRUE(batch.ok());
  for (size_t i = 0; i < stats.size(); ++i) {
    EXPECT_TRUE((*batch)[i].empty()) << "query " << i;
    EXPECT_EQ(stats[i].termination.code(), util::StatusCode::kCancelled);
    EXPECT_EQ(stats[i].iterations, 0u);
  }
}

TEST(EnvelopeBudgetTest, BudgetCutRoundIsNeverCertified) {
  // A round the candidate budget cut left qualifying copies unverified,
  // so the stop rule cannot certify it: whenever the budget skipped a
  // copy, the answer is a kResourceExhausted partial, not an early exit.
  // Ten prototypes of a hundred instances each put far more than the
  // budget's copies inside the first envelopes.
  util::Rng rng(31);
  workload::PolygonGenOptions gen;
  std::vector<Polyline> prototypes;
  for (int p = 0; p < 10; ++p) {
    prototypes.push_back(workload::RandomStarPolygon(&rng, gen));
  }
  ShapeBase base;
  for (int s = 0; s < 1000; ++s) {
    ASSERT_TRUE(
        base.AddShape(workload::JitterVertices(prototypes[s % 10], 0.01, &rng))
            .ok());
  }
  ASSERT_TRUE(base.Finalize().ok());
  EnvelopeMatcher matcher(&base);
  MatchOptions options;
  options.k = 1;
  options.measure = MatchMeasure::kContinuousSymmetric;
  options.budget.max_candidates = 60;
  size_t cut = 0;
  for (int q = 0; q < 4; ++q) {
    const Polyline query =
        workload::JitterVertices(prototypes[3 * q], 0.01, &rng);
    MatchStats stats;
    auto result = matcher.Match(query, options, &stats);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    if (stats.candidates_skipped == 0) continue;
    ++cut;
    EXPECT_TRUE(stats.partial) << "query " << q;
    EXPECT_FALSE(stats.stopped_early) << "query " << q;
    EXPECT_EQ(stats.termination.code(), util::StatusCode::kResourceExhausted)
        << "query " << q;
  }
  EXPECT_GT(cut, 0u) << "no query reached the candidate budget";
}

// ---------------------------------------------------------------------------
// Wall-clock behavior (coarse bounds only; the index sleeps per triangle
// query to stretch the match far beyond the deadline/cancel horizon).
// ---------------------------------------------------------------------------

class SlowMatchTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { fixture_ = BuildFixture(200, 99).release(); }
  static void TearDownTestSuite() {
    delete fixture_;
    fixture_ = nullptr;
  }
  void SetUp() override {
    fixture_->plan = CancelPlan{};
    fixture_->plan.sleep_us_per_triangle = 1000;
  }
  void TearDown() override { fixture_->plan = CancelPlan{}; }

  // Disable the natural stops so the match would run for a long time.
  static MatchOptions SlowOptions() {
    MatchOptions options;
    options.stop_factor = 0.0;  // No early exit.
    options.max_epsilon = 10.0;  // Far beyond the normalized lune.
    return options;
  }
  static Fixture* fixture_;
};

Fixture* SlowMatchTest::fixture_ = nullptr;

TEST_F(SlowMatchTest, DeadlineStopsALongMatchPromptly) {
  EnvelopeMatcher matcher(fixture_->base.get());
  MatchOptions options = SlowOptions();
  options.deadline = util::Deadline::AfterMillis(25);
  const auto start = std::chrono::steady_clock::now();
  MatchStats stats;
  auto result = matcher.Match(fixture_->queries[0], options, &stats);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  // Generous bound: without the deadline this match sleeps for hundreds of
  // milliseconds in the index alone and then integrates every shape.
  EXPECT_LT(elapsed, std::chrono::seconds(10));
  if (result.ok()) {
    EXPECT_TRUE(stats.partial);
    EXPECT_FALSE(result->empty());
  }
  EXPECT_EQ(stats.termination.code(), util::StatusCode::kDeadlineExceeded);
}

TEST_F(SlowMatchTest, CrossThreadCancelStopsALongMatchPromptly) {
  EnvelopeMatcher matcher(fixture_->base.get());
  util::CancellationToken token;
  MatchOptions options = SlowOptions();
  options.cancel_token = &token;
  std::thread canceller([&token] {
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
    token.Cancel("operator abort");
  });
  const auto start = std::chrono::steady_clock::now();
  MatchStats stats;
  auto result = matcher.Match(fixture_->queries[0], options, &stats);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  canceller.join();
  EXPECT_LT(elapsed, std::chrono::seconds(10));
  if (result.ok()) {
    EXPECT_TRUE(stats.partial);
    EXPECT_FALSE(result->empty());
  }
  EXPECT_EQ(stats.termination.code(), util::StatusCode::kCancelled);
}

// ---------------------------------------------------------------------------
// DynamicShapeBase lifecycle (main base + delta evaluation path).
// ---------------------------------------------------------------------------

TEST(DynamicLifecycleTest, ControlsApplyToMainAndDelta) {
  util::Rng rng(42);
  workload::PolygonGenOptions gen;
  core::DynamicShapeBase::Options options;
  options.base.normalize.max_axes = 2;
  options.min_compaction_size = 16;
  core::DynamicShapeBase dynamic(options);

  std::vector<Polyline> prototypes;
  for (int p = 0; p < 12; ++p) {
    prototypes.push_back(workload::RandomStarPolygon(&rng, gen));
  }
  for (int s = 0; s < 150; ++s) {
    ASSERT_TRUE(
        dynamic.Insert(workload::JitterVertices(prototypes[s % 12], 0.01, &rng))
            .ok());
  }
  ASSERT_GT(dynamic.NumDelta(), 0u);  // Both paths exercised below.
  const Polyline query =
      workload::JitterVertices(prototypes[2], 0.015, &rng);

  // An expired deadline fails before any work.
  dynamic.match_options().deadline = util::Deadline::AfterMicros(0);
  MatchStats stats;
  auto expired = dynamic.Match(query, 3, &stats);
  ASSERT_FALSE(expired.ok());
  EXPECT_EQ(expired.status().code(), util::StatusCode::kDeadlineExceeded);
  EXPECT_EQ(stats.candidates_evaluated, 0u);

  // A pre-cancelled token, likewise.
  dynamic.match_options().deadline = util::Deadline();
  util::CancellationToken token;
  token.Cancel("closing");
  dynamic.match_options().cancel_token = &token;
  auto cancelled = dynamic.Match(query, 3, &stats);
  ASSERT_FALSE(cancelled.ok());
  EXPECT_EQ(cancelled.status().code(), util::StatusCode::kCancelled);

  // A round budget bounds the main-base search; the outcome is either a
  // (partial or complete) ranking or a clean lifecycle error.
  dynamic.match_options().cancel_token = nullptr;
  dynamic.match_options().budget.max_rounds = 1;
  auto bounded = dynamic.Match(query, 3, &stats);
  EXPECT_LE(stats.iterations, 1u);
  if (bounded.ok()) {
    if (stats.partial) {
      EXPECT_EQ(stats.termination.code(),
                util::StatusCode::kResourceExhausted);
    }
  } else {
    EXPECT_EQ(bounded.status().code(), util::StatusCode::kResourceExhausted);
  }

  // Clearing the controls restores normal matching.
  dynamic.match_options().budget = core::WorkBudget{};
  auto clean = dynamic.Match(query, 3, &stats);
  ASSERT_TRUE(clean.ok());
  EXPECT_FALSE(clean->empty());
  EXPECT_FALSE(stats.partial);

  // k = 0 is rejected by every entry point, with a main base and without
  // one (a base still below its first compaction).
  core::DynamicShapeBase delta_only(options);
  ASSERT_TRUE(delta_only.Insert(prototypes[0]).ok());
  for (core::DynamicShapeBase* base : {&dynamic, &delta_only}) {
    EXPECT_EQ(base->Match(query, 0).status().code(),
              util::StatusCode::kInvalidArgument);
    EXPECT_EQ(base->MatchBatch({query}, 0).status().code(),
              util::StatusCode::kInvalidArgument);
    core::ExactEnumerationSource source(&base->main_base());
    EXPECT_EQ(base->MatchCandidates(query, &source, 0).status().code(),
              util::StatusCode::kInvalidArgument);
  }
}

// ---------------------------------------------------------------------------
// ScopedQueryControl and retry integration.
// ---------------------------------------------------------------------------

TEST(ScopedQueryControlTest, NestingRestoresPreviousBinding) {
  EXPECT_EQ(util::ScopedQueryControl::Active(), nullptr);
  util::QueryControl outer;
  {
    util::ScopedQueryControl bind_outer(&outer);
    EXPECT_EQ(util::ScopedQueryControl::Active(), &outer);
    util::QueryControl inner;
    {
      util::ScopedQueryControl bind_inner(&inner);
      EXPECT_EQ(util::ScopedQueryControl::Active(), &inner);
    }
    EXPECT_EQ(util::ScopedQueryControl::Active(), &outer);
  }
  EXPECT_EQ(util::ScopedQueryControl::Active(), nullptr);
}

TEST(ScopedQueryControlTest, CheckPrefersCancelOverDeadline) {
  util::CancellationToken token;
  token.Cancel("stop");
  util::QueryControl control;
  control.cancel = &token;
  control.deadline = util::Deadline::AfterMicros(0);
  EXPECT_EQ(control.Check().code(), util::StatusCode::kCancelled);
  EXPECT_FALSE(control.Inert());
  EXPECT_TRUE(util::QueryControl{}.Inert());
}

TEST(RetryLifecycleTest, NoRetriesPastAnExpiredControl) {
  util::QueryControl control;
  control.deadline = util::Deadline::AfterMicros(0);
  util::RetryPolicy policy;
  policy.max_attempts = 5;
  int attempts = 0;
  util::Status status = util::RetryWithBackoff(
      policy, [] { return util::Status::Unavailable("flaky"); }, &attempts,
      &control);
  // The first attempt always runs; the expired control gates retries only.
  EXPECT_EQ(status.code(), util::StatusCode::kUnavailable);
  EXPECT_EQ(attempts, 1);
}

TEST(RetryLifecycleTest, ThreadLocalBindingGatesRetriesImplicitly) {
  util::CancellationToken token;
  token.Cancel("shutting down");
  util::QueryControl control;
  control.cancel = &token;
  util::ScopedQueryControl scoped(&control);
  util::RetryPolicy policy;
  policy.max_attempts = 4;
  int attempts = 0;
  util::Status status = util::RetryWithBackoff(
      policy, [] { return util::Status::Unavailable("flaky"); }, &attempts);
  EXPECT_EQ(status.code(), util::StatusCode::kUnavailable);
  EXPECT_EQ(attempts, 1);
}

TEST(RetryLifecycleTest, HealthyControlStillRetries) {
  util::QueryControl control;  // Inert.
  util::RetryPolicy policy;
  policy.max_attempts = 3;
  int attempts = 0;
  int calls = 0;
  util::Status status = util::RetryWithBackoff(
      policy,
      [&] {
        ++calls;
        return calls < 3 ? util::Status::Unavailable("flaky")
                         : util::Status::OK();
      },
      &attempts, &control);
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(attempts, 3);
}

// ---------------------------------------------------------------------------
// Admission control.
// ---------------------------------------------------------------------------

TEST(AdmissionTest, FastPathAdmitsUpToCapacity) {
  query::AdmissionOptions options;
  options.max_concurrent = 2;
  options.max_queued = 4;
  options.queue_timeout_ms = 20;
  query::AdmissionController controller(options);

  auto first = controller.Admit();
  ASSERT_TRUE(first.ok());
  EXPECT_TRUE(first->valid());
  auto second = controller.Admit();
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(controller.stats().inflight, 2u);

  // Capacity reached: the third caller queues and times out.
  auto third = controller.Admit();
  ASSERT_FALSE(third.ok());
  EXPECT_EQ(third.status().code(), util::StatusCode::kUnavailable);
  EXPECT_EQ(controller.stats().shed_timeout, 1u);

  // Releasing a ticket frees the slot again.
  *first = query::AdmissionController::Ticket();
  auto fourth = controller.Admit();
  ASSERT_TRUE(fourth.ok());
  EXPECT_EQ(controller.stats().admitted, 3u);
}

TEST(AdmissionTest, FullQueueShedsImmediately) {
  query::AdmissionOptions options;
  options.max_concurrent = 1;
  options.max_queued = 0;
  query::AdmissionController controller(options);
  auto held = controller.Admit();
  ASSERT_TRUE(held.ok());
  const auto start = std::chrono::steady_clock::now();
  auto shed = controller.Admit();
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), util::StatusCode::kUnavailable);
  EXPECT_EQ(controller.stats().shed_queue_full, 1u);
  // Shed at arrival, not after a timeout.
  EXPECT_LT(elapsed, std::chrono::seconds(1));
}

TEST(AdmissionTest, ExpiredDeadlineIsShedBeforeQueueing) {
  query::AdmissionController controller;
  auto shed = controller.Admit(util::Deadline::AfterMicros(0));
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), util::StatusCode::kDeadlineExceeded);
  EXPECT_EQ(controller.stats().shed_expired, 1u);
  EXPECT_EQ(controller.stats().inflight, 0u);
}

TEST(AdmissionTest, CallerDeadlineBoundsQueueWait) {
  query::AdmissionOptions options;
  options.max_concurrent = 1;
  options.queue_timeout_ms = 60000;  // The caller's deadline is tighter.
  query::AdmissionController controller(options);
  auto held = controller.Admit();
  ASSERT_TRUE(held.ok());
  const auto start = std::chrono::steady_clock::now();
  auto shed = controller.Admit(util::Deadline::AfterMillis(30));
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), util::StatusCode::kDeadlineExceeded);
  EXPECT_EQ(controller.stats().shed_expired, 1u);
  EXPECT_LT(elapsed, std::chrono::seconds(10));
}

TEST(AdmissionTest, ReleaseWakesTheQueuedWaiter) {
  query::AdmissionOptions options;
  options.max_concurrent = 1;
  options.queue_timeout_ms = 0;  // Wait indefinitely.
  query::AdmissionController controller(options);
  auto held = controller.Admit();
  ASSERT_TRUE(held.ok());

  std::atomic<bool> admitted{false};
  std::thread waiter([&] {
    auto ticket = controller.Admit();
    EXPECT_TRUE(ticket.ok());
    admitted.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(admitted.load());
  *held = query::AdmissionController::Ticket();  // Release the slot.
  waiter.join();
  EXPECT_TRUE(admitted.load());
  EXPECT_EQ(controller.stats().admitted, 2u);
}

TEST(AdmissionTest, WaitersAreAdmittedInFifoOrder) {
  query::AdmissionOptions options;
  options.max_concurrent = 1;
  options.queue_timeout_ms = 0;
  query::AdmissionController controller(options);
  auto held = controller.Admit();
  ASSERT_TRUE(held.ok());

  std::mutex order_mutex;
  std::vector<int> order;
  const auto wait_and_record = [&](int id) {
    auto ticket = controller.Admit();
    EXPECT_TRUE(ticket.ok());
    std::lock_guard<std::mutex> lock(order_mutex);
    order.push_back(id);
    // Ticket released on scope exit; the next waiter gets the slot.
  };
  std::thread first(wait_and_record, 1);
  // Give the first waiter ample time to enqueue before the second arrives.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  std::thread second(wait_and_record, 2);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  *held = query::AdmissionController::Ticket();
  first.join();
  second.join();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 1);
  EXPECT_EQ(order[1], 2);
}

class AdmittedBatchTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { fixture_ = BuildFixture(400, 11).release(); }
  static void TearDownTestSuite() {
    delete fixture_;
    fixture_ = nullptr;
  }
  static Fixture* fixture_;
};

Fixture* AdmittedBatchTest::fixture_ = nullptr;

TEST_F(AdmittedBatchTest, AdmittedBatchMatchesDirectBatch) {
  query::AdmissionController controller;
  MatchOptions options;
  options.k = 3;
  auto direct = core::MatchBatch(*fixture_->base, fixture_->queries, options);
  ASSERT_TRUE(direct.ok());
  auto admitted = query::AdmittedMatchBatch(&controller, *fixture_->base,
                                            fixture_->queries, options);
  ASSERT_TRUE(admitted.ok());
  ASSERT_EQ(admitted->size(), direct->size());
  for (size_t i = 0; i < direct->size(); ++i) {
    ExpectIdentical((*direct)[i], (*admitted)[i]);
  }
  EXPECT_EQ(controller.stats().admitted, 1u);
  EXPECT_EQ(controller.stats().inflight, 0u);  // Ticket released.
}

TEST_F(AdmittedBatchTest, OverloadedControllerShedsTheBatch) {
  query::AdmissionOptions admission;
  admission.max_concurrent = 1;
  admission.max_queued = 0;
  query::AdmissionController controller(admission);
  auto held = controller.Admit();
  ASSERT_TRUE(held.ok());
  auto shed = query::AdmittedMatchBatch(&controller, *fixture_->base,
                                        fixture_->queries);
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), util::StatusCode::kUnavailable);
}

}  // namespace
}  // namespace geosir
