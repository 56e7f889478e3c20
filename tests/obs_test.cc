/// Observability subsystem tests: metric registry semantics, exporter
/// golden snapshots (Prometheus text format + JSON lines), per-query
/// traces, the slow-query log, and an end-to-end check that the built-in
/// instrumentation across matcher / storage / admission / thread-pool /
/// dynamic-base publishes its metric families into the default registry.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/dynamic_shape_base.h"
#include "core/envelope_matcher.h"
#include "core/shape_base.h"
#include "core/similarity.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/slow_query_log.h"
#include "obs/trace.h"
#include "query/admission.h"
#include "replication/follower.h"
#include "replication/replicated_shape_base.h"
#include "replication/replication_server.h"
#include "replication/socket_transport.h"
#include "storage/appendable_file.h"
#include "storage/external_simplex_index.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace geosir::obs {
namespace {

using geom::Point;
using geom::Polyline;

// ---------------------------------------------------------------------------
// MetricRegistry semantics.

TEST(MetricRegistryTest, SameSeriesReturnsSamePointer) {
  MetricRegistry registry;
  Counter* a = registry.GetCounter("geosir_test_total", "help");
  Counter* b = registry.GetCounter("geosir_test_total", "other help ignored");
  EXPECT_EQ(a, b);
  // Different labels are a different series of the same family.
  Counter* c =
      registry.GetCounter("geosir_test_total", "help", "reason=\"x\"");
  EXPECT_NE(a, c);
  a->Inc();
  a->Inc(4);
  c->Inc();
  EXPECT_EQ(a->value(), 5u);
  EXPECT_EQ(c->value(), 1u);
}

TEST(MetricRegistryTest, GaugeSetAndAdd) {
  MetricRegistry registry;
  Gauge* g = registry.GetGauge("geosir_test_depth", "help");
  g->Set(7);
  g->Add(-3);
  EXPECT_EQ(g->value(), 4);
  g->Add(-10);
  EXPECT_EQ(g->value(), -6);
}

TEST(MetricRegistryTest, HistogramBucketsAndSum) {
  MetricRegistry registry;
  Histogram* h = registry.GetHistogram("geosir_test_seconds", "help",
                                       {0.1, 1.0, 10.0});
  h->Observe(0.05);   // Bucket 0.
  h->Observe(0.1);    // Still bucket 0 (le is inclusive).
  h->Observe(0.5);    // Bucket 1.
  h->Observe(100.0);  // Overflow bucket.
  EXPECT_EQ(h->count(), 4u);
  EXPECT_EQ(h->bucket_count(0), 2u);
  EXPECT_EQ(h->bucket_count(1), 1u);
  EXPECT_EQ(h->bucket_count(2), 0u);
  EXPECT_EQ(h->bucket_count(3), 1u);  // +Inf.
  EXPECT_NEAR(h->sum(), 100.65, 1e-6);
}

TEST(MetricRegistryTest, DisarmedOpsAreNoOps) {
  MetricRegistry registry;
  Counter* c = registry.GetCounter("geosir_test_total", "help");
  Gauge* g = registry.GetGauge("geosir_test_depth", "help");
  Histogram* h = registry.GetHistogram("geosir_test_seconds", "help", {1.0});
  SetArmed(false);
  c->Inc(5);
  g->Set(9);
  h->Observe(0.5);
  SetArmed(true);
  EXPECT_EQ(c->value(), 0u);
  EXPECT_EQ(g->value(), 0);
  EXPECT_EQ(h->count(), 0u);
}

TEST(MetricRegistryTest, ResetValuesKeepsRegistrations) {
  MetricRegistry registry;
  Counter* c = registry.GetCounter("geosir_test_total", "help");
  c->Inc(3);
  registry.ResetValues();
  EXPECT_EQ(c->value(), 0u);
  // The cached pointer is still the live series.
  c->Inc();
  EXPECT_EQ(registry.GetCounter("geosir_test_total", "help")->value(), 1u);
}

// ---------------------------------------------------------------------------
// Exporter golden snapshots. A fixed registry must render byte-for-byte
// stable output in both formats.

RegistrySnapshot GoldenSnapshot() {
  MetricRegistry registry;
  registry.GetCounter("geosir_test_ops_total", "Ops processed")->Inc(3);
  registry
      .GetCounter("geosir_test_shed_total", "Sheds by reason",
                  "reason=\"a\"")
      ->Inc(1);
  registry
      .GetCounter("geosir_test_shed_total", "Sheds by reason",
                  "reason=\"b\"")
      ->Inc(2);
  registry.GetGauge("geosir_test_depth", "Queue depth")->Set(-4);
  Histogram* h = registry.GetHistogram("geosir_test_lat_seconds", "Latency",
                                       {0.1, 1.0});
  h->Observe(0.05);
  h->Observe(0.5);
  h->Observe(5.0);
  return registry.Snapshot();
}

TEST(ExportTest, PrometheusGolden) {
  const std::string got = ToPrometheusText(GoldenSnapshot());
  const std::string want =
      "# HELP geosir_test_depth Queue depth\n"
      "# TYPE geosir_test_depth gauge\n"
      "geosir_test_depth -4\n"
      "# HELP geosir_test_lat_seconds Latency\n"
      "# TYPE geosir_test_lat_seconds histogram\n"
      "geosir_test_lat_seconds_bucket{le=\"0.1\"} 1\n"
      "geosir_test_lat_seconds_bucket{le=\"1\"} 2\n"
      "geosir_test_lat_seconds_bucket{le=\"+Inf\"} 3\n"
      "geosir_test_lat_seconds_sum 5.55\n"
      "geosir_test_lat_seconds_count 3\n"
      "# HELP geosir_test_ops_total Ops processed\n"
      "# TYPE geosir_test_ops_total counter\n"
      "geosir_test_ops_total 3\n"
      "# HELP geosir_test_shed_total Sheds by reason\n"
      "# TYPE geosir_test_shed_total counter\n"
      "geosir_test_shed_total{reason=\"a\"} 1\n"
      "geosir_test_shed_total{reason=\"b\"} 2\n";
  EXPECT_EQ(got, want);
}

TEST(ExportTest, JsonLinesGolden) {
  const std::string got = ToJsonLines(GoldenSnapshot());
  const std::string want =
      "{\"metric\":\"geosir_test_depth\",\"type\":\"gauge\",\"value\":-4}\n"
      "{\"metric\":\"geosir_test_lat_seconds\",\"type\":\"histogram\","
      "\"bounds\":[0.1,1],\"buckets\":[1,1,1],\"sum\":5.55,\"count\":3}\n"
      "{\"metric\":\"geosir_test_ops_total\",\"type\":\"counter\","
      "\"value\":3}\n"
      "{\"metric\":\"geosir_test_shed_total\",\"type\":\"counter\","
      "\"labels\":\"reason=\\\"a\\\"\",\"value\":1}\n"
      "{\"metric\":\"geosir_test_shed_total\",\"type\":\"counter\","
      "\"labels\":\"reason=\\\"b\\\"\",\"value\":2}\n";
  EXPECT_EQ(got, want);
}

// ---------------------------------------------------------------------------
// Mini Prometheus parser used by the end-to-end test (and by the CI
// smoke test via the same grammar): every line is a comment or
// `name[{labels}] value`.

void AssertParsesAsPrometheus(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  size_t samples = 0;
  while (std::getline(in, line)) {
    ASSERT_FALSE(line.empty()) << "blank line in exposition output";
    if (line[0] == '#') {
      ASSERT_TRUE(line.rfind("# HELP ", 0) == 0 ||
                  line.rfind("# TYPE ", 0) == 0)
          << line;
      if (line.rfind("# TYPE ", 0) == 0) {
        const std::string type = line.substr(line.rfind(' ') + 1);
        EXPECT_TRUE(type == "counter" || type == "gauge" ||
                    type == "histogram")
            << line;
      }
      continue;
    }
    const size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    const std::string series = line.substr(0, space);
    const std::string value = line.substr(space + 1);
    ASSERT_FALSE(series.empty()) << line;
    EXPECT_TRUE(std::isalpha(static_cast<unsigned char>(series[0])) ||
                series[0] == '_')
        << line;
    const size_t brace = series.find('{');
    if (brace != std::string::npos) {
      EXPECT_EQ(series.back(), '}') << line;
    }
    // Value parses as a number.
    size_t consumed = 0;
    (void)std::stod(value, &consumed);
    EXPECT_EQ(consumed, value.size()) << line;
    ++samples;
  }
  EXPECT_GT(samples, 0u);
}

TEST(ExportTest, GoldenOutputPassesMiniParser) {
  AssertParsesAsPrometheus(ToPrometheusText(GoldenSnapshot()));
}

// ---------------------------------------------------------------------------
// QueryTrace and TraceSpan.

TEST(QueryTraceTest, RecordsRoundsEventsAndSummary) {
  QueryTrace trace;
  trace.Start("q1");
  RoundTrace round;
  round.round = 1;
  round.epsilon = 0.25;
  round.vertices_reported = 10;
  trace.AddRound(round);
  trace.AddEvent("degraded", "2 subtrees skipped");
  trace.Finish("exhausted", /*partial=*/false, /*degraded=*/true);
  EXPECT_EQ(trace.label(), "q1");
  EXPECT_EQ(trace.rounds().size(), 1u);
  EXPECT_EQ(trace.events().size(), 1u);
  EXPECT_EQ(trace.termination(), "exhausted");
  EXPECT_TRUE(trace.degraded());
  EXPECT_FALSE(trace.partial());
  EXPECT_GE(trace.total_ms(), 0.0);

  const std::string json = trace.ToJson();
  EXPECT_NE(json.find("\"label\":\"q1\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"termination\":\"exhausted\""), std::string::npos);
  EXPECT_NE(json.find("\"rounds\":["), std::string::npos);
  EXPECT_NE(json.find("\"events\":["), std::string::npos);
  EXPECT_NE(json.find("degraded"), std::string::npos);
  // Single line: jq/JSONL friendly.
  EXPECT_EQ(json.find('\n'), std::string::npos);
}

TEST(QueryTraceTest, StartClearsForReuse) {
  QueryTrace trace;
  trace.Start("first");
  trace.AddRound(RoundTrace{});
  trace.Finish("exhausted", false, false);
  trace.Start("second");
  EXPECT_EQ(trace.label(), "second");
  EXPECT_TRUE(trace.rounds().empty());
  EXPECT_TRUE(trace.events().empty());
}

TEST(QueryTraceTest, SpanRecordsEventAndNullIsNoOp) {
  QueryTrace trace;
  trace.Start("spans");
  { TraceSpan span(&trace, "normalize"); }
  ASSERT_EQ(trace.events().size(), 1u);
  EXPECT_EQ(trace.events()[0].kind, "span");
  EXPECT_NE(trace.events()[0].detail.find("normalize"), std::string::npos);
  { TraceSpan null_span(nullptr, "ignored"); }  // Must not crash.
}

// ---------------------------------------------------------------------------
// SlowQueryLog.

QueryTrace TimedTrace(const std::string& label, int sleep_ms) {
  QueryTrace trace;
  trace.Start(label);
  if (sleep_ms > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
  }
  trace.Finish("exhausted", false, false);
  return trace;
}

TEST(SlowQueryLogTest, DisarmedRejectsEverything) {
  SlowQueryLog log(4);
  EXPECT_FALSE(log.Offer(TimedTrace("t", 0)));
  EXPECT_EQ(log.size(), 0u);
}

TEST(SlowQueryLogTest, ThresholdFiltersFastQueries) {
  SlowQueryLog log(4);
  log.set_armed(true);
  log.set_threshold_ms(10000.0);  // Nothing in a test is this slow.
  EXPECT_FALSE(log.Offer(TimedTrace("fast", 0)));
  EXPECT_EQ(log.size(), 0u);
}

TEST(SlowQueryLogTest, BoundedAndSortedWorstFirst) {
  SlowQueryLog log(3);
  log.set_armed(true);
  for (int i = 0; i < 6; ++i) {
    log.Offer(TimedTrace("t" + std::to_string(i), i % 3));
  }
  EXPECT_LE(log.size(), 3u);
  EXPECT_GT(log.size(), 0u);
  const std::vector<QueryTrace> kept = log.Snapshot();
  for (size_t i = 1; i < kept.size(); ++i) {
    EXPECT_GE(kept[i - 1].total_ms(), kept[i].total_ms());
  }
  log.Clear();
  EXPECT_EQ(log.size(), 0u);
}

// ---------------------------------------------------------------------------
// Matcher integration: the trace the matcher records must reconcile with
// the MatchStats it returns.

Polyline RegularPolygon(int n, double r, Point c = {0, 0},
                        double phase = 0.0) {
  std::vector<Point> v;
  for (int i = 0; i < n; ++i) {
    const double a = phase + 2.0 * M_PI * i / n;
    v.push_back({c.x + r * std::cos(a), c.y + r * std::sin(a)});
  }
  return Polyline::Closed(std::move(v));
}

void PopulateBase(core::ShapeBase* base) {
  util::Rng rng(77);
  for (int proto = 0; proto < 12; ++proto) {
    Polyline poly = RegularPolygon(5 + proto % 7, 1.0, {0, 0}, 0.25 * proto);
    for (Point& p : poly.mutable_vertices()) {
      p += Point{rng.Gaussian(0.01), rng.Gaussian(0.01)};
    }
    ASSERT_TRUE(base->AddShape(poly, proto).ok());
  }
  ASSERT_TRUE(base->Finalize().ok());
}

TEST(MatcherTraceTest, RoundDeltasSumToMatchStats) {
  core::ShapeBase base;
  PopulateBase(&base);
  core::EnvelopeMatcher matcher(&base);
  QueryTrace trace;
  core::MatchOptions options;
  options.k = 3;
  options.query_trace = &trace;
  core::MatchStats stats;
  auto got = matcher.Match(base.shape(0).boundary, options, &stats);
  ASSERT_TRUE(got.ok());
  ASSERT_FALSE(got->empty());

  EXPECT_NE(trace.label().find("match"), std::string::npos);
  EXPECT_EQ(trace.rounds().size(), stats.iterations);
  EXPECT_TRUE(trace.termination() == "early_exit" ||
              trace.termination() == "exhausted")
      << trace.termination();
  uint64_t reported = 0, accepted = 0, admitted = 0, abandoned = 0;
  for (const RoundTrace& round : trace.rounds()) {
    reported += round.vertices_reported;
    accepted += round.vertices_accepted;
    admitted += round.candidates_admitted;
    abandoned += round.candidates_abandoned;
    EXPECT_GT(round.epsilon, 0.0);
    EXPECT_GE(round.elapsed_ms, 0.0);
  }
  EXPECT_EQ(reported, stats.vertices_reported);
  EXPECT_EQ(accepted, stats.vertices_accepted);
  EXPECT_EQ(admitted, stats.candidates_evaluated);
  EXPECT_EQ(abandoned, stats.candidates_abandoned);
}

TEST(MatcherTraceTest, ArmedSlowLogCapturesQueriesWithoutCallerTrace) {
  SlowQueryLog& log = SlowQueryLog::Default();
  log.Clear();
  log.set_threshold_ms(0.0);
  log.set_armed(true);
  {
    core::ShapeBase base;
    PopulateBase(&base);
    core::EnvelopeMatcher matcher(&base);
    core::MatchOptions options;
    options.k = 2;
    auto got = matcher.Match(base.shape(1).boundary, options);
    ASSERT_TRUE(got.ok());
  }
  log.set_armed(false);
  ASSERT_GE(log.size(), 1u);
  const QueryTrace worst = log.Snapshot().front();
  EXPECT_FALSE(worst.rounds().empty());
  EXPECT_FALSE(worst.termination().empty());
  log.Clear();
}

// The ring filter's exact membership test scans the query's edges once
// per tested vertex. Below grid_min_edges that scan is the flat kernel's,
// which Match counts itself (flushed once per round): with verification
// cut to one candidate, the counter must still rise by at least the
// accepted vertices times the query's edges.
TEST(MatcherTraceTest, RingFilterCountsItsKernelEdges) {
  core::ShapeBase base;
  PopulateBase(&base);
  const Polyline& query = base.shape(3).boundary;
  ASSERT_LT(query.NumEdges(), core::SimilarityOptions{}.grid_min_edges);
  Counter* edges = MetricRegistry::Default().GetCounter(
      "geosir_geom_kernel_batched_edges_total",
      "Edge evaluations routed through the batch kernels");
  ASSERT_TRUE(Armed());
  core::EnvelopeMatcher matcher(&base);
  core::MatchOptions options;
  options.k = 3;
  options.measure = core::MatchMeasure::kDiscreteSymmetric;
  options.initial_epsilon = 0.2;  // One wide round accepts many vertices.
  options.budget.max_candidates = 1;
  core::MatchStats stats;
  const uint64_t before = edges->value();
  auto got = matcher.Match(query, options, &stats);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_EQ(stats.candidates_evaluated, 1u);
  ASSERT_GT(stats.vertices_accepted, 0u);
  EXPECT_GE(edges->value() - before,
            stats.vertices_accepted * query.NumEdges());
}

// ---------------------------------------------------------------------------
// End-to-end: exercising matcher + external storage + admission +
// thread pool + dynamic base must leave their metric families in the
// default registry, and the export of the whole registry must parse.

TEST(EndToEndMetricsTest, BuiltInFamiliesPublishToDefaultRegistry) {
  // Matcher over an external (buffered, block-backed) index.
  {
    core::ShapeBaseOptions options;
    options.index_factory = [] {
      return std::make_unique<storage::ExternalSimplexIndex>();
    };
    core::ShapeBase base(options);
    PopulateBase(&base);
    core::EnvelopeMatcher matcher(&base);
    core::MatchOptions match_options;
    match_options.k = 2;
    ASSERT_TRUE(matcher.Match(base.shape(0).boundary, match_options).ok());
  }
  // Admission controller.
  {
    query::AdmissionController controller{query::AdmissionOptions{}};
    auto ticket = controller.Admit(util::Deadline::Infinite());
    ASSERT_TRUE(ticket.ok());
  }
  // Pooled ParallelFor (2 threads forces the pooled path regardless of
  // the host's core count).
  {
    util::ThreadPool pool(2);
    std::atomic<int> sum{0};
    pool.ParallelFor(8, 0, [&](size_t, size_t item) {
      sum.fetch_add(static_cast<int>(item));
    });
    EXPECT_EQ(sum.load(), 28);
  }
  // Dynamic base delta + compaction.
  {
    core::DynamicShapeBase dynamic_base;
    ASSERT_TRUE(dynamic_base.Insert(RegularPolygon(6, 1.0), 0).ok());
    ASSERT_TRUE(dynamic_base.Compact().ok());
  }

  const std::string text =
      ToPrometheusText(MetricRegistry::Default().Snapshot());
  AssertParsesAsPrometheus(text);
  for (const char* family :
       {"geosir_matcher_queries_total", "geosir_matcher_latency_seconds",
        "geosir_matcher_terminations_total", "geosir_storage_buffer_hits_total",
        "geosir_storage_buffer_misses_total", "geosir_admission_admitted_total",
        "geosir_admission_wait_seconds", "geosir_threadpool_jobs_total",
        "geosir_threadpool_job_seconds", "geosir_dynamic_inserts_total",
        "geosir_dynamic_compactions_total", "geosir_geom_kernel_level",
        "geosir_geom_kernel_batched_edges_total"}) {
    EXPECT_NE(text.find(std::string("# TYPE ") + family + " "),
              std::string::npos)
        << "missing metric family: " << family;
  }
  // The JSONL export of the same snapshot renders one object per line.
  const std::string jsonl = ToJsonLines(MetricRegistry::Default().Snapshot());
  std::istringstream in(jsonl);
  std::string line;
  size_t lines = 0;
  while (std::getline(in, line)) {
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_NE(line.find("\"metric\":\"geosir_"), std::string::npos) << line;
    ++lines;
  }
  EXPECT_GT(lines, 10u);
}

TEST(EndToEndMetricsTest, ReplicationFamiliesPublishToDefaultRegistry) {
  storage::MemEnv env;
  replication::ReplicatedOptions options;
  options.env = &env;
  options.base.min_compaction_size = 1u << 20;  // Rotations stay explicit.
  options.start_replication = false;            // Step followers inline.
  std::vector<replication::ReplicaSpec> replicas;
  replicas.emplace_back();
  replicas.back().dir = "replica0";
  auto tier = replication::ReplicatedShapeBase::Open("primary",
                                                     std::move(replicas),
                                                     options);
  ASSERT_TRUE(tier.ok()) << tier.status().message();
  for (uint64_t i = 0; i < 6; ++i) {
    ASSERT_TRUE(
        (*tier)->Insert(RegularPolygon(5 + static_cast<int>(i) % 4, 1.0), 0)
            .ok());
  }
  ASSERT_TRUE((*tier)->WaitForCatchUp().ok());
  // An explicit compaction rotates the generation, exercising the
  // follower's in-stream rotation counters; the reopen after Stop() is
  // what publishes the recovery families for a non-empty directory.
  ASSERT_TRUE((*tier)->Compact().ok());
  ASSERT_TRUE((*tier)->WaitForCatchUp().ok());
  std::vector<core::MatchStats> stats;
  auto results = (*tier)->MatchBatch({RegularPolygon(5, 1.0)}, 1, &stats);
  ASSERT_TRUE(results.ok());
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_TRUE(stats[0].replicated);

  const std::string text =
      ToPrometheusText(MetricRegistry::Default().Snapshot());
  AssertParsesAsPrometheus(text);
  for (const char* family :
       {// Satellite: durable-recovery counters surfaced through obs.
        "geosir_recoveries_total", "geosir_recovery_salvaged_total",
        "geosir_recovery_dirty_tail_rotations_total",
        "geosir_recovery_reinitialized_total", "geosir_recovery_generation",
        // Per-replica replication pipeline.
        "geosir_replication_applied_records_total",
        "geosir_replication_apply_batches_total",
        "geosir_replication_rotations_total",
        "geosir_replication_queries_total", "geosir_replication_lag_records",
        "geosir_replication_applied_lsn", "geosir_replication_apply_seconds",
        // Lag-aware batch router.
        "geosir_router_batches_total", "geosir_router_redirected_total",
        "geosir_router_stale_served_total", "geosir_router_shed_total",
        "geosir_router_exhausted_total"}) {
    EXPECT_NE(text.find(std::string("# TYPE ") + family + " "),
              std::string::npos)
        << "missing metric family: " << family;
  }
  // Replication series are labeled per replica.
  EXPECT_NE(text.find("replica=\"0\""), std::string::npos);
}

TEST(EndToEndMetricsTest, NetTransportFamiliesPublishToDefaultRegistry) {
  storage::MemEnv env;
  storage::DurabilityOptions durability;
  durability.env = &env;
  auto opened = storage::OpenDurableDynamicBase(
      "netprimary", core::DynamicShapeBase::Options{}, durability);
  ASSERT_TRUE(opened.ok()) << opened.status().message();
  auto primary =
      std::make_unique<storage::DurableDynamicBase>(std::move(*opened));

  replication::ReplicationServerOptions server_options;
  server_options.env = &env;
  server_options.dir = "netprimary";
  server_options.journal = primary->journal.get();
  auto server = replication::ReplicationServer::Start(server_options);
  ASSERT_TRUE(server.ok()) << server.status().message();

  replication::SocketTransportOptions transport_options;
  transport_options.host = "127.0.0.1";
  transport_options.port = (*server)->port();
  transport_options.reconnect = replication::DefaultReconnectPolicy(7);
  transport_options.reconnect.base_backoff_us = 200;
  transport_options.reconnect.max_backoff_us = 5000;
  replication::SocketLogTransport transport(transport_options);

  replication::FollowerOptions follower_options;
  follower_options.env = &env;
  follower_options.dir = "netreplica0";
  follower_options.reconnect.base_backoff_us = 200;
  follower_options.reconnect.max_backoff_us = 5000;
  auto follower =
      replication::Follower::Open(std::move(follower_options), &transport);
  ASSERT_TRUE(follower.ok()) << follower.status().message();

  for (uint64_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(
        primary->base->Insert(RegularPolygon(4 + static_cast<int>(i) % 3, 1.0),
                              0)
            .ok());
  }
  const uint64_t tail = primary->journal->tail_state().next_lsn;
  for (int round = 0; round < 100 && (*follower)->applied_lsn() < tail;
       ++round) {
    ASSERT_TRUE((*follower)->Pump().ok());
  }
  EXPECT_EQ((*follower)->applied_lsn(), tail);

  // Stopping the server makes the next pump fail after retries, which
  // publishes the per-code fetch-error counter and sets the last-error
  // gauge — the "why is my follower behind" dashboard path.
  (*server)->Stop();
  auto pump = (*follower)->Pump();
  EXPECT_FALSE(pump.ok());
  EXPECT_EQ((*follower)->status().last_fetch_error,
            util::StatusCode::kUnavailable);
  EXPECT_GT((*follower)->status().counters.fetch_errors, 0u);

  const std::string text =
      ToPrometheusText(MetricRegistry::Default().Snapshot());
  AssertParsesAsPrometheus(text);
  for (const char* family :
       {// Primary-side socket endpoint.
        "geosir_net_server_connections_total",
        "geosir_net_server_active_connections",
        "geosir_net_server_frames_total", "geosir_net_server_bytes_total",
        "geosir_net_server_request_seconds",
        // Client transport.
        "geosir_net_client_connects_total",
        "geosir_net_client_reconnects_total", "geosir_net_client_frames_total",
        "geosir_net_client_bytes_total", "geosir_net_client_call_seconds",
        // Follower transport identity + error surface.
        "geosir_replication_transport_info",
        "geosir_replication_last_fetch_error_code",
        "geosir_replication_fetch_errors_total"}) {
    EXPECT_NE(text.find(std::string("# TYPE ") + family + " "),
              std::string::npos)
        << "missing metric family: " << family;
  }
  // The transport identity gauge carries the endpoint as a label, and
  // the fetch-error counter is split per status code.
  EXPECT_NE(text.find("transport=\"socket://127.0.0.1:"), std::string::npos);
  EXPECT_NE(text.find("geosir_replication_fetch_errors_total{"),
            std::string::npos);
  EXPECT_NE(text.find("code=\"Unavailable\""), std::string::npos);
}

}  // namespace
}  // namespace geosir::obs
