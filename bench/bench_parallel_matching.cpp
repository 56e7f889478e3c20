// Parallel query engine benchmark: batched matching throughput. MatchBatch
// over a >= 10k-shape base at 1 vs 8 threads (GEOSIR_BENCH_THREADS
// overrides), verifying the deterministic-merge contract: per-query
// results bit-identical across thread counts. Scale with
// GEOSIR_BENCH_SHAPES / GEOSIR_BENCH_QUERIES.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "core/envelope_matcher.h"
#include "core/shape_base.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "workload/noise.h"
#include "workload/polygon_gen.h"

using geosir::bench::Fmt;
using geosir::bench::FmtInt;
using geosir::bench::JsonLine;
using geosir::bench::Table;
using geosir::bench::Timer;
using geosir::geom::Polyline;

namespace {

constexpr const char* kBench = "bench_parallel_matching";

void BenchBatchedMatching() {
  const size_t num_shapes = static_cast<size_t>(
      geosir::bench::EnvScale("GEOSIR_BENCH_SHAPES", 10000));
  const size_t num_queries = static_cast<size_t>(
      geosir::bench::EnvScale("GEOSIR_BENCH_QUERIES", 64));
  const size_t max_threads = static_cast<size_t>(
      geosir::bench::EnvScale("GEOSIR_BENCH_THREADS", 8));

  std::printf("=== Batched matching, %zu shapes, %zu queries ===\n",
              num_shapes, num_queries);
  geosir::util::Rng rng(42);
  geosir::core::ShapeBaseOptions base_options;
  base_options.normalize.max_axes = 5;
  geosir::core::ShapeBase base(base_options);
  geosir::workload::PolygonGenOptions gen;
  std::vector<Polyline> prototypes;
  const size_t num_protos = std::max<size_t>(4, num_shapes / 10);
  for (size_t p = 0; p < num_protos; ++p) {
    prototypes.push_back(RandomStarPolygon(&rng, gen));
  }
  Timer build_timer;
  for (size_t s = 0; s < num_shapes; ++s) {
    (void)base.AddShape(geosir::workload::JitterVertices(
        prototypes[s % num_protos], 0.008, &rng));
  }
  (void)base.Finalize();
  std::printf("build: %.2f s, %zu pooled vertices\n", build_timer.Seconds(),
              base.NumVertices());

  geosir::util::Rng qrng(7);
  std::vector<Polyline> queries;
  for (size_t q = 0; q < num_queries; ++q) {
    queries.push_back(geosir::workload::JitterVertices(
        prototypes[q % num_protos], 0.01, &qrng));
  }

  geosir::core::MatchOptions options;
  options.measure = geosir::core::MatchMeasure::kContinuousSymmetric;
  options.k = 3;

  Table table({"threads", "wall_s", "queries/s", "speedup", "identical"});
  double serial_seconds = 0.0;
  std::vector<std::vector<geosir::core::MatchResult>> serial_results;
  std::vector<size_t> thread_counts{1};
  for (size_t t = 2; t <= max_threads; t *= 2) thread_counts.push_back(t);

  for (size_t threads : thread_counts) {
    geosir::util::ThreadPool pool(threads);
    options.num_threads = threads;
    options.pool = &pool;
    Timer timer;
    auto results = base.MatchBatch(queries, options);
    const double seconds = timer.Seconds();
    if (!results.ok()) {
      std::fprintf(stderr, "MatchBatch failed: %s\n",
                   results.status().ToString().c_str());
      return;
    }
    bool identical = true;
    if (threads == 1) {
      serial_seconds = seconds;
      serial_results = *std::move(results);
    } else {
      identical = results->size() == serial_results.size();
      for (size_t i = 0; identical && i < serial_results.size(); ++i) {
        identical = (*results)[i].size() == serial_results[i].size();
        for (size_t r = 0; identical && r < serial_results[i].size(); ++r) {
          const auto& a = serial_results[i][r];
          const auto& b = (*results)[i][r];
          identical = a.shape_id == b.shape_id && a.distance == b.distance &&
                      a.copy_index == b.copy_index;
        }
      }
    }
    const double qps =
        seconds > 0.0 ? static_cast<double>(num_queries) / seconds : 0.0;
    const double speedup = serial_seconds / std::max(seconds, 1e-9);
    table.AddRow({FmtInt(static_cast<long long>(threads)),
                  Fmt("%.3f", seconds), Fmt("%.1f", qps),
                  Fmt("%.2fx", speedup), identical ? "yes" : "NO"});
    JsonLine(kBench)
        .Str("name", "batched_matching")
        .Int("threads", static_cast<long long>(threads))
        .Int("shapes", static_cast<long long>(num_shapes))
        .Int("queries", static_cast<long long>(num_queries))
        .Num("seconds", seconds)
        .Num("queries_per_second", qps)
        .Num("speedup_vs_serial", speedup)
        .Int("identical_to_serial", identical ? 1 : 0)
        .Emit();
    if (!identical) {
      std::fprintf(stderr,
                   "FAIL: parallel results differ from serial results\n");
    }
  }
  table.Print();
  std::printf(
      "\nexpected: near-linear batched-matching speedup up to the physical\n"
      "core count, with the identical column always 'yes' (deterministic\n"
      "merge; this host reports %u hardware threads).\n",
      std::thread::hardware_concurrency());
}

}  // namespace

int main() {
  BenchBatchedMatching();
  return 0;
}
