// Experiment §2.5: scaling of the envelope-fattening matcher with the
// shape-base size. The paper proves an expected O(log^4 n) bound and
// reports that practice is much better; the observable shape is that
// query cost grows poly-logarithmically in the total vertex count n
// while a linear scan grows linearly.
//
// Design: the number of prototypes grows with the base so the number of
// true matches per query stays constant; only the index has to work
// harder. Query cost is reported for the kd-tree backend and for the
// O(log n + k) range tree with fractional cascading, against the exact
// tier: MatchCandidates over ExactEnumerationSource with the same
// options, i.e. the early-abandoning verifier over every stored copy.

#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "core/candidate_source.h"
#include "core/envelope_matcher.h"
#include "core/shape_base.h"
#include "geom/kernel_dispatch.h"
#include "util/rng.h"
#include "workload/noise.h"
#include "workload/polygon_gen.h"

using geosir::bench::Fmt;
using geosir::bench::FmtInt;
using geosir::bench::JsonLine;
using geosir::bench::Table;
using geosir::bench::Timer;
using geosir::geom::Polyline;

namespace {

struct BuiltBase {
  std::unique_ptr<geosir::core::ShapeBase> base;
  std::vector<Polyline> prototypes;
  double build_seconds = 0.0;
};

BuiltBase BuildBase(size_t num_shapes, geosir::core::IndexBackend backend,
                    uint64_t seed) {
  geosir::util::Rng rng(seed);
  BuiltBase out;
  geosir::core::ShapeBaseOptions options;
  options.backend = backend;
  options.normalize.max_axes = 5;  // ~10 copies/shape like the paper.
  out.base = std::make_unique<geosir::core::ShapeBase>(options);

  const size_t instances_per_proto = 10;
  const size_t num_protos =
      std::max<size_t>(4, num_shapes / instances_per_proto);
  geosir::workload::PolygonGenOptions gen;
  for (size_t p = 0; p < num_protos; ++p) {
    out.prototypes.push_back(RandomStarPolygon(&rng, gen));
  }
  Timer t;
  for (size_t s = 0; s < num_shapes; ++s) {
    const Polyline instance = geosir::workload::JitterVertices(
        out.prototypes[s % num_protos], 0.008, &rng);
    (void)out.base->AddShape(instance);
  }
  (void)out.base->Finalize();
  out.build_seconds = t.Seconds();
  return out;
}

}  // namespace

int main() {
  const long long max_shapes =
      geosir::bench::EnvScale("GEOSIR_BENCH_MAX_SHAPES", 8000);
  std::vector<size_t> sizes;
  for (size_t s = 250; s <= static_cast<size_t>(max_shapes); s *= 2) {
    sizes.push_back(s);
  }
  const int kQueries = 8;

  for (auto backend : {geosir::core::IndexBackend::kKdTree,
                       geosir::core::IndexBackend::kRangeTree}) {
    std::printf("=== Matcher scaling, backend = %s ===\n",
                IndexBackendName(backend));
    Table table({"shapes", "vertices n", "build_s", "query_ms", "iters",
                 "reported", "exact_ms", "exact/query"});
    for (size_t num_shapes : sizes) {
      BuiltBase built = BuildBase(num_shapes, backend, 42);
      geosir::core::EnvelopeMatcher matcher(built.base.get());
      geosir::core::ExactEnumerationSource exhaustive(built.base.get());
      geosir::util::Rng qrng(7);

      geosir::core::MatchOptions options;
      options.measure = geosir::core::MatchMeasure::kDiscreteSymmetric;

      double query_ms = 0.0, exact_ms = 0.0;
      double iters = 0.0, reported = 0.0;
      for (int q = 0; q < kQueries; ++q) {
        const Polyline query = geosir::workload::JitterVertices(
            built.prototypes[q % built.prototypes.size()], 0.008, &qrng);
        geosir::core::MatchStats stats;
        Timer t;
        auto results = matcher.Match(query, options, &stats);
        query_ms += t.Millis();
        if (!results.ok() || results->empty()) {
          std::fprintf(stderr, "query failed at %zu shapes\n", num_shapes);
        }
        iters += static_cast<double>(stats.iterations);
        reported += static_cast<double>(stats.vertices_reported);

        // Exact-tier baseline: every copy through the verifier.
        Timer et;
        auto exact = matcher.MatchCandidates(query, &exhaustive, options);
        exact_ms += et.Millis();
        if (!exact.ok()) {
          std::fprintf(stderr, "exact tier failed at %zu shapes\n", num_shapes);
        }
      }
      query_ms /= kQueries;
      exact_ms /= kQueries;
      table.AddRow({FmtInt(static_cast<long long>(num_shapes)),
                    FmtInt(static_cast<long long>(built.base->NumVertices())),
                    Fmt("%.2f", built.build_seconds), Fmt("%.2f", query_ms),
                    Fmt("%.1f", iters / kQueries),
                    Fmt("%.0f", reported / kQueries), Fmt("%.2f", exact_ms),
                    Fmt("%.2fx", exact_ms / std::max(query_ms, 1e-9))});
      JsonLine("bench_matching_scaling")
          .Str("backend", IndexBackendName(backend))
          .Str("kernel",
               geosir::geom::KernelLevelName(geosir::geom::ActiveKernelLevel()))
          .Int("shapes", static_cast<long long>(num_shapes))
          .Int("vertices", static_cast<long long>(built.base->NumVertices()))
          .Num("build_seconds", built.build_seconds)
          .Num("query_ms", query_ms)
          .Num("exact_ms", exact_ms)
          .Num("queries_per_second",
               query_ms > 0.0 ? 1e3 / query_ms : 0.0)
          .Emit();
    }
    table.Print();
    std::printf("\n");
  }
  std::printf(
      "expected shape (paper): query_ms grows far slower than n (poly-log)\n"
      "while exact_ms grows linearly; exact/query < 1 means the exact tier\n"
      "is the faster one at that size.\n");
  return 0;
}
