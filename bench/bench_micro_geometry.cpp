// Micro-benchmarks of the geometric primitives on the matcher's hot
// path. A custom kernel sweep (scalar oracle vs dispatched SIMD batch
// kernel across bucket sizes, JSONL rows via bench_util.h) runs first;
// the google-benchmark suite of per-call costs behind the figures in
// bench_matching_scaling follows: the exact ring-membership test is
// O(m) point-polyline distance, candidate evaluation is O(m^2) discrete
// or quadrature-driven continuous measure, and normalization is hull +
// rotating calipers.
//
// Environment knobs:
//   GEOSIR_BENCH_SMOKE=1           run only a fast kernel-sweep smoke
//   GEOSIR_BENCH_EXPECT_KERNEL=X   exit nonzero unless the dispatcher
//                                  selected kernel X ("scalar"/"avx2");
//                                  CI uses this to pin each job's tier

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/normalize.h"
#include "core/similarity.h"
#include "geom/distance.h"
#include "geom/edge_soa.h"
#include "geom/envelope.h"
#include "geom/kernel_dispatch.h"
#include "util/rng.h"
#include "workload/noise.h"
#include "workload/polygon_gen.h"

namespace {

using geosir::geom::Point;
using geosir::geom::Polyline;

Polyline MakeShape(int vertices, uint64_t seed) {
  geosir::util::Rng rng(seed);
  geosir::workload::PolygonGenOptions gen;
  gen.min_vertices = vertices;
  gen.max_vertices = vertices;
  return RandomStarPolygon(&rng, gen);
}

void BM_PointPolylineDistance(benchmark::State& state) {
  const Polyline shape = MakeShape(static_cast<int>(state.range(0)), 1);
  geosir::util::Rng rng(2);
  std::vector<Point> probes;
  for (int i = 0; i < 256; ++i) {
    probes.push_back({rng.Uniform(-2, 2), rng.Uniform(-2, 2)});
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        geosir::geom::DistancePointPolyline(probes[i++ & 255], shape));
  }
}
BENCHMARK(BM_PointPolylineDistance)->Arg(8)->Arg(20)->Arg(64);

void BM_DiscreteAvgMinDistance(benchmark::State& state) {
  const Polyline a = MakeShape(static_cast<int>(state.range(0)), 3);
  const Polyline b = MakeShape(static_cast<int>(state.range(0)), 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(geosir::core::DiscreteAvgMinDistance(a, b));
  }
}
BENCHMARK(BM_DiscreteAvgMinDistance)->Arg(8)->Arg(20)->Arg(64);

void BM_ContinuousAvgMinDistance(benchmark::State& state) {
  const Polyline a = MakeShape(static_cast<int>(state.range(0)), 5);
  const Polyline b = MakeShape(static_cast<int>(state.range(0)), 6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(geosir::core::AvgMinDistance(a, b));
  }
}
BENCHMARK(BM_ContinuousAvgMinDistance)->Arg(8)->Arg(20)->Arg(64);

void BM_NormalizeQuery(benchmark::State& state) {
  const Polyline shape = MakeShape(static_cast<int>(state.range(0)), 7);
  for (auto _ : state) {
    auto result = geosir::core::NormalizeQuery(shape);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_NormalizeQuery)->Arg(8)->Arg(20)->Arg(64);

void BM_NormalizeShapeAllAxes(benchmark::State& state) {
  geosir::core::Shape shape;
  shape.boundary = MakeShape(static_cast<int>(state.range(0)), 8);
  for (auto _ : state) {
    auto result = geosir::core::NormalizeShape(shape);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_NormalizeShapeAllAxes)->Arg(8)->Arg(20)->Arg(64);

void BM_BuildEnvelopeRingCover(benchmark::State& state) {
  auto normalized = geosir::core::NormalizeQuery(MakeShape(20, 9));
  const Polyline& q = normalized->shape;
  for (auto _ : state) {
    auto cover = geosir::geom::BuildEnvelopeRingCover(q, 0.01, 0.02);
    benchmark::DoNotOptimize(cover);
  }
}
BENCHMARK(BM_BuildEnvelopeRingCover);

void BM_EnvelopeRingMembership(benchmark::State& state) {
  auto normalized = geosir::core::NormalizeQuery(MakeShape(20, 10));
  const Polyline& q = normalized->shape;
  geosir::util::Rng rng(11);
  std::vector<Point> probes;
  for (int i = 0; i < 256; ++i) {
    probes.push_back({rng.Uniform(-0.2, 1.2), rng.Uniform(-1, 1)});
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        geosir::geom::InEnvelopeRing(q, probes[i++ & 255], 0.01, 0.02));
  }
}
BENCHMARK(BM_EnvelopeRingMembership);

// ---------------------------------------------------------------------------
// Kernel sweep: single-thread batch point-to-segment throughput of the
// scalar oracle vs the dispatched kernel, across bucket sizes spanning a
// grid cell (~8 edges) to a whole mid-sized shape (1024 edges). Both
// sides run the identical canonical arithmetic, so the ratio isolates
// the SIMD win (plus the SoA layout's streaming loads).
// ---------------------------------------------------------------------------

double SweepOnce(const geosir::geom::EdgeSpanView& span,
                 const std::vector<Point>& probes, long long reps,
                 bool dispatched, double* checksum) {
  geosir::bench::Timer timer;
  double folded = 0.0;
  for (long long r = 0; r < reps; ++r) {
    const Point p = probes[static_cast<size_t>(r) & (probes.size() - 1)];
    folded += dispatched ? geosir::geom::BatchMinDistanceSq(span, p)
                         : geosir::geom::BatchMinDistanceSqScalar(span, p);
  }
  *checksum += folded;  // Defeats dead-code elimination across calls.
  return timer.Seconds();
}

int RunKernelSweep(bool smoke) {
  using geosir::bench::Fmt;
  using geosir::bench::FmtInt;
  using geosir::bench::JsonLine;
  using geosir::bench::Table;

  const char* selected =
      geosir::geom::KernelLevelName(geosir::geom::ActiveKernelLevel());
  std::printf("batch kernel: selected=%s cpu_avx2=%d compiled_avx2=%d\n",
              selected, geosir::geom::CpuSupportsAvx2Kernel() ? 1 : 0,
              geosir::geom::internal::Avx2KernelCompiledIn() ? 1 : 0);
  if (const char* want = std::getenv("GEOSIR_BENCH_EXPECT_KERNEL")) {
    if (std::strcmp(want, selected) != 0) {
      std::fprintf(stderr,
                   "FATAL: expected kernel '%s' but dispatcher selected '%s'\n",
                   want, selected);
      return 1;
    }
    std::printf("kernel selection matches GEOSIR_BENCH_EXPECT_KERNEL=%s\n",
                want);
  }

  geosir::util::Rng rng(42);
  std::vector<Point> probes;
  for (int i = 0; i < 256; ++i) {
    probes.push_back({rng.Uniform(-2, 2), rng.Uniform(-2, 2)});
  }
  const double edge_evals_target = smoke ? 2e6 : 2e8;
  double checksum = 0.0;
  Table table({"edges", "scalar Medges/s", "simd Medges/s", "speedup"});
  for (int edges : {8, 16, 32, 64, 128, 256, 512, 1024}) {
    const geosir::geom::EdgeSoA soa(MakeShape(edges, 1000 + edges));
    const geosir::geom::EdgeSpanView span = soa.PaddedView();
    const long long reps =
        std::max<long long>(64, static_cast<long long>(edge_evals_target) /
                                    edges);
    // Warm-up pass, then measure.
    SweepOnce(span, probes, reps / 8 + 1, true, &checksum);
    SweepOnce(span, probes, reps / 8 + 1, false, &checksum);
    const double scalar_s = SweepOnce(span, probes, reps, false, &checksum);
    const double simd_s = SweepOnce(span, probes, reps, true, &checksum);
    const double scalar_rate =
        static_cast<double>(reps) * edges / std::max(scalar_s, 1e-12);
    const double simd_rate =
        static_cast<double>(reps) * edges / std::max(simd_s, 1e-12);
    const double speedup = simd_rate / std::max(scalar_rate, 1e-12);
    table.AddRow({FmtInt(edges), Fmt("%.1f", scalar_rate / 1e6),
                  Fmt("%.1f", simd_rate / 1e6), Fmt("%.2fx", speedup)});
    JsonLine("bench_micro_geometry")
        .Str("name", "kernel_sweep")
        .Str("kernel_selected", selected)
        .Int("edges", edges)
        .Num("scalar_edges_per_s", scalar_rate)
        .Num("simd_edges_per_s", simd_rate)
        .Num("speedup", speedup)
        .Emit();
  }
  table.Print();
  if (checksum == 12345.6789) std::printf("(unreachable checksum)\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = geosir::bench::EnvScale("GEOSIR_BENCH_SMOKE", 0) == 1;
  const int sweep_status = RunKernelSweep(smoke);
  if (sweep_status != 0) return sweep_status;
  if (smoke) return 0;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
