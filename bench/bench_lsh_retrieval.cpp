// Tiered retrieval (DESIGN.md section 14): the approximate LSH pre-filter
// against envelope search, the geometric-hashing tier and the exact tier
// (every copy through the verifier, which is also the ground truth), all
// behind the shared CandidateSource seam. Reports per tier:
//   - recall@10 against the exact tier's ranking,
//   - candidate-set size (what the exact verifier must score),
//   - candidate-generation latency alone (the pre-filter probe),
//   - end-to-end latency, mean and p50 (generation + exact verification).
// Scale with GEOSIR_BENCH_SHAPES (default 2000 for CI smoke; the
// committed BENCH_lsh_retrieval.jsonl rows run 100000) and
// GEOSIR_BENCH_QUERIES.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench/bench_util.h"
#include "core/candidate_source.h"
#include "core/envelope_matcher.h"
#include "core/normalize.h"
#include "core/shape_base.h"
#include "hashing/geo_hash_index.h"
#include "lsh/lsh_index.h"
#include "util/rng.h"
#include "workload/noise.h"
#include "workload/polygon_gen.h"

using geosir::bench::EnvScale;
using geosir::bench::Fmt;
using geosir::bench::FmtInt;
using geosir::bench::JsonLine;
using geosir::bench::Table;
using geosir::bench::Timer;

namespace {

constexpr size_t kTopK = 10;

struct TierOutcome {
  std::string tier;
  double build_ms = 0.0;
  double recall_sum = 0.0;
  double candidates_sum = 0.0;
  double gen_ms_sum = 0.0;
  std::vector<double> e2e_ms;  // One sample per query.

  double E2eMean() const {
    double sum = 0.0;
    for (double ms : e2e_ms) sum += ms;
    return e2e_ms.empty() ? 0.0 : sum / static_cast<double>(e2e_ms.size());
  }
  double E2eP50() const {
    if (e2e_ms.empty()) return 0.0;
    std::vector<double> sorted = e2e_ms;
    std::sort(sorted.begin(), sorted.end());
    const size_t mid = sorted.size() / 2;
    return sorted.size() % 2 == 1 ? sorted[mid]
                                  : 0.5 * (sorted[mid - 1] + sorted[mid]);
  }
};

double Recall(const std::vector<geosir::core::MatchResult>& got,
              const std::vector<geosir::core::MatchResult>& truth) {
  if (truth.empty()) return 1.0;
  size_t hits = 0;
  for (const auto& t : truth) {
    for (const auto& g : got) {
      if (g.shape_id == t.shape_id) {
        ++hits;
        break;
      }
    }
  }
  return static_cast<double>(hits) / static_cast<double>(truth.size());
}

void EmitRow(const TierOutcome& o, size_t shapes, double envelope_ms_mean) {
  const double n = std::max<double>(1.0, static_cast<double>(o.e2e_ms.size()));
  const double e2e_mean = o.E2eMean();
  JsonLine("lsh_retrieval")
      .Str("tier", o.tier)
      .Int("shapes", static_cast<long long>(shapes))
      .Int("queries", static_cast<long long>(o.e2e_ms.size()))
      .Int("k", static_cast<long long>(kTopK))
      .Num("recall_at_k", o.recall_sum / n)
      .Num("candidates_mean", o.candidates_sum / n)
      .Num("candgen_ms_mean", o.gen_ms_sum / n)
      .Num("e2e_ms_mean", e2e_mean)
      .Num("e2e_ms_p50", o.E2eP50())
      .Num("build_ms", o.build_ms)
      .Num("speedup_vs_envelope",
           e2e_mean > 0.0 ? envelope_ms_mean / e2e_mean : 0.0)
      .Emit();
}

}  // namespace

int main() {
  const size_t n_shapes =
      static_cast<size_t>(EnvScale("GEOSIR_BENCH_SHAPES", 2000));
  const size_t n_queries =
      static_cast<size_t>(EnvScale("GEOSIR_BENCH_QUERIES", 25));
  // kTopK instances per prototype: the exact top-k for a query is then
  // its prototype's instance set, so recall@k measures instance
  // retrieval as a set. (With many more instances than k the exact top-k
  // becomes a tie-breaking lottery among near-duplicates — sub-1%
  // distance differences decided by alternative-axis copies — and no
  // single-probe candidate tier can win it.)
  const size_t n_protos = std::max<size_t>(20, n_shapes / kTopK);
  const size_t instances = std::max<size_t>(1, n_shapes / n_protos);

  geosir::util::Rng rng(2718);
  geosir::workload::PolygonGenOptions polygon_options;
  polygon_options.min_vertices = 8;
  polygon_options.max_vertices = 16;
  std::vector<geosir::geom::Polyline> protos;
  protos.reserve(n_protos);
  for (size_t p = 0; p < n_protos; ++p) {
    protos.push_back(
        geosir::workload::RandomStarPolygon(&rng, polygon_options));
  }

  std::printf("building shape base (%zu prototypes x %zu instances)...\n",
              n_protos, instances);
  // Star polygons carry many near-equal diameters. The stored axis count
  // is THE recall lever for every single-probe candidate tier: a query is
  // normalized about its own jittered diameter, and an instance is only
  // reachable if that axis is among its stored alpha-diameters — too few
  // axes and no aligned copy exists, so no sketch or curve can collide.
  geosir::core::ShapeBaseOptions base_options;
  base_options.normalize.max_axes = static_cast<size_t>(
      EnvScale("GEOSIR_BENCH_MAX_AXES", 8));
  geosir::core::ShapeBase base(base_options);
  Timer base_timer;
  for (size_t p = 0; p < n_protos; ++p) {
    for (size_t i = 0; i < instances; ++i) {
      const auto shape =
          geosir::workload::JitterVertices(protos[p], 0.01, &rng);
      if (!base.AddShape(shape).ok()) return 1;
    }
  }
  if (!base.Finalize().ok()) return 1;
  std::printf("base: %zu shapes, %zu copies, built in %.0f ms\n\n",
              base.NumShapes(), base.NumCopies(), base_timer.Millis());

  std::vector<geosir::geom::Polyline> queries;
  queries.reserve(n_queries);
  for (size_t q = 0; q < n_queries; ++q) {
    queries.push_back(geosir::workload::JitterVertices(
        protos[q % n_protos], 0.012, &rng));
  }

  geosir::core::MatchOptions match_options;
  match_options.k = kTopK;
  match_options.measure = geosir::core::MatchMeasure::kDiscreteSymmetric;

  // Ground truth and the exact tier in one timed pass: brute-force
  // ranking (every copy verified under options.measure via the exhaustive
  // CandidateSource). NOT the envelope search — its max_epsilon bound
  // A / (2 p l_Q) * log^3 n shrinks as the base densifies, and above
  // ~10^4 shapes of this workload it drops below the jitter amplitude, so
  // the envelope admits almost nothing and its result list stops being a
  // usable reference. The envelope tier below is scored against this
  // truth like the others, which makes that density cliff visible in its
  // recall column.
  std::vector<std::vector<geosir::core::MatchResult>> truth(n_queries);
  TierOutcome exact;
  exact.tier = "exact";
  {
    geosir::core::ExactEnumerationSource exhaustive(&base);
    geosir::core::EnvelopeMatcher matcher(&base);
    std::printf("computing brute-force ground truth...\n");
    for (size_t q = 0; q < n_queries; ++q) {
      Timer t;
      auto results =
          matcher.MatchCandidates(queries[q], &exhaustive, match_options);
      exact.e2e_ms.push_back(t.Millis());
      if (!results.ok()) return 1;
      truth[q] = *std::move(results);
      exact.candidates_sum += static_cast<double>(base.NumCopies());
      exact.recall_sum += 1.0;
    }
  }

  // --- Tier 0: envelope search with production defaults. ---------------
  TierOutcome envelope;
  envelope.tier = "envelope";
  {
    geosir::core::EnvelopeMatcher matcher(&base);
    for (size_t q = 0; q < n_queries; ++q) {
      geosir::core::MatchStats stats;
      Timer t;
      auto results = matcher.Match(queries[q], match_options, &stats);
      envelope.e2e_ms.push_back(t.Millis());
      if (!results.ok()) return 1;
      envelope.candidates_sum +=
          static_cast<double>(stats.candidates_evaluated);
      envelope.recall_sum += Recall(*results, truth[q]);
    }
  }
  const double envelope_ms_mean = envelope.E2eMean();

  // --- Tier 1: LSH pre-filter -> exact verification. -------------------
  TierOutcome lsh;
  lsh.tier = "lsh";
  {
    geosir::lsh::LshOptions options;
    // Env overrides for parameter sweeps (defaults = LshOptions defaults).
    options.tables = static_cast<int>(
        EnvScale("GEOSIR_LSH_TABLES", options.tables));
    options.bands = static_cast<int>(
        EnvScale("GEOSIR_LSH_BANDS", options.bands));
    options.rows = static_cast<int>(EnvScale("GEOSIR_LSH_ROWS", options.rows));
    options.quantum =
        static_cast<double>(EnvScale(
            "GEOSIR_LSH_QUANTUM_MILLI",
            static_cast<long long>(options.quantum * 1000.0))) /
        1000.0;
    Timer build;
    auto source = geosir::lsh::LshCandidateSource::Build(&base, options);
    lsh.build_ms = build.Millis();
    if (!source.ok()) return 1;

    // Probe latency alone: the sub-ms claim is about candidate
    // generation, not verification.
    geosir::util::QueryControl control;
    for (size_t q = 0; q < n_queries; ++q) {
      auto norm = geosir::core::NormalizeQuery(queries[q]);
      if (!norm.ok()) return 1;
      std::vector<uint64_t> out;
      geosir::lsh::LshIndex::QueryStats stats;
      Timer t;
      if (!(*source)->index().Query(norm->shape, 0, control, &out, &stats)
               .ok()) {
        return 1;
      }
      lsh.gen_ms_sum += t.Millis();
      lsh.candidates_sum += static_cast<double>(out.size());
    }

    geosir::core::EnvelopeMatcher matcher(&base);
    for (size_t q = 0; q < n_queries; ++q) {
      Timer t;
      auto results =
          matcher.MatchCandidates(queries[q], source->get(), match_options);
      lsh.e2e_ms.push_back(t.Millis());
      if (!results.ok()) return 1;
      lsh.recall_sum += Recall(*results, truth[q]);
    }
  }

  // --- Tier 2: geometric hashing through the same seam. ----------------
  TierOutcome geohash;
  geohash.tier = "geohash";
  {
    Timer build;
    auto index = geosir::hashing::GeoHashIndex::Create(&base);
    geohash.build_ms = build.Millis();
    if (!index.ok()) return 1;
    geosir::hashing::GeoHashCandidateSource source(&*index);

    for (size_t q = 0; q < n_queries; ++q) {
      auto norm = geosir::core::NormalizeQuery(queries[q]);
      if (!norm.ok()) return 1;
      std::vector<uint32_t> out;
      geosir::core::CandidateSourceStats stats;
      Timer t;
      if (!source.Generate(norm->shape, 0, {}, &out, &stats).ok()) return 1;
      geohash.gen_ms_sum += t.Millis();
      geohash.candidates_sum += static_cast<double>(out.size());
    }

    geosir::core::EnvelopeMatcher matcher(&base);
    for (size_t q = 0; q < n_queries; ++q) {
      Timer t;
      auto results =
          matcher.MatchCandidates(queries[q], &source, match_options);
      geohash.e2e_ms.push_back(t.Millis());
      if (!results.ok()) return 1;
      geohash.recall_sum += Recall(*results, truth[q]);
    }
  }

  std::printf("=== Tiered retrieval at %zu shapes (%zu queries, k=%zu) ===\n",
              base.NumShapes(), n_queries, kTopK);
  Table table({"tier", "build_ms", "recall@10", "cand/query", "candgen_ms",
               "e2e_ms", "e2e_p50_ms", "speedup"});
  for (const TierOutcome* o : {&envelope, &lsh, &geohash, &exact}) {
    const double n = std::max<size_t>(1, o->e2e_ms.size());
    table.AddRow({o->tier, Fmt("%.0f", o->build_ms),
                  Fmt("%.3f", o->recall_sum / n),
                  Fmt("%.0f", o->candidates_sum / n),
                  Fmt("%.3f", o->gen_ms_sum / n),
                  Fmt("%.2f", o->E2eMean()), Fmt("%.2f", o->E2eP50()),
                  Fmt("%.2fx", o->E2eMean() > 0.0
                                   ? envelope_ms_mean / o->E2eMean()
                                   : 0.0)});
    EmitRow(*o, base.NumShapes(), envelope_ms_mean);
  }
  table.Print();
  std::printf(
      "\nexpected shape: the LSH probe is sub-millisecond and emits a\n"
      "candidate set orders of magnitude below the base size; exact\n"
      "verification over it recovers recall@10 >= 0.9 while beating the\n"
      "pure envelope search end to end.\n");
  return 0;
}
