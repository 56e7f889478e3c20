// Experiment §3: geometric hashing as the approximate-matching fallback.
// Sweeps the curve-family size k and reports bucket occupancy, candidate
// counts, retrieval accuracy and query latency; the paper expects
// retrieval logarithmic in the number of curves with a small constant
// number of shapes per curve, and that similar shapes land on the same
// or neighboring curves.

#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "core/envelope_matcher.h"
#include "hashing/geo_hash_index.h"
#include "util/rng.h"
#include "workload/noise.h"
#include "workload/query_set.h"

using geosir::bench::Fmt;
using geosir::bench::FmtInt;
using geosir::bench::JsonLine;
using geosir::bench::Table;
using geosir::bench::Timer;

namespace {

/// Fraction of the exact top-k shape ids the index's top-k recovered.
double RecallAtK(const std::vector<geosir::core::MatchResult>& got,
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

}  // namespace

int main() {
  geosir::workload::ImageBaseSpec spec;
  spec.num_images = static_cast<size_t>(
      geosir::bench::EnvScale("GEOSIR_BENCH_IMAGES", 250));
  spec.num_prototypes = 30;
  spec.instance_noise = 0.01;
  spec.seed = 31415;
  std::printf("building image base (%zu images)...\n", spec.num_images);
  auto generated = geosir::workload::GenerateImageBase(spec);
  if (!generated.ok()) return 1;
  const auto& base = generated->images->shape_base();
  std::printf("base: %zu shapes, %zu copies\n\n", base.NumShapes(),
              base.NumCopies());

  geosir::util::Rng qrng(99);
  const auto queries = geosir::workload::MakeQuerySet(
      generated->prototypes, 30, 0.015, &qrng);

  // Exact envelope top-10 ground truth, so the recall_at_k rows here are
  // directly comparable to bench_lsh_retrieval's (same key names, same
  // definition).
  constexpr size_t kTopK = 10;
  geosir::core::MatchOptions exact_options;
  exact_options.k = kTopK;
  exact_options.measure = geosir::core::MatchMeasure::kDiscreteSymmetric;
  std::vector<std::vector<geosir::core::MatchResult>> truth;
  {
    geosir::core::EnvelopeMatcher matcher(&base);
    for (const auto& qc : queries) {
      auto results = matcher.Match(qc.query, exact_options);
      if (!results.ok()) return 1;
      truth.push_back(*std::move(results));
    }
  }

  // The index's candidates go through the matcher's verifier under the
  // ground truth's measure.
  geosir::core::EnvelopeMatcher matcher(&base);
  geosir::core::MatchStats stats;

  std::printf("=== Curve-family size sweep ===\n");
  Table table({"k curves", "build_ms", "avg bucket", "cand/query",
               "precision@1", "recall@10", "query_ms"});
  for (int k : {10, 25, 50, 100, 200}) {
    geosir::hashing::GeoHashOptions options;
    options.curves_per_quarter = k;
    Timer build_timer;
    auto index = geosir::hashing::GeoHashIndex::Create(&base, options);
    const double build_ms = build_timer.Millis();
    if (!index.ok()) return 1;
    geosir::hashing::GeoHashCandidateSource source(&*index);

    int correct = 0;
    double query_ms = 0.0;
    double candidates = 0.0;
    double recall = 0.0;
    for (size_t q = 0; q < queries.size(); ++q) {
      const auto& qc = queries[q];
      Timer t;
      auto results =
          matcher.MatchCandidates(qc.query, &source, exact_options, &stats);
      query_ms += t.Millis();
      if (!results.ok()) return 1;
      if (!results->empty() &&
          generated->prototype_of_shape[(*results)[0].shape_id] ==
              qc.prototype) {
        ++correct;
      }
      candidates += static_cast<double>(stats.candidates_evaluated);
      recall += RecallAtK(*results, truth[q]);
    }
    table.AddRow({FmtInt(k), Fmt("%.0f", build_ms),
                  Fmt("%.1f", index->AverageBucketOccupancy()),
                  Fmt("%.1f", candidates / queries.size()),
                  Fmt("%.0f%%", 100.0 * correct / queries.size()),
                  Fmt("%.3f", recall / queries.size()),
                  Fmt("%.1f", query_ms / queries.size())});
    JsonLine("hashing_retrieval")
        .Str("tier", "geohash")
        .Int("curves_per_quarter", k)
        .Int("shapes", static_cast<long long>(base.NumShapes()))
        .Int("queries", static_cast<long long>(queries.size()))
        .Int("k", static_cast<long long>(kTopK))
        .Num("recall_at_k", recall / queries.size())
        .Num("candidates_mean", candidates / queries.size())
        .Num("precision_at_1",
             static_cast<double>(correct) / queries.size())
        .Num("e2e_ms_mean", query_ms / queries.size())
        .Num("build_ms", build_ms)
        .Emit();
  }
  table.Print();
  std::printf(
      "\nexpected shape (paper Section 3): occupancy shrinks as the family\n"
      "grows; accuracy stays high once buckets separate prototypes; query\n"
      "cost is dominated by the constant number of candidate evaluations.\n");

  // Curve-family ablation (Section 3: "We have considered different
  // families of conic curves"): the paper's unit-circle arcs vs the
  // simplest alternative, vertical equal-area lines.
  std::printf("\n=== Curve-family ablation (k = 50) ===\n");
  Table family_table({"family", "avg bucket", "cand/query", "precision@1",
                      "query_ms"});
  for (auto kind : {geosir::hashing::CurveFamilyKind::kUnitCircleArcs,
                    geosir::hashing::CurveFamilyKind::kVerticalLines}) {
    geosir::hashing::GeoHashOptions options;
    options.family = kind;
    auto index = geosir::hashing::GeoHashIndex::Create(&base, options);
    if (!index.ok()) return 1;
    geosir::hashing::GeoHashCandidateSource source(&*index);
    geosir::core::MatchOptions top1 = exact_options;
    top1.k = 1;
    int correct = 0;
    double query_ms = 0.0, candidates = 0.0;
    for (const auto& qc : queries) {
      Timer t;
      auto results = matcher.MatchCandidates(qc.query, &source, top1, &stats);
      query_ms += t.Millis();
      if (!results.ok()) return 1;
      if (!results->empty() &&
          generated->prototype_of_shape[(*results)[0].shape_id] ==
              qc.prototype) {
        ++correct;
      }
      candidates += static_cast<double>(stats.candidates_evaluated);
    }
    family_table.AddRow({CurveFamilyKindName(kind),
                         Fmt("%.1f", index->AverageBucketOccupancy()),
                         Fmt("%.1f", candidates / queries.size()),
                         Fmt("%.0f%%", 100.0 * correct / queries.size()),
                         Fmt("%.1f", query_ms / queries.size())});
  }
  family_table.Print();
  std::printf("(the arcs follow the lune geometry; straight lines are a\n"
              "cheaper but coarser partition — the paper explored several\n"
              "conic families before settling on the circles)\n");

  // Neighboring-curve robustness: how far does 1.5% noise move the
  // characteristic curves?
  std::printf("\n=== Curve displacement under noise (k = 50) ===\n");
  auto index = geosir::hashing::GeoHashIndex::Create(&base);
  if (!index.ok()) return 1;
  geosir::util::Rng nrng(7);
  std::vector<size_t> displacement_histogram(6, 0);
  for (const auto& proto : generated->prototypes) {
    auto clean = geosir::core::NormalizeQuery(proto);
    if (!clean.ok()) continue;
    const auto quad_clean =
        ComputeQuadruple(index->family(), clean->shape);
    for (int trial = 0; trial < 5; ++trial) {
      const auto noisy =
          geosir::workload::JitterVertices(proto, 0.015, &nrng);
      auto nq = geosir::core::NormalizeQuery(noisy);
      if (!nq.ok()) continue;
      const auto quad_noisy = ComputeQuadruple(index->family(), nq->shape);
      for (int q = 0; q < 4; ++q) {
        if (quad_clean.c[q] == 0 || quad_noisy.c[q] == 0) continue;
        const size_t d = static_cast<size_t>(
            std::abs(quad_clean.c[q] - quad_noisy.c[q]));
        ++displacement_histogram[std::min<size_t>(d, 5)];
      }
    }
  }
  Table hist({"curve displacement", "fraction"});
  size_t total = 0;
  for (size_t v : displacement_histogram) total += v;
  const char* labels[6] = {"0 (same curve)", "1", "2", "3", "4", "5+"};
  for (int d = 0; d < 6; ++d) {
    hist.AddRow({labels[d],
                 Fmt("%.1f%%", total > 0 ? 100.0 *
                                               displacement_histogram[d] /
                                               total
                                         : 0.0)});
  }
  hist.Print();
  std::printf("expected shape: mass concentrates at displacement 0-1 — "
              "similar shapes hash to the same or neighboring curves.\n");
  return 0;
}
