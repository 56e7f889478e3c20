// Sketch search: the GeoSIR interaction loop of Section 6.
//
// A user "draws" query sketches of varying quality against a generated
// image base. Each sketch first goes through the exact envelope-fattening
// matcher; if nothing lands within the envelope bound, the system falls
// back to geometric hashing for an approximate match — exactly the
// two-stage flow the paper's prototype implements.

#include <cstdio>
#include <vector>

#include "core/envelope_matcher.h"
#include "hashing/geo_hash_index.h"
#include "util/rng.h"
#include "workload/noise.h"
#include "workload/polygon_gen.h"
#include "workload/query_set.h"

using geosir::core::EnvelopeMatcher;
using geosir::core::MatchOptions;
using geosir::core::MatchResult;
using geosir::core::MatchStats;

int main() {
  // A moderate synthetic image base standing in for a photo collection.
  geosir::workload::ImageBaseSpec spec;
  spec.num_images = 120;
  spec.num_prototypes = 25;
  spec.instance_noise = 0.008;
  spec.seed = 2002;
  auto generated = geosir::workload::GenerateImageBase(spec);
  if (!generated.ok()) {
    std::fprintf(stderr, "generate: %s\n",
                 generated.status().ToString().c_str());
    return 1;
  }
  const auto& base = generated->images->shape_base();
  std::printf("image base: %zu images, %zu shapes, %zu stored copies\n",
              generated->images->NumImages(), base.NumShapes(),
              base.NumCopies());

  EnvelopeMatcher matcher(&base);
  auto hash_index = geosir::hashing::GeoHashIndex::Create(&base);
  if (!hash_index.ok()) {
    std::fprintf(stderr, "hash index: %s\n",
                 hash_index.status().ToString().c_str());
    return 1;
  }
  std::printf("hash index: %d curves/quarter, avg bucket occupancy %.2f\n\n",
              hash_index->options().curves_per_quarter,
              hash_index->AverageBucketOccupancy());
  geosir::hashing::GeoHashCandidateSource hash_source(&*hash_index);

  geosir::util::Rng rng(77);
  struct Sketch {
    const char* description;
    geosir::geom::Polyline shape;
    int prototype;  // -1: not derived from any prototype.
  };
  std::vector<Sketch> sketches;
  // Careful sketch: light jitter of a known prototype.
  sketches.push_back({"careful sketch (1% jitter)",
                      geosir::workload::JitterVertices(
                          generated->prototypes[3], 0.01, &rng),
                      3});
  // Sloppy sketch: strong jitter plus a dent.
  sketches.push_back({"sloppy sketch (4% jitter + dent)",
                      geosir::workload::LocalDent(
                          geosir::workload::JitterVertices(
                              generated->prototypes[11], 0.04, &rng),
                          0.06, &rng),
                      11});
  // Simplified sketch: same prototype drawn with half the vertices.
  sketches.push_back({"coarse sketch (resampled to 10 vertices)",
                      geosir::workload::ResampleBoundary(
                          generated->prototypes[17], 10),
                      17});
  // Unrelated doodle: something the base has never seen.
  geosir::workload::PolygonGenOptions doodle_opts;
  doodle_opts.min_vertices = 5;
  doodle_opts.max_vertices = 7;
  doodle_opts.spikiness = 0.7;
  sketches.push_back(
      {"unrelated doodle", RandomStarPolygon(&rng, doodle_opts), -1});

  for (const Sketch& sketch : sketches) {
    std::printf("== %s ==\n", sketch.description);
    MatchOptions options;
    options.k = 3;
    MatchStats stats;
    auto exact = matcher.Match(sketch.shape, options, &stats);
    if (!exact.ok()) {
      std::fprintf(stderr, "match: %s\n",
                   exact.status().ToString().c_str());
      return 1;
    }
    std::vector<MatchResult> results = *exact;
    const char* path = "envelope matcher";
    if (results.empty()) {
      // Section 3: fall back to geometric hashing, its candidates ranked
      // by the matcher's verifier.
      auto approx =
          matcher.MatchCandidates(sketch.shape, &hash_source, options);
      if (!approx.ok()) {
        std::fprintf(stderr, "hash query: %s\n",
                     approx.status().ToString().c_str());
        return 1;
      }
      results = *approx;
      path = "geometric hashing (fallback)";
    }
    std::printf("  via %s (%zu envelope iterations)\n", path,
                stats.iterations);
    if (results.empty()) {
      std::printf("  no match at all\n\n");
      continue;
    }
    for (size_t i = 0; i < results.size(); ++i) {
      const auto& shape = base.shape(results[i].shape_id);
      const int proto = generated->prototype_of_shape[results[i].shape_id];
      std::printf("  #%zu shape %u (image %u, prototype %d%s) dist %.5f\n",
                  i + 1, results[i].shape_id, shape.image, proto,
                  proto == sketch.prototype ? ", CORRECT" : "",
                  results[i].distance);
    }
    std::printf("\n");
  }
  return 0;
}
