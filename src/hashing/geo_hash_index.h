#ifndef GEOSIR_HASHING_GEO_HASH_INDEX_H_
#define GEOSIR_HASHING_GEO_HASH_INDEX_H_

#include <utility>
#include <vector>

#include "core/candidate_source.h"
#include "core/shape_base.h"
#include "hashing/hash_curves.h"
#include "util/status.h"

namespace geosir::hashing {

struct GeoHashOptions {
  /// Curves per quarter (the paper illustrates k = 50, Figure 4 right).
  int curves_per_quarter = 50;
  /// Which equal-area curve family partitions the quarters.
  CurveFamilyKind family = CurveFamilyKind::kUnitCircleArcs;
  /// How many neighboring curves on each side of the query's curve are
  /// probed per quarter (0 = exact-curve only). Shapes close to each
  /// other land on the same or neighboring curves.
  int neighbor_radius = 1;
};

/// The approximate-matching fallback of Section 3: every normalized copy
/// in the shape base is bucketed by its characteristic curve in each of
/// the four lune quarters. A query probes its own four curves (plus
/// optional neighbors) and collects the shapes in those buckets; ranking
/// them with the similarity measure is the verifier's job
/// (EnvelopeMatcher::MatchCandidates over a GeoHashCandidateSource).
/// Expected cost: logarithmic in the curve-family size plus a constant
/// number of candidate evaluations.
class GeoHashIndex {
 public:
  /// Builds buckets for every copy in `base`, which must be finalized.
  /// The index holds copy indices only; rank them against that base.
  static util::Result<GeoHashIndex> Create(const core::ShapeBase* base,
                                           const GeoHashOptions& options = {});

  /// The bucket probe: distinct copies collected from the probed
  /// (quarter, curve) buckets of the *already normalized* query, each
  /// with its multiplicity (how many quarters collected it, 1..4), sorted
  /// ascending by copy index. Deterministic; GeoHashCandidateSource
  /// orders it for the verifier.
  std::vector<std::pair<uint32_t, uint32_t>> CollectCandidates(
      const geom::Polyline& normalized) const;

  /// Quadruple of a stored copy (sorted-layout keys, Section 4.1).
  const CurveQuadruple& QuadrupleOfCopy(size_t copy_index) const {
    return copy_quadruples_[copy_index];
  }
  const ArcFamily& family() const { return family_; }
  const GeoHashOptions& options() const { return options_; }

  /// Average number of copies per non-empty (quarter, curve) bucket; the
  /// paper expects a small constant.
  double AverageBucketOccupancy() const;

 private:
  GeoHashIndex(GeoHashOptions options, ArcFamily family);

  GeoHashOptions options_;
  ArcFamily family_;
  std::vector<CurveQuadruple> copy_quadruples_;
  /// buckets_[quarter][curve] = copy indices whose characteristic curve
  /// in `quarter` is `curve` (1-based curve ids; index 0 collects copies
  /// with an empty quarter).
  std::vector<std::vector<uint32_t>> buckets_[4];
};

/// CandidateSource adapter over the hash-curve buckets: the paper's
/// Section 3 lookup as the approximate first tier of the retrieval
/// pipeline (candidates ranked by how many lune quarters agreed, ties by
/// ascending copy index). The index is not owned and must outlive the
/// source.
class GeoHashCandidateSource final : public core::CandidateSource {
 public:
  explicit GeoHashCandidateSource(const GeoHashIndex* index) : index_(index) {}

  const char* name() const override { return "geohash"; }

  util::Status Generate(const geom::Polyline& normalized_query,
                        size_t max_candidates,
                        const core::MatchOptions& options,
                        std::vector<uint32_t>* out,
                        core::CandidateSourceStats* stats) override;

 private:
  const GeoHashIndex* index_;
};

}  // namespace geosir::hashing

#endif  // GEOSIR_HASHING_GEO_HASH_INDEX_H_
