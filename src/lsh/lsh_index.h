#ifndef GEOSIR_LSH_LSH_INDEX_H_
#define GEOSIR_LSH_LSH_INDEX_H_

#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <unordered_map>
#include <vector>

#include "core/candidate_source.h"
#include "core/normalize.h"
#include "geom/polyline.h"
#include "lsh/sketch.h"
#include "util/query_control.h"
#include "util/status.h"

namespace geosir::core {
class ShapeBase;
}  // namespace geosir::core

namespace geosir::lsh {

/// Tuning knobs of the banded multi-table scheme (DESIGN.md section 14.2).
/// With per-feature quantum w and per-sample displacement delta, one
/// quantized feature agrees with probability ~ max(0, 1 - delta/w); a band
/// of `rows` samples ANDs those, and `tables` x `bands` bands OR the band
/// matches — recall ~ 1 - (1 - p^features_per_band)^(tables*bands).
struct LshOptions {
  /// Independent hash tables (distinct quantization offsets).
  int tables = 4;
  /// Bands per table; each band is one bucket key.
  int bands = 8;
  /// Hash rows per band (p-stable projections ANDed into one bucket
  /// key). Larger = more selective bands. 6 is the measured sweet spot
  /// at 10^5 shapes: sub-millisecond candidate generation at recall@10
  /// ~0.96; drop to 5 or 4 to trade milliseconds for the last points of
  /// recall (DESIGN.md section 14.2).
  int rows = 6;
  /// Hash cell width: the p-stable w. Each row quantizes a Gaussian
  /// projection of the full sketch, so calibrate against sketch-space L2
  /// distances — jittered instances sit at ||delta|| ~ 0.15 while
  /// distinct prototypes sit at ~1.5+ (measured, DESIGN.md section 14.2),
  /// and w between the two buys near-perfect per-row agreement for true
  /// pairs at a per-row junk rate of ~w/||Delta||.
  double quantum = 0.5;
  SketchKind kind = SketchKind::kVertexSample;
  /// Seeds the per-table quantization offsets; the whole index layout is
  /// a pure function of (options, insertion sequence).
  uint64_t seed = 1;
  /// Record each id's bucket keys so Remove(id) is exact and O(keys).
  /// Costs tables*bands*12 bytes per inserted sketch; enable for dynamic
  /// use, leave off for static build-once indexes.
  bool track_keys = false;
};

/// Approximate polygon-LSH pre-filter (after Kaplan & Tenenbaum's
/// polygon-LSH; see PAPERS.md): normalized copies are sketched by
/// arc-length boundary samples, each sketch is quantized under
/// seed-deterministic per-table offsets and banded into tables x bands
/// bucket keys. A query probes the same buckets and ranks the colliding
/// ids by collision multiplicity — candidates for exact epsilon-envelope
/// verification.
///
/// Thread safety: Query takes a shared lock, Insert/Remove an exclusive
/// one, so concurrent queries scale and the dynamic tier can mutate a
/// live index (tested under TSan in lsh_test).
class LshIndex {
 public:
  struct QueryStats {
    size_t tables_probed = 0;
    size_t buckets_probed = 0;   // Non-empty buckets read.
    size_t candidates = 0;       // Distinct ids emitted.
    bool truncated = false;      // max_candidates cut the ranked list.
  };

  /// Validates the options. kInvalidArgument on nonsensical geometry
  /// (tables/bands/rows < 1, quantum <= 0 or non-finite).
  static util::Result<std::unique_ptr<LshIndex>> Create(LshOptions options);

  /// Static convenience: one sketch per copy of a finalized base, with
  /// id == copy index.
  static util::Result<std::unique_ptr<LshIndex>> BuildFromBase(
      const core::ShapeBase& base, LshOptions options);

  const LshOptions& options() const { return options_; }
  /// Boundary samples taken per sketch (bands * rows).
  size_t SamplesPerSketch() const { return samples_; }
  /// Sketches currently indexed (inserts minus removes).
  size_t NumSketches() const;

  /// Indexes `normalized` under `id`. One id may carry several sketches
  /// (one per normalized copy); Remove erases them all.
  void Insert(uint64_t id, const geom::Polyline& normalized);
  /// Inserts every copy of a shape under one id.
  void InsertCopies(uint64_t id, const std::vector<core::NormalizedCopy>& copies);

  /// Erases every sketch inserted under `id`. Requires track_keys
  /// (kFailedPrecondition otherwise); kNotFound for an unknown id.
  util::Status Remove(uint64_t id);

  /// Fills `out` (cleared first) with candidate ids ranked by collision
  /// multiplicity (descending), ties by ascending id — deterministic for
  /// identical index state. `max_candidates` == 0 means unlimited.
  /// `control` is polled per table: a lifecycle stop returns its status
  /// with the candidates ranked so far left in `out`.
  util::Status Query(const geom::Polyline& normalized_query,
                     size_t max_candidates, const util::QueryControl& control,
                     std::vector<uint64_t>* out, QueryStats* stats) const;

 private:
  explicit LshIndex(LshOptions options);

  /// Bucket keys of one sketch: tables * bands entries, slot-major
  /// (slot = table * bands + band).
  std::vector<uint64_t> BucketKeys(const geom::Polyline& normalized) const;

  LshOptions options_;
  size_t samples_ = 0;
  size_t features_ = 0;  // samples_ * FeaturesPerSample(kind).
  /// Per-table quantization offsets in [0, quantum), tables * features_
  /// drawn; the first bands * rows entries of each table's stripe are
  /// used (one offset per hash row).
  std::vector<double> offsets_;
  /// Gaussian projection directions: one features_-dim vector per
  /// (table, band, row), seed-deterministic.
  std::vector<double> projections_;

  mutable std::shared_mutex mutex_;
  /// buckets_[table * bands + band]: bucket key -> inserted ids (in
  /// insertion order; duplicates possible when one id has several copies).
  std::vector<std::unordered_map<uint64_t, std::vector<uint64_t>>> buckets_;
  /// id -> flat (slot, key) pairs of its sketches (track_keys only).
  std::unordered_map<uint64_t, std::vector<std::pair<uint32_t, uint64_t>>>
      keys_of_;
  size_t num_sketches_ = 0;
  /// Largest id ever inserted (never shrunk by Remove): gates the dense
  /// collision-counting path in Query.
  uint64_t max_id_ = 0;
};

/// CandidateSource adapter over a static LshIndex built from a finalized
/// ShapeBase (ids are copy indices). The approximate first tier of the
/// retrieval pipeline; plug into EnvelopeMatcher::MatchCandidates or
/// query::QueryContextOptions::prefilter.
class LshCandidateSource final : public core::CandidateSource {
 public:
  static util::Result<std::unique_ptr<LshCandidateSource>> Build(
      const core::ShapeBase* base, LshOptions options);

  const char* name() const override { return "lsh"; }

  util::Status Generate(const geom::Polyline& normalized_query,
                        size_t max_candidates,
                        const core::MatchOptions& options,
                        std::vector<uint32_t>* out,
                        core::CandidateSourceStats* stats) override;

  const LshIndex& index() const { return *index_; }

 private:
  explicit LshCandidateSource(std::unique_ptr<LshIndex> index)
      : index_(std::move(index)) {}

  std::unique_ptr<LshIndex> index_;
};

}  // namespace geosir::lsh

#endif  // GEOSIR_LSH_LSH_INDEX_H_
