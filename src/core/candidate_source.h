#ifndef GEOSIR_CORE_CANDIDATE_SOURCE_H_
#define GEOSIR_CORE_CANDIDATE_SOURCE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/match_types.h"
#include "geom/polyline.h"
#include "util/status.h"

namespace geosir::core {

class ShapeBase;

/// Diagnostics of one CandidateSource::Generate call.
struct CandidateSourceStats {
  /// Hash tables (or hash-curve quarters) consulted.
  size_t tables_probed = 0;
  /// Individual buckets read across all tables.
  size_t buckets_probed = 0;
  /// Distinct candidate copy indices written to `out`.
  size_t candidates_emitted = 0;
  /// The emitted set provably contains every copy of the base (exact
  /// enumeration). A verifier needs no recall fallback in this case.
  bool exhaustive = false;
  /// Generation stopped at `max_candidates` with further candidates left
  /// behind. Truncation keeps the source's preference order, so the kept
  /// prefix is deterministic (unlike deadline/cancel stops).
  bool truncated = false;
  /// Mirror of a non-OK return: the lifecycle stop (kDeadlineExceeded /
  /// kCancelled) observed mid-generation.
  util::Status termination;
  /// A multi-round source has more to emit once this round is verified:
  /// the driver calls NextRound.
  bool more_rounds = false;
};

/// The candidate-generation seam of the retrieval pipeline: one interface
/// in front of every way of choosing the copies to verify, so one driver
/// (EnvelopeMatcher::MatchCandidates, and Match over the envelope) runs
/// "generate a round -> verify it -> rank" without naming a concrete
/// index (DESIGN.md section 14.3). The sources: the paper's
/// epsilon-envelope (EnvelopeMatcher's own, the one multi-round source),
/// the LSH pre-filter (src/lsh/, static and dynamic), the hash-curve index
/// (src/hashing/) and plain exhaustive enumeration.
///
/// Contract:
///  - `normalized_query` is the query already normalized about its true
///    diameter (NormalizeQuery); candidates are indices into the backing
///    ShapeBase's copies() array.
///  - The emitted sequence is in source-preference order (most promising
///    first) and free of duplicates. It is deterministic: identical
///    query/options/index state yields a bit-identical sequence.
///  - `max_candidates` == 0 means unlimited; otherwise at most that many
///    candidates are emitted and `stats->truncated` is set when more
///    existed. Truncation is a normal, deterministic outcome: OK. The
///    driver verifies a truncated round, then stops with
///    kResourceExhausted.
///  - `options.deadline` / `options.cancel_token` are polled at table
///    granularity. A stop returns its status (kDeadlineExceeded /
///    kCancelled) with the candidates collected so far left in `out`;
///    the driver verifies none of them and counts them as skipped.
///  - Any other non-OK return is a real failure; `out` contents are
///    unspecified.
class CandidateSource {
 public:
  virtual ~CandidateSource() = default;

  /// Stable short identifier ("lsh", "geohash", "exact") used in traces
  /// and metrics.
  virtual const char* name() const = 0;

  /// Fills `out` (cleared first) with candidate copy indices for
  /// `normalized_query`. `stats` may be null.
  virtual util::Status Generate(const geom::Polyline& normalized_query,
                                size_t max_candidates,
                                const MatchOptions& options,
                                std::vector<uint32_t>* out,
                                CandidateSourceStats* stats) = 0;

  /// Multi-round sources override this; the driver calls it after
  /// verifying a round whose stats set `more_rounds`. `verified` is the
  /// verifier's outcome of that round: OK, or the lifecycle stop that ends
  /// the query. `kth_best` is the verifier's k-th best distance so far
  /// (+inf until k shapes are ranked, and in collect mode), the feedback
  /// an early-exit rule reads. On OK the source emits its next round into
  /// `out` as Generate does, or nothing with `more_rounds` clear once it
  /// is done. On a stop it returns `verified`, leaving in `out` what it
  /// would still have emitted; those count as skipped. `stats` is never
  /// null.
  virtual util::Status NextRound(const util::Status& verified,
                                 double /*kth_best*/,
                                 const MatchOptions& /*options*/,
                                 std::vector<uint32_t>* out,
                                 CandidateSourceStats* stats) {
    out->clear();
    *stats = CandidateSourceStats{};
    return verified;
  }
};

/// The trivial exhaustive tier: emits every copy index of the base in
/// ascending order. Recall 1 by construction; pairs with
/// EnvelopeMatcher::MatchCandidates to give brute-force verification when
/// recall guarantees are demanded, and serves as the ground-truth oracle
/// in tests and benchmarks. The base is not owned and must be finalized
/// before Generate is called.
class ExactEnumerationSource final : public CandidateSource {
 public:
  explicit ExactEnumerationSource(const ShapeBase* base) : base_(base) {}

  const char* name() const override { return "exact"; }

  util::Status Generate(const geom::Polyline& normalized_query,
                        size_t max_candidates, const MatchOptions& options,
                        std::vector<uint32_t>* out,
                        CandidateSourceStats* stats) override;

 private:
  const ShapeBase* base_;
};

}  // namespace geosir::core

#endif  // GEOSIR_CORE_CANDIDATE_SOURCE_H_
