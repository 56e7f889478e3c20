#ifndef GEOSIR_CORE_ENVELOPE_MATCHER_H_
#define GEOSIR_CORE_ENVELOPE_MATCHER_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/match_types.h"
#include "core/shape_base.h"
#include "core/similarity.h"
#include "util/status.h"

namespace geosir::core {

class CandidateSource;

/// The incremental envelope-fattening matcher of Section 2.5.
///
/// Concurrency: one Match call may fan its candidate-scoring work out
/// across a util::ThreadPool (MatchOptions::num_threads); the range-search
/// phase and the k-best merge stay on the calling thread, and parallel
/// results are merged in candidate order, so Match returns bit-identical
/// results for every thread count. A matcher *instance* still owns
/// per-query scratch (epoch-stamped counters sized to the base), so use
/// one instance per concurrently-matching thread — MatchBatch does this
/// for you. The underlying ShapeBase is read-only during matching; its
/// tail and removal marks may change between calls.
class EnvelopeMatcher {
 public:
  /// `base` must outlive the matcher and be finalized.
  explicit EnvelopeMatcher(const ShapeBase* base);

  /// Retrieves the k best matches for `query` (raw, unnormalized
  /// coordinates): MatchCandidates' driver over the epsilon-envelope, the
  /// one multi-round source (DESIGN.md section 14.3). Each round admits
  /// the copies with >= (1 - beta) of their vertices inside the envelope;
  /// before growing it, the envelope reads the verifier's k-th best and
  /// stops once it is <= stop_factor * beta * eps. `stats` and `trace` are
  /// optional. When nothing entered the envelope before max_epsilon the
  /// result is empty with MatchStats::exhausted set. options.k must be
  /// positive outside collect mode (kInvalidArgument).
  ///
  /// Removed shapes are never candidates. The envelope's last round is
  /// the live copies of the base's unindexed tail, under the candidate
  /// budget left; a stopping query skips them. A base with no indexed
  /// copies is one such round, a full scan, reported as exhausted.
  ///
  /// Lifecycle: options.deadline / cancel_token / budget terminate the
  /// search cooperatively (checked at round, candidate and amortized
  /// vertex-report granularity, and observed by external index backends
  /// and their storage retries). A stop with ranked candidates in hand
  /// returns them as an OK *partial* result (MatchStats::partial +
  /// termination); a stop before anything was ranked — including a
  /// deadline already expired at entry, which performs zero work —
  /// returns kDeadlineExceeded / kCancelled / kResourceExhausted. A round
  /// a vertex or candidate budget cut ends the query as such a partial
  /// even when the stop rule would have fired after it.
  /// Budget stops are deterministic (bit-identical partial results for
  /// every thread count); deadline and cancel stops are not.
  util::Result<std::vector<MatchResult>> Match(const geom::Polyline& query,
                                               const MatchOptions& options = {},
                                               MatchStats* stats = nullptr,
                                               AccessTrace* trace = nullptr);

  /// EXTENSION (tiered retrieval, DESIGN.md section 14): k-best (or
  /// collect_threshold) ranking over the candidate set emitted by `source`
  /// instead of envelope growth — the exact-verification half of the
  /// "approximate first pass -> exact scoring" pipeline. Exactly as
  /// accurate as the candidate set: with an exhaustive source this equals
  /// brute-force ranking under options.measure; with an approximate
  /// source (LSH, hash curves) recall is the source's.
  ///
  /// Verification is Match's: the early-abandoning verifier of DESIGN.md
  /// section 14.3, so rankings, distances and copy indices equal full
  /// scoring bit for bit. Copies of removed shapes are dropped from the
  /// source's candidates.
  ///
  /// The one driver: generate a round, verify it against the bound carried
  /// across rounds, repeat while the source has more, rank once. Lifecycle
  /// is applied per round: options.budget.max_candidates caps the
  /// candidates at generation, and a truncated round is verified, then
  /// ends the query as a kResourceExhausted partial; a deadline / cancel
  /// stop during generation skips the round, one during verification
  /// skips the rest, with the same partial-result contract.
  util::Result<std::vector<MatchResult>> MatchCandidates(
      const geom::Polyline& query, CandidateSource* source,
      const MatchOptions& options = {}, MatchStats* stats = nullptr,
      AccessTrace* trace = nullptr);

  /// The verifier builds a query's lower-bound field (BoundField, DESIGN.md
  /// section 14.3) for the discrete measures once one verifier call holds
  /// at least this many candidates: the measured break-even of the field's
  /// build time against its per-copy saving. At 2e4 shapes the exhaustive
  /// tier (1.8e5 copies) is far above it; envelope rounds (a handful) and
  /// LSH candidate sets (at most ~3e3) are below.
  static constexpr size_t kFieldMinCandidates = 5300;

 private:
  struct Call;
  class AbandonBound;
  class EnvelopeSource;

  /// The one driver behind Match and MatchCandidates, once their options
  /// are valid: lifecycle entry check (an expired or cancelled query does
  /// no work), control binding, NormalizeQuery and the query target, then
  /// the round loop over `source` and one RankAndClose.
  util::Result<std::vector<MatchResult>> Run(const geom::Polyline& query,
                                             CandidateSource* source,
                                             const MatchOptions& options,
                                             Call* call, AccessTrace* trace);

  /// The one verifier (DESIGN.md section 14.3), called only from Run's
  /// round loop: scores `candidates` in order under options.measure
  /// against `bound`, in chunks (fanned out across the pool when enabled)
  /// with a deadline / cancel poll before each, and records the survivors
  /// in `bound` in candidate order on the calling thread. Returns the stop
  /// that cut it short, counting the unverified rest as skipped.
  util::Status Verify(std::span<const uint32_t> candidates,
                      const MatchOptions& options, Call* call,
                      AbandonBound* bound, AccessTrace* trace);

  friend class EnvelopeMatcherTestPeer;

  const ShapeBase* base_;

  // Epoch-stamped scratch (valid when stamp == epoch_). Match zeroes the
  // stamps and restarts at 1 when the epoch wraps.
  uint32_t epoch_ = 0;
  std::vector<uint32_t> vertex_epoch_;    // Vertex already counted.
  // One record per copy, so an accepted vertex touches one cache line.
  struct CopyScratch {
    uint32_t epoch = 0;
    uint32_t count = 0;       // In-envelope vertices.
    uint32_t touch_iter = 0;  // Last iteration that touched it.
    uint32_t evaluated = 0;
  };
  std::vector<CopyScratch> copies_;

  // The normalized query as the distance target of every scored copy and
  // of the envelope membership test; rebuilt by Run.
  std::unique_ptr<QueryTarget> target_;

  // The current round's candidates (reused across rounds and calls).
  std::vector<uint32_t> round_;

  // Verifier scratch: each shape's best verified distance in the current
  // call (+inf when unseen; AbandonBound resets it on every exit), one
  // slot per pool worker, a chunk's verdicts, and the query's lower-bound
  // field (valid once the call has built it).
  struct alignas(64) VerifierSlot {  // Own cache line: workers write it.
    geom::EdgeSoA edges;             // The copy, for the from-query direction.
    size_t field_dropped = 0;        // Copies the field abandoned.
  };
  std::vector<double> shape_best_;
  std::vector<VerifierSlot> slots_;
  std::vector<std::optional<double>> verified_;
  BoundField field_;
  // kFieldMinCandidates; tests lower it to force the field on small bases.
  size_t field_min_candidates_ = kFieldMinCandidates;
};

/// The one batch executor (DynamicShapeBase::MatchBatch runs it too):
/// runs independent queries concurrently across the pool configured in
/// `options` (one matcher per worker slot), the throughput-style
/// counterpart of EnvelopeMatcher::Match. result[i] corresponds to
/// queries[i]; `stats`, when non-null, is resized to one entry per query.
/// Per-query results are bit-identical to a serial Match loop for every
/// thread count. Fails on the first query error (by query order) — but a
/// per-query lifecycle stop (deadline / cancel / budget) is not an error:
/// that query contributes its partial (possibly empty) ranking, the stop
/// is recorded in stats[i].termination, and the batch proceeds. A cancel
/// token in `options` spans the whole batch: queries not yet started when
/// it fires are skipped (termination = kCancelled), in-flight ones stop
/// with best-so-far.
util::Result<std::vector<std::vector<MatchResult>>> MatchBatch(
    const ShapeBase& base, const std::vector<geom::Polyline>& queries,
    const MatchOptions& options = {}, std::vector<MatchStats>* stats = nullptr);

}  // namespace geosir::core

#endif  // GEOSIR_CORE_ENVELOPE_MATCHER_H_
