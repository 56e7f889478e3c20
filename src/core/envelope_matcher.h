#ifndef GEOSIR_CORE_ENVELOPE_MATCHER_H_
#define GEOSIR_CORE_ENVELOPE_MATCHER_H_

#include <cstdint>
#include <functional>
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
/// for you. The underlying ShapeBase is read-only during matching.
class EnvelopeMatcher {
 public:
  /// `base` must outlive the matcher and be finalized.
  explicit EnvelopeMatcher(const ShapeBase* base);

  /// Retrieves the k best matches for `query` (raw, unnormalized
  /// coordinates). `stats` and `trace` are optional. When nothing
  /// entered the envelope before max_epsilon the result is empty with
  /// MatchStats::exhausted set; no tier falls back to geometric hashing
  /// (Section 3) on its own — that fallback is ROADMAP item 3.
  /// options.k must be positive outside collect mode (kInvalidArgument).
  ///
  /// Lifecycle: options.deadline / cancel_token / budget terminate the
  /// search cooperatively (checked at round, candidate and amortized
  /// vertex-report granularity, and observed by external index backends
  /// and their storage retries). A stop with ranked candidates in hand
  /// returns them as an OK *partial* result (MatchStats::partial +
  /// termination); a stop before anything was ranked — including a
  /// deadline already expired at entry, which performs zero work —
  /// returns kDeadlineExceeded / kCancelled / kResourceExhausted.
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
  /// scoring bit for bit.
  ///
  /// Lifecycle mirrors Match: options.budget.max_candidates caps the
  /// candidate set at generation (a deterministic truncation, reported as
  /// a kResourceExhausted partial); deadline / cancel stop generation and
  /// scoring cooperatively with the same partial-result contract.
  util::Result<std::vector<MatchResult>> MatchCandidates(
      const geom::Polyline& query, CandidateSource* source,
      const MatchOptions& options = {}, MatchStats* stats = nullptr,
      AccessTrace* trace = nullptr);

 private:
  struct Call;
  class AbandonBound;

  /// The prologue Match and MatchCandidates share once their options are
  /// valid: lifecycle entry check (an expired or cancelled query does no
  /// work), control binding, NormalizeQuery, and the query target.
  util::Result<NormalizedCopy> Begin(const geom::Polyline& query,
                                     const MatchOptions& options, Call* call);

  /// The one verifier (DESIGN.md section 14.3): scores `candidates` in
  /// order under options.measure against `bound`, in chunks (fanned out
  /// across the pool when enabled) with a deadline / cancel poll before
  /// each, and records the survivors in `bound` in candidate order on the
  /// calling thread. Returns the stop that cut it short, counting the
  /// unverified rest as skipped.
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
  // of the envelope membership test; rebuilt by Begin.
  std::unique_ptr<QueryTarget> target_;

  // Copies admitted in the current round (reused across rounds).
  std::vector<uint32_t> pending_eval_;

  // Verifier scratch: each shape's best verified distance in the current
  // call (+inf when unseen; AbandonBound resets it on every exit), one
  // edge store per pool slot for the from-query direction, and a chunk's
  // verdicts.
  std::vector<double> shape_best_;
  std::vector<geom::EdgeSoA> edge_scratch_;
  std::vector<std::optional<double>> verified_;
};

/// Runs independent queries concurrently across the pool configured in
/// `options` (one matcher per worker slot): the throughput-style
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

/// The one batch executor, behind core::MatchBatch and
/// DynamicShapeBase::MatchBatch, with the lifecycle contract documented
/// above: calls `run_query(matcher, i, stats_i)` for every i in [0, n)
/// across the pool `options` selects, one EnvelopeMatcher over `base` per
/// worker slot (null when `base` is). Lifecycle stops returned by
/// run_query do not fail the batch; other errors do, first by query order.
util::Status RunMatchBatch(
    const ShapeBase* base, size_t n, const MatchOptions& options,
    std::vector<MatchStats>* stats,
    const std::function<util::Status(EnvelopeMatcher*, size_t, MatchStats*)>&
        run_query);

/// The option checks every ranking entry point shares: a finite
/// collect_threshold, and a positive result count `k` outside collect
/// mode (kInvalidArgument otherwise).
util::Status ValidateRanking(const MatchOptions& options, size_t k);

}  // namespace geosir::core

#endif  // GEOSIR_CORE_ENVELOPE_MATCHER_H_
