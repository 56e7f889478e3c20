#ifndef GEOSIR_CORE_ENVELOPE_MATCHER_H_
#define GEOSIR_CORE_ENVELOPE_MATCHER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
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
  /// Verification abandons, for the discrete measures, every candidate
  /// whose partial score already exceeds min(k-th best distinct shape so
  /// far, its shape's best so far) — or collect_threshold in collect
  /// mode — so rankings, distances and copy indices equal full scoring
  /// bit for bit (DESIGN.md section 14.3). No per-query memo: sources
  /// emit each copy once.
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

  /// The prologue Match and MatchCandidates share once their options are
  /// valid: lifecycle entry check (an expired or cancelled query does no
  /// work), control binding, NormalizeQuery, PrepareQueryCache.
  util::Result<NormalizedCopy> Begin(const geom::Polyline& query,
                                     const MatchOptions& options, Call* call);

  /// Rebuilds the per-query memo (component cache + query target) unless
  /// it already serves this normalized query and similarity options.
  void PrepareQueryCache(const geom::Polyline& q, const MatchOptions& options);

  /// Scores `candidates` under options.measure (parallel across the pool
  /// when enabled) and folds them into the best result per shape, merging
  /// memo lookups, insertions and the fold deterministically on the
  /// calling thread.
  void ScoreCandidates(std::span<const uint32_t> candidates,
                       const MatchOptions& options, MatchStats* stats,
                       std::unordered_map<ShapeId, MatchResult>* best);

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

  // Per-query scoring state, keyed by the normalized query: the query
  // target (the distance target of every *-ToQuery component and of the
  // envelope membership test) and a memo of computed components keyed by
  // copy_index * 4 + MeasureComponent. Both survive across Match calls
  // with the same query, so re-matching (e.g. the tombstone-slack retries
  // of DynamicShapeBase) never re-integrates a copy it has already
  // scored.
  std::unique_ptr<QueryTarget> target_;
  std::unordered_map<uint64_t, double> eval_cache_;

  // Scratch reused across rounds (no steady-state allocation).
  std::vector<uint32_t> pending_eval_;
  std::vector<double> pending_distances_;
  std::vector<uint64_t> missing_keys_;
  std::vector<uint32_t> missing_slots_;
  std::vector<double> missing_values_;

  // MatchCandidates scratch: each shape's best verified distance in the
  // current call (+inf when unseen; reset at exit), one edge store per
  // pool slot for the from-query direction, and a chunk's verdicts.
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
