#ifndef GEOSIR_CORE_MATCH_TYPES_H_
#define GEOSIR_CORE_MATCH_TYPES_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/shape.h"
#include "core/similarity.h"
#include "obs/trace.h"
#include "util/cancellation.h"
#include "util/deadline.h"
#include "util/status.h"

namespace geosir::util {
class ThreadPool;
}  // namespace geosir::util

namespace geosir::core {

/// Hard caps on the work one Match call may perform; 0 means unlimited.
/// Budgets are enforced on the single-threaded control path (round entry,
/// the range-search visitor, candidate admission), so a budget-terminated
/// query returns a bit-identical partial result set for every thread
/// count — unlike deadline or cancellation stops, which depend on timing.
/// Exceeding a budget terminates with kResourceExhausted; best-so-far
/// results are still returned (see MatchStats::partial).
struct WorkBudget {
  /// Maximum ε-growth rounds (MatchStats::iterations).
  size_t max_rounds = 0;
  /// Maximum candidate similarity evaluations. Admission stops at the
  /// cap; further qualifying copies count as MatchStats::candidates_skipped.
  size_t max_candidates = 0;
  /// Maximum vertex reports from the range structure
  /// (MatchStats::vertices_reported).
  size_t max_vertex_reports = 0;

  bool Unlimited() const {
    return max_rounds == 0 && max_candidates == 0 && max_vertex_reports == 0;
  }
};

struct MatchOptions {
  /// A copy becomes a candidate when at least (1 - beta) of its vertices
  /// lie inside the current envelope (step 3 of the algorithm).
  double beta = 0.25;
  /// Envelope growth factor per iteration (step 5).
  double growth = 2.0;
  /// Initial envelope width; <= 0 selects the occupancy heuristic
  /// A / (2 p l_Q) of step 1.
  double initial_epsilon = -1.0;
  /// Hard stop; <= 0 selects the paper's bound A / (2 p l_Q) * log^3 n.
  double max_epsilon = -1.0;
  /// Number of best-matching shapes to return (k-best retrieval; the
  /// storage experiments sweep k = 1..10).
  size_t k = 1;
  MatchMeasure measure = MatchMeasure::kContinuousSymmetric;
  SimilarityOptions similarity;
  /// Early-exit confidence factor: the search stops once the k-th best
  /// distance is <= stop_factor * beta * eps (any copy that is not yet a
  /// candidate has > beta of its vertices farther than eps from the
  /// query, so its discrete average exceeds beta * eps). For the
  /// continuous measures this bound is a heuristic; set to 0 to disable
  /// early exit and always run to max_epsilon.
  double stop_factor = 1.0;
  /// Threshold-collection mode (> 0): instead of the k best shapes,
  /// return *every* shape with distance <= collect_threshold — the
  /// shape_similar(Q) set of Section 5. The envelope is grown to at
  /// least collect_threshold / beta (by Markov's inequality a shape with
  /// average distance <= threshold then has >= (1 - beta) of its
  /// vertices inside), early exit is disabled, and `k` is ignored.
  double collect_threshold = -1.0;
  /// Parallelism for candidate scoring (within one Match) and for
  /// MatchBatch (across queries). 1 runs fully serial on the calling
  /// thread; higher values fan work out across `pool` (or the shared
  /// process-wide pool when `pool` is null). Results are bit-identical
  /// for every value — the range-search phase stays single-threaded and
  /// the expensive similarity evaluations are merged deterministically.
  size_t num_threads = 1;
  /// Engine handle: the thread pool to run on. Null selects
  /// util::ThreadPool::Shared() when num_threads > 1. The pool is never
  /// owned; it must outlive the call.
  util::ThreadPool* pool = nullptr;
  /// Wall-clock deadline for the call (default: none). An expired
  /// deadline terminates the search cooperatively: a Match that already
  /// holds candidates returns them ranked with MatchStats::partial set;
  /// one with nothing yet (including a deadline that expired before the
  /// call) returns kDeadlineExceeded. Checked at round, candidate and
  /// (amortized) vertex-report granularity, and inherited by storage
  /// retries underneath the index.
  util::Deadline deadline;
  /// Cooperative cancellation (default: none). Same partial-result
  /// contract as `deadline`, terminating with kCancelled. The token is
  /// not owned and must outlive the call; one token may fan out over many
  /// concurrent queries (MatchBatch cancels them all).
  const util::CancellationToken* cancel_token = nullptr;
  /// Work caps (rounds / candidate evaluations / vertex reports);
  /// defaults unlimited. Deterministic: see WorkBudget.
  WorkBudget budget;
  /// Opt-in per-query timeline (ε-round progression, candidate and
  /// degradation events, termination; see obs/trace.h). The matcher
  /// Start()s it at entry and Finish()es it at exit, so the same instance
  /// can be reused across queries. Not owned; null (the default) costs a
  /// pointer test. Independent of `trace` below Match — that records the
  /// candidate access sequence, this records the timeline. When the
  /// process-wide obs::SlowQueryLog is armed the matcher builds a trace
  /// internally even if this is null, offering it to the log at exit.
  obs::QueryTrace* query_trace = nullptr;
};

/// One retrieved shape.
struct MatchResult {
  ShapeId shape_id = 0;
  /// Distance under the configured measure, for the best copy.
  double distance = 0.0;
  /// Copy index (into ShapeBase::copies()) that achieved it.
  uint32_t copy_index = 0;
};

/// Diagnostics for one query.
struct MatchStats {
  size_t iterations = 0;
  size_t vertices_reported = 0;   // Reported by the range structure.
  size_t vertices_accepted = 0;   // Passed the exact ring test.
  size_t candidates_evaluated = 0;
  /// Of candidates_evaluated, the candidates the early-abandoning
  /// verifier of Match and MatchCandidates dropped once a partial sum
  /// proved they could not change the answer (discrete measures only;
  /// DESIGN.md section 14.3). How many are dropped may depend on the
  /// schedule; the ranking never does.
  size_t candidates_abandoned = 0;
  /// Always 0: no entry point keeps a per-query memo. Kept only because
  /// the benchmark harness (perfbench) still reads it.
  size_t eval_cache_hits = 0;
  double final_epsilon = 0.0;
  double initial_epsilon = 0.0;
  double max_epsilon = 0.0;
  bool stopped_early = false;     // Early-exit bound fired.
  bool exhausted = false;         // Ran to max_epsilon.
  /// Fault-tolerance outcome (external index backends only): the range
  /// structure skipped unreadable subtrees under its degradation policy,
  /// so the result may be missing candidates. A degraded result is still
  /// ordered correctly among the candidates that were seen.
  bool degraded = false;
  size_t skipped_subtrees = 0;
  size_t skipped_leaves = 0;
  /// Query-lifecycle outcome. `partial` is set when the search was
  /// terminated early by a deadline, a cancellation or a work budget but
  /// still returned a (correctly ranked) best-so-far result set;
  /// `termination` then holds the stop reason (kDeadlineExceeded /
  /// kCancelled / kResourceExhausted). When the stop fired before any
  /// candidate was ranked the call returns `termination` as its error
  /// instead, with `partial` false. `rounds_completed` counts rounds that
  /// ran to their merge (vs. `iterations`, which includes an aborted
  /// round); `candidates_skipped` counts copies that met the occupancy
  /// threshold but were never scored because the query was stopping.
  bool partial = false;
  util::Status termination;
  size_t rounds_completed = 0;
  size_t candidates_skipped = 0;
  /// Replicated-serving provenance (set only when the query was served by
  /// a replication follower — see src/replication/). `replica_lsn` is the
  /// exclusive LSN bound the query was pinned to: every mutation with
  /// lsn < replica_lsn is visible, nothing at or above it is (the
  /// snapshot-consistency contract). `replica_lag` is how many records
  /// behind the primary's tail that bound was when the query was
  /// admitted — the staleness the caller actually experienced.
  bool replicated = false;
  uint32_t replica = 0;
  uint64_t replica_lsn = 0;
  uint64_t replica_lag = 0;
};

/// Order in which shape *records* were read, i.e. the sequence of
/// candidate-copy evaluations (vertex membership is answered by the
/// in-memory index; the stored record is only fetched to evaluate the
/// similarity measure). The external-storage experiments (Section 4)
/// replay this sequence against the block store to count I/O. The
/// paper's locality claim — "two shapes which are processed successively
/// are usually similar" — is about exactly this sequence.
using AccessTrace = std::vector<uint32_t>;

/// The best-per-shape fold every ranking runs before RankAndClose: keeps
/// `result` when it beats the one held for its shape.
inline void FoldBest(const MatchResult& result,
                     std::unordered_map<ShapeId, MatchResult>* best) {
  auto [it, inserted] = best->try_emplace(result.shape_id, result);
  if (!inserted && result.distance < it->second.distance) it->second = result;
}

/// The (distance, id) key every ranking sorts by: any result with
/// `distance` and `shape_id` members, or a (stable id, distance) pair.
template <typename Result>
std::pair<double, uint64_t> RankKey(const Result& r) {
  return {r.distance, r.shape_id};
}
inline std::pair<double, uint64_t> RankKey(
    const std::pair<uint64_t, double>& r) {
  return {r.second, r.first};
}

/// The (distance, id) ranking every result list goes through: with a
/// positive `collect_threshold` keeps the results within it, otherwise
/// cuts to the `k` best; sorts by (distance, id) either way.
template <typename Result>
void RankResults(std::vector<Result>* results, size_t k,
                 double collect_threshold = -1.0) {
  if (collect_threshold > 0.0) {
    std::erase_if(*results, [&](const Result& r) {
      return RankKey(r).first > collect_threshold;
    });
  }
  std::sort(results->begin(), results->end(),
            [](const Result& a, const Result& b) {
              const auto [da, ia] = RankKey(a);
              const auto [db, ib] = RankKey(b);
              if (da != db) return da < db;
              return ia < ib;
            });
  if (collect_threshold <= 0.0 && results->size() > k) results->resize(k);
}

/// The one rank-and-close step of every ranking entry point: RankResults,
/// then the partial-result contract for `stop`. A lifecycle stop with
/// ranked results in hand marks `stats` partial and returns OK; a stop
/// before anything was ranked returns `stop` itself;
/// `stats->termination` records the stop either way.
template <typename Result>
util::Status RankAndClose(std::vector<Result>* results, size_t k,
                          double collect_threshold, const util::Status& stop,
                          MatchStats* stats) {
  RankResults(results, k, collect_threshold);
  if (stop.ok()) return util::Status::OK();
  stats->termination = stop;
  stats->partial = !results->empty();
  return results->empty() ? stop : util::Status::OK();
}

}  // namespace geosir::core

#endif  // GEOSIR_CORE_MATCH_TYPES_H_
