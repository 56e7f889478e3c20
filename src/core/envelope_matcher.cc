#include "core/envelope_matcher.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <optional>
#include <string_view>
#include <unordered_map>

#include "core/candidate_source.h"
#include "geom/distance.h"
#include "geom/envelope.h"
#include "obs/metrics.h"
#include "obs/slow_query_log.h"
#include "util/query_control.h"
#include "util/thread_pool.h"

namespace geosir::core {

namespace {

using geom::Polyline;

double Log2(double v) { return std::log2(std::max(2.0, v)); }

/// Process-wide matcher metric families, resolved once. Per-query cost is
/// one relaxed add per counter at Match exit — never per vertex. The
/// prefilter_* families (DESIGN.md section 14.4) count MatchCandidates
/// calls only; `prefilter_empty` is the recall proxy an operator watches:
/// prefiltered queries that verified nothing trend with pre-filter misses.
struct MatcherMetrics {
  obs::Counter* queries;
  obs::Counter* rounds;
  obs::Counter* vertices_reported;
  obs::Counter* vertices_accepted;
  obs::Counter* candidates;
  obs::Counter* candidates_skipped;
  obs::Counter* candidates_abandoned;
  obs::Counter* partials;
  obs::Counter* degraded;
  obs::Counter* term_early_exit;
  obs::Counter* term_exhausted;
  obs::Counter* term_deadline;
  obs::Counter* term_cancelled;
  obs::Counter* term_budget;
  obs::Counter* term_error;
  obs::Histogram* latency;
  obs::Counter* prefilter_queries;
  obs::Counter* prefilter_candidates;
  obs::Counter* prefilter_verified;
  obs::Counter* prefilter_empty;

  static const MatcherMetrics& Get() {
    static const MatcherMetrics* metrics = [] {
      obs::MetricRegistry& r = obs::MetricRegistry::Default();
      auto* m = new MatcherMetrics();
      m->queries = r.GetCounter("geosir_matcher_queries_total",
                                "Match calls finished (any outcome)");
      m->rounds = r.GetCounter("geosir_matcher_rounds_total",
                               "Envelope-growth rounds started");
      m->vertices_reported =
          r.GetCounter("geosir_matcher_vertices_reported_total",
                       "Vertices reported by the range structure");
      m->vertices_accepted =
          r.GetCounter("geosir_matcher_vertices_accepted_total",
                       "Reported vertices that passed the exact ring test");
      m->candidates = r.GetCounter("geosir_matcher_candidates_total",
                                   "Candidate copies scored");
      m->candidates_skipped =
          r.GetCounter("geosir_matcher_candidates_skipped_total",
                       "Qualifying copies never scored (query was stopping)");
      m->candidates_abandoned = r.GetCounter(
          "geosir_matcher_candidates_abandoned_total",
          "Candidates the verifier dropped on a partial score");
      m->partials = r.GetCounter("geosir_matcher_partials_total",
                                 "Queries returning best-so-far partials");
      m->degraded = r.GetCounter(
          "geosir_matcher_degraded_total",
          "Queries whose index skipped unreadable subtrees");
      const char* term_name = "geosir_matcher_terminations_total";
      const char* term_help = "Match terminations by reason";
      m->term_early_exit =
          r.GetCounter(term_name, term_help, "reason=\"early_exit\"");
      m->term_exhausted =
          r.GetCounter(term_name, term_help, "reason=\"exhausted\"");
      m->term_deadline =
          r.GetCounter(term_name, term_help, "reason=\"deadline\"");
      m->term_cancelled =
          r.GetCounter(term_name, term_help, "reason=\"cancelled\"");
      m->term_budget = r.GetCounter(term_name, term_help, "reason=\"budget\"");
      m->term_error = r.GetCounter(term_name, term_help, "reason=\"error\"");
      m->latency = r.GetHistogram("geosir_matcher_latency_seconds",
                                  "End-to-end Match latency",
                                  obs::LatencyBucketsSeconds());
      m->prefilter_queries =
          r.GetCounter("geosir_matcher_prefilter_queries_total",
                       "MatchCandidates calls finished");
      m->prefilter_candidates =
          r.GetCounter("geosir_matcher_prefilter_candidates_total",
                       "Candidates emitted by the sources");
      m->prefilter_verified =
          r.GetCounter("geosir_matcher_prefilter_verified_total",
                       "Candidates exactly scored");
      m->prefilter_empty = r.GetCounter(
          "geosir_matcher_prefilter_empty_total",
          "Prefiltered queries returning no results (recall proxy)");
      return m;
    }();
    return *metrics;
  }

  obs::Counter* TerminationCounter(const char* reason) const {
    if (std::string_view(reason) == "early_exit") return term_early_exit;
    if (std::string_view(reason) == "exhausted") return term_exhausted;
    if (std::string_view(reason) == "deadline") return term_deadline;
    if (std::string_view(reason) == "cancelled") return term_cancelled;
    if (std::string_view(reason) == "budget") return term_budget;
    return term_error;
  }
};

/// Metric/trace label for a lifecycle stop status.
const char* StopReason(const util::Status& status) {
  switch (status.code()) {
    case util::StatusCode::kDeadlineExceeded:
      return "deadline";
    case util::StatusCode::kCancelled:
      return "cancelled";
    case util::StatusCode::kResourceExhausted:
      return "budget";
    default:
      return "error";
  }
}

/// Pool to run on, or null for fully serial execution.
util::ThreadPool* ResolvePool(const MatchOptions& options) {
  if (options.num_threads <= 1) return nullptr;
  return options.pool != nullptr ? options.pool : &util::ThreadPool::Shared();
}

}  // namespace

/// One Match or MatchCandidates call: its stats sink, its lifecycle
/// control and its observability. Registry counters are flushed once at
/// exit (relaxed adds, armed in production); the per-round timeline is
/// recorded only when a trace sink is attached or the slow-query log is
/// armed. `source` names the candidate source of a MatchCandidates call
/// (null for Match), whose exit also flushes the prefilter families.
struct EnvelopeMatcher::Call {
  Call(const Polyline& query, const MatchOptions& options, MatchStats* stats,
       const char* source)
      : st(stats != nullptr ? *stats : local_stats),
        control{options.deadline, options.cancel_token},
        source(source) {
    st = MatchStats{};
    trace = options.query_trace;
    if (trace == nullptr && slow_log.armed()) trace = &slow_trace;
    if (trace != nullptr) {
      trace->Start((source == nullptr
                        ? std::string("match")
                        : std::string("match_candidates src=") + source) +
                   " n=" + std::to_string(query.size()) +
                   " k=" + std::to_string(options.k));
    }
  }

  void Finish(const char* reason) {
    const MatcherMetrics& metrics = MatcherMetrics::Get();
    const double seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
    metrics.queries->Inc();
    metrics.latency->Observe(seconds);
    metrics.rounds->Inc(st.iterations);
    metrics.vertices_reported->Inc(st.vertices_reported);
    metrics.vertices_accepted->Inc(st.vertices_accepted);
    metrics.candidates->Inc(st.candidates_evaluated);
    metrics.candidates_skipped->Inc(st.candidates_skipped);
    metrics.candidates_abandoned->Inc(st.candidates_abandoned);
    if (st.partial) metrics.partials->Inc();
    if (st.degraded) metrics.degraded->Inc();
    metrics.TerminationCounter(reason)->Inc();
    if (source != nullptr) {
      metrics.prefilter_queries->Inc();
      metrics.prefilter_candidates->Inc(candidates_emitted);
      metrics.prefilter_verified->Inc(st.candidates_evaluated);
      if (!any_result) metrics.prefilter_empty->Inc();
    }
    if (trace != nullptr) {
      if (st.degraded) {
        trace->AddEvent("degraded",
                        std::to_string(st.skipped_subtrees) +
                            " subtrees skipped (" +
                            std::to_string(st.skipped_leaves) + " leaves)");
      }
      trace->Finish(reason, st.partial, st.degraded);
      if (slow_log.armed()) slow_log.Offer(*trace);
    }
  }

  /// Ranks the best-per-shape table through RankAndClose, then finishes
  /// with `natural_reason` when `stop` is OK and the stop's label
  /// otherwise.
  util::Result<std::vector<MatchResult>> Close(
      const std::unordered_map<ShapeId, MatchResult>& best_per_shape,
      const MatchOptions& options, const util::Status& stop,
      const char* natural_reason) {
    std::vector<MatchResult> results;
    results.reserve(best_per_shape.size());
    for (const auto& [id, result] : best_per_shape) results.push_back(result);
    util::Status status = RankAndClose(&results, options.k,
                                       options.collect_threshold, stop, &st);
    any_result = !results.empty();
    Finish(stop.ok() ? natural_reason : StopReason(stop));
    if (!status.ok()) return status;
    return results;
  }

  MatchStats local_stats;
  MatchStats& st;
  const util::QueryControl control;
  const char* const source;
  const std::chrono::steady_clock::time_point start =
      std::chrono::steady_clock::now();
  obs::SlowQueryLog& slow_log = obs::SlowQueryLog::Default();
  obs::QueryTrace slow_trace;
  obs::QueryTrace* trace = nullptr;
  size_t candidates_emitted = 0;  // Prefilter metrics only.
  bool any_result = false;        // Prefilter metrics only.
  std::optional<util::ScopedQueryControl> scoped;
};

/// The abandoning threshold of one Match or MatchCandidates call
/// (DESIGN.md section 14.3), and the call's best result per shape. A
/// candidate may be dropped once its score provably exceeds For(its
/// shape): min(limit, that shape's best so far), where the limit is
/// collect_threshold in collect mode and otherwise the k-th smallest best
/// among the distinct shapes verified so far. Per shape, never per copy:
/// k copies of one shape must not stand in for k shapes. Only the calling
/// thread records scores, in candidate order. The bests are mirrored in
/// the matcher's `shape_best_` for O(1) lookup; the destructor resets the
/// entries of the shapes this call saw, so every exit leaves them +inf.
class EnvelopeMatcher::AbandonBound {
 public:
  AbandonBound(const MatchOptions& options, std::vector<double>* shape_best)
      : shape_best_(*shape_best),
        k_(options.k),
        // A k above the shape count never fills: nothing to track.
        track_kth_(options.collect_threshold <= 0.0 &&
                   k_ <= shape_best->size()),
        limit_(options.collect_threshold > 0.0
                   ? options.collect_threshold
                   : std::numeric_limits<double>::infinity()) {}
  ~AbandonBound() {
    for (const auto& [id, result] : best_) {
      shape_best_[id] = std::numeric_limits<double>::infinity();
    }
  }

  double For(ShapeId id) const { return std::min(limit_, shape_best_[id]); }

  /// The k-th smallest best among the distinct shapes recorded so far;
  /// +inf until k shapes have been recorded, and in collect mode.
  double Kth() const {
    return track_kth_ && kth_.size() == k_
               ? kth_.back()
               : std::numeric_limits<double>::infinity();
  }

  /// Records a verified (unabandoned) score of one copy.
  void Record(const MatchResult& result) {
    FoldBest(result, &best_);
    double& best = shape_best_[result.shape_id];
    const double distance = result.distance;
    if (!(distance < best)) return;
    if (track_kth_) {
      // kth_ holds the k smallest per-shape bests, sorted. A shape whose
      // old best was among them trades it for the new one; otherwise the
      // new best enters and the largest drops out. (On a tie at the k-th
      // value either choice leaves the same values.)
      if (std::isfinite(best) && best <= limit_) {
        kth_.erase(std::lower_bound(kth_.begin(), kth_.end(), best));
      }
      kth_.insert(std::upper_bound(kth_.begin(), kth_.end(), distance),
                  distance);
      if (kth_.size() > k_) kth_.pop_back();
      if (kth_.size() == k_) limit_ = kth_.back();
    }
    best = distance;
  }

  /// The best verified result per shape.
  const std::unordered_map<ShapeId, MatchResult>& best() const {
    return best_;
  }

 private:
  std::vector<double>& shape_best_;
  const size_t k_;
  const bool track_kth_;
  double limit_;
  std::vector<double> kth_;
  std::unordered_map<ShapeId, MatchResult> best_;
};

util::Status ValidateRanking(const MatchOptions& options, size_t k) {
  if (!std::isfinite(options.collect_threshold)) {
    return util::Status::InvalidArgument(
        "epsilon/stop/threshold options must be finite");
  }
  if (k == 0 && options.collect_threshold <= 0.0) {
    return util::Status::InvalidArgument(
        "k must be positive outside collect mode");
  }
  return util::Status::OK();
}

EnvelopeMatcher::EnvelopeMatcher(const ShapeBase* base) : base_(base) {
  vertex_epoch_.assign(base_->NumVertices(), 0);
  copies_.assign(base_->NumCopies(), CopyScratch{});
  shape_best_.assign(base_->NumShapes(),
                     std::numeric_limits<double>::infinity());
}

util::Result<NormalizedCopy> EnvelopeMatcher::Begin(const Polyline& query,
                                                    const MatchOptions& options,
                                                    Call* call) {
  util::Status entry = call->control.Check();
  if (!entry.ok()) {
    call->st.termination = entry;
    call->Finish(StopReason(entry));
    return entry;
  }
  // Bind the control for layers below that cannot take per-call
  // parameters: the SimplexIndex traversal (external backends poll it per
  // node) and the storage retry loop (no retrying past the deadline).
  // The search runs on this thread, so a thread-local binding reaches
  // exactly this query's index work.
  call->scoped.emplace(&call->control);
  GEOSIR_ASSIGN_OR_RETURN(NormalizedCopy qnorm, NormalizeQuery(query));
  target_ = std::make_unique<QueryTarget>(qnorm.shape, options.similarity);
  return qnorm;
}

util::Status EnvelopeMatcher::Verify(
    std::span<const uint32_t> candidates, const MatchOptions& options,
    Call* call, AbandonBound* bound, AccessTrace* trace) {
  // Chunked so deadline / cancel are observed between chunks without a
  // per-candidate poll. Serially the bound tightens after every
  // candidate; on the pool it is read-only while a chunk fans out and
  // tightens in the merge, in candidate order on this thread, so only
  // the work abandoned depends on the schedule. Pool chunks are larger so
  // one fork-join spans ~1k candidates, most of them abandoned after a
  // few vertices.
  MatchStats& st = call->st;
  util::ThreadPool* pool = ResolvePool(options);
  const size_t slots = pool != nullptr ? pool->MaxSlots(options.num_threads) : 1;
  const size_t chunk_size = pool != nullptr ? 1024 : 64;
  if (edge_scratch_.size() < slots) edge_scratch_.resize(slots);
  const auto verify = [&](size_t worker, uint32_t c) {
    const NormalizedCopy& copy = base_->copy(c);
    return target_->BoundedScore(copy.shape, options.measure,
                                 bound->For(copy.shape_id),
                                 &edge_scratch_[worker]);
  };
  const auto fold = [&](uint32_t c, const std::optional<double>& distance) {
    if (!distance) {
      ++st.candidates_abandoned;
      return;
    }
    bound->Record({base_->copy(c).shape_id, *distance, c});
  };
  for (size_t begin = 0; begin < candidates.size(); begin += chunk_size) {
    util::Status stop = call->control.Check();
    if (!stop.ok()) {
      st.candidates_skipped += candidates.size() - begin;
      return stop;
    }
    const std::span<const uint32_t> chunk = candidates.subspan(
        begin, std::min(chunk_size, candidates.size() - begin));
    if (pool != nullptr && chunk.size() > 1) {
      verified_.resize(chunk.size());
      pool->ParallelFor(chunk.size(), options.num_threads,
                        [&](size_t worker, size_t i) {
                          verified_[i] = verify(worker, chunk[i]);
                        });
      for (size_t i = 0; i < chunk.size(); ++i) fold(chunk[i], verified_[i]);
    } else {
      for (uint32_t c : chunk) fold(c, verify(0, c));
    }
    st.candidates_evaluated += chunk.size();
    if (trace != nullptr) {
      trace->insert(trace->end(), chunk.begin(), chunk.end());
    }
  }
  return util::Status::OK();
}

util::Result<std::vector<MatchResult>> EnvelopeMatcher::Match(
    const Polyline& query, const MatchOptions& options, MatchStats* stats,
    AccessTrace* trace) {
  if (!base_->finalized()) {
    return util::Status::FailedPrecondition("ShapeBase not finalized");
  }
  // Negated comparisons so a NaN parameter fails validation instead of
  // slipping past it (NaN growth would otherwise loop forever: eps never
  // reaches eps_max).
  if (!(options.beta >= 0.0 && options.beta < 1.0)) {
    return util::Status::InvalidArgument("beta must be in [0, 1)");
  }
  if (!(options.growth > 1.0)) {
    return util::Status::InvalidArgument("growth must exceed 1");
  }
  if (!std::isfinite(options.initial_epsilon) ||
      !std::isfinite(options.max_epsilon) ||
      !std::isfinite(options.stop_factor)) {
    return util::Status::InvalidArgument(
        "epsilon/stop/threshold options must be finite");
  }
  GEOSIR_RETURN_IF_ERROR(ValidateRanking(options, options.k));

  Call call(query, options, stats, nullptr);
  MatchStats& st = call.st;
  GEOSIR_ASSIGN_OR_RETURN(const NormalizedCopy qnorm,
                          Begin(query, options, &call));
  const Polyline& q = qnorm.shape;
  const QueryTarget& target = *target_;

  const double n = static_cast<double>(std::max<size_t>(1, base_->NumVertices()));
  const double p = static_cast<double>(std::max<size_t>(1, base_->NumCopies()));
  const double l_q = std::max(1e-9, q.Perimeter());

  // Step 1: initial envelope width chosen so the expected number of pool
  // vertices inside it is about one shape's worth (area ratio heuristic),
  // eps_1 = A / (2 p l_Q). Step 5's stop bound multiplies by log^3 n.
  const bool collect_mode = options.collect_threshold > 0.0;
  const double eps1 = options.initial_epsilon > 0.0
                          ? options.initial_epsilon
                          : kLuneArea / (2.0 * p * l_q);
  const double log_n = Log2(n);
  double eps_max =
      options.max_epsilon > 0.0
          ? options.max_epsilon
          : std::max(eps1 * log_n * log_n * log_n, eps1 * options.growth);
  if (collect_mode) {
    // Grow far enough that every shape within the threshold has become a
    // candidate (Markov bound; beta = 0 degenerates to "all vertices in").
    const double needed =
        options.collect_threshold / std::max(options.beta, 0.05);
    eps_max = std::max(eps_max, needed);
  }
  st.initial_epsilon = eps1;
  st.max_epsilon = eps_max;

  // Fresh epoch; all per-copy/per-vertex scratch self-invalidates. On
  // wrap-around the stamps of the last cycle would alias (and 0, their
  // initial value, would read as "counted"), so clear them first.
  if (++epoch_ == 0) {
    std::fill(vertex_epoch_.begin(), vertex_epoch_.end(), 0);
    for (CopyScratch& copy : copies_) copy.epoch = 0;
    epoch_ = 1;
  }

  // Snapshot the index's fault counters so this query's degradation (an
  // external backend skipping unreadable subtrees) can be reported in the
  // stats without charging it for earlier queries.
  const uint64_t skipped_subtrees_before = base_->index().stats().subtrees_skipped;
  const uint64_t skipped_leaves_before = base_->index().stats().leaves_skipped;

  // The verifier's bound and best result per shape across all rounds
  // (its k-th best also feeds the early exit).
  AbandonBound bound(options, &shape_best_);

  double eps_prev = 0.0;
  double eps = eps1;
  std::vector<uint32_t> touched;  // Copies touched in this iteration.

  // Lifecycle stop state. `hard_stop` (deadline / cancel) abandons the
  // current round without scoring the rest of its candidates — a query on
  // its way out must not start new similarity integrals. `budget_stop`
  // (kResourceExhausted) finishes the round's already-admitted work first:
  // budgets are deterministic cutoffs, not emergencies. Both end the
  // search with best-so-far results.
  util::Status hard_stop;
  util::Status budget_stop;
  const WorkBudget& budget = options.budget;

  // Per-round trace baseline: deltas of the stats counters between round
  // entries become one RoundTrace each. Only maintained when tracing.
  struct RoundBaseline {
    bool active = false;
    size_t round = 0;
    double epsilon = 0.0;
    double at_ms = 0.0;
    size_t vertices_reported = 0;
    size_t vertices_accepted = 0;
    size_t candidates_evaluated = 0;
    size_t candidates_skipped = 0;
    size_t candidates_abandoned = 0;
    uint64_t nodes_visited = 0;
    uint64_t subtrees_skipped = 0;
  } round_base;
  const auto flush_round_trace = [&]() {
    if (call.trace == nullptr || !round_base.active) return;
    obs::RoundTrace round;
    round.round = round_base.round;
    round.epsilon = round_base.epsilon;
    round.elapsed_ms = call.trace->ElapsedMs() - round_base.at_ms;
    round.vertices_reported = st.vertices_reported - round_base.vertices_reported;
    round.vertices_accepted = st.vertices_accepted - round_base.vertices_accepted;
    round.candidates_admitted =
        st.candidates_evaluated - round_base.candidates_evaluated;
    round.candidates_skipped =
        st.candidates_skipped - round_base.candidates_skipped;
    round.candidates_abandoned =
        st.candidates_abandoned - round_base.candidates_abandoned;
    const rangesearch::QueryStats& index_stats = base_->index().stats();
    round.index_nodes_visited =
        index_stats.nodes_visited - round_base.nodes_visited;
    round.subtrees_skipped =
        index_stats.subtrees_skipped - round_base.subtrees_skipped;
    call.trace->AddRound(round);
    round_base.active = false;
  };

  while (true) {
    flush_round_trace();
    // Round-entry checkpoint (also the per-round budget gate).
    if (hard_stop.ok()) hard_stop = call.control.Check();
    if (hard_stop.ok() && budget_stop.ok() && budget.max_rounds > 0 &&
        st.iterations >= budget.max_rounds) {
      budget_stop = util::Status::ResourceExhausted("round budget exhausted");
    }
    if (!hard_stop.ok() || !budget_stop.ok()) break;
    ++st.iterations;
    touched.clear();
    if (call.trace != nullptr) {
      const rangesearch::QueryStats& index_stats = base_->index().stats();
      round_base = RoundBaseline{
          true,
          st.iterations,
          eps,
          call.trace->ElapsedMs(),
          st.vertices_reported,
          st.vertices_accepted,
          st.candidates_evaluated,
          st.candidates_skipped,
          st.candidates_abandoned,
          index_stats.nodes_visited,
          index_stats.subtrees_skipped};
    }

    const geom::EnvelopeRingCover cover =
        geom::BuildEnvelopeRingCover(q, eps_prev, eps);
    for (const geom::Triangle& tri : cover.triangles) {
      base_->index().ReportInTriangle(
          tri, [&](const rangesearch::IndexedPoint& ip) {
            if (!hard_stop.ok()) return;  // Drain the traversal cheaply.
            if (budget.max_vertex_reports > 0 &&
                st.vertices_reported >= budget.max_vertex_reports) {
              if (budget_stop.ok()) {
                budget_stop = util::Status::ResourceExhausted(
                    "vertex-report budget exhausted");
              }
              return;
            }
            ++st.vertices_reported;
            // Amortized deadline/cancel poll: one Check per 1024 reports
            // keeps the overhead unmeasurable on the hot path.
            if ((st.vertices_reported & 1023u) == 0) {
              hard_stop = call.control.Check();
              if (!hard_stop.ok()) return;
            }
            // Both vertex-indexed loads miss cache on a large base (ids
            // arrive in kd order, not pool order); issuing them together
            // overlaps the two misses.
            const uint32_t copy_idx = base_->CopyOfVertex(ip.id);
            if (vertex_epoch_[ip.id] == epoch_) return;  // Deduplicated.
            // Exact membership: the cover is a superset of the ring.
            const double d = target.Distance(ip.p);
            if (d > eps) return;
            vertex_epoch_[ip.id] = epoch_;
            ++st.vertices_accepted;
            CopyScratch& copy = copies_[copy_idx];
            if (copy.epoch != epoch_) {
              copy.epoch = epoch_;
              copy.count = 0;
              copy.evaluated = 0;
            }
            if (copy.touch_iter != st.iterations || copy.count == 0) {
              copy.touch_iter = static_cast<uint32_t>(st.iterations);
              touched.push_back(copy_idx);
            }
            ++copy.count;
          });
      // A fail-fast external backend records the I/O error it hit (the
      // reporting interface itself is void); surface it instead of
      // returning a silently incomplete match. An external backend may
      // also have observed the thread-local lifecycle control and aborted
      // its traversal — that is a stop, not a malfunction.
      {
        util::Status index_status = base_->index().TakeLastError();
        if (!index_status.ok()) {
          if (util::IsLifecycleStop(index_status.code())) {
            if (hard_stop.ok()) hard_stop = index_status;
          } else {
            flush_round_trace();
            call.Finish("error");
            return index_status;
          }
        }
      }
      if (!hard_stop.ok() || !budget_stop.ok()) break;
    }

    // Step 3: collect copies that reached the (1 - beta) occupancy
    // threshold and have not been evaluated yet. When the query is
    // stopping, qualifying copies are counted as skipped instead of
    // admitted — under a candidate budget this cutoff is deterministic
    // (the range-search phase is single-threaded, so `touched` has the
    // same order for every thread count).
    pending_eval_.clear();
    for (uint32_t copy_idx : touched) {
      CopyScratch& scratch = copies_[copy_idx];
      if (scratch.evaluated) continue;
      const NormalizedCopy& copy = base_->copy(copy_idx);
      const size_t num_vertices = copy.shape.size();
      const size_t needed = static_cast<size_t>(
          std::ceil((1.0 - options.beta) * static_cast<double>(num_vertices)));
      // +2: the copy's axis vertices sit at (0,0)/(1,0), on the
      // normalized query's boundary, hence inside every envelope. They
      // are not indexed (see ShapeBase::AddShape), so credit them here.
      if (scratch.count + 2 < std::max<size_t>(1, needed)) continue;
      if (!hard_stop.ok()) {
        ++st.candidates_skipped;
        continue;
      }
      if (budget.max_candidates > 0 &&
          st.candidates_evaluated + pending_eval_.size() >=
              budget.max_candidates) {
        if (budget_stop.ok()) {
          budget_stop =
              util::Status::ResourceExhausted("candidate budget exhausted");
        }
        ++st.candidates_skipped;
        continue;
      }
      scratch.evaluated = 1;
      pending_eval_.push_back(copy_idx);
    }
    if (!hard_stop.ok()) break;  // Nothing admitted; abandon the round.

    // Step 4: score this round's candidate set with the shared verifier.
    // An abandoned candidate's score exceeds min(k-th best, its shape's
    // best), so it changes neither the ranking nor the k-th best below.
    hard_stop = Verify(pending_eval_, options, &call, &bound, trace);
    if (!hard_stop.ok()) break;
    ++st.rounds_completed;

    // Early exit: every unevaluated copy still has > beta of its vertices
    // outside the eps-envelope, so its (discrete, directed) average
    // distance exceeds beta * eps; once the k-th best is below that, no
    // unseen shape can displace it.
    st.final_epsilon = eps;
    if (!collect_mode && options.stop_factor > 0.0 &&
        bound.Kth() <= options.stop_factor * options.beta * eps) {
      st.stopped_early = true;
      budget_stop = util::Status::OK();  // Finished naturally this round.
      break;
    }
    if (eps >= eps_max) {
      st.exhausted = true;
      budget_stop = util::Status::OK();
      break;
    }
    if (!budget_stop.ok()) break;
    eps_prev = eps;
    eps = std::min(eps * options.growth, eps_max);
  }

  flush_round_trace();
  st.skipped_subtrees = static_cast<size_t>(
      base_->index().stats().subtrees_skipped - skipped_subtrees_before);
  st.skipped_leaves = static_cast<size_t>(
      base_->index().stats().leaves_skipped - skipped_leaves_before);
  st.degraded = st.skipped_subtrees > 0;
  return call.Close(bound.best(), options,
                    !hard_stop.ok() ? hard_stop : budget_stop,
                    st.stopped_early ? "early_exit" : "exhausted");
}

util::Result<std::vector<MatchResult>> EnvelopeMatcher::MatchCandidates(
    const Polyline& query, CandidateSource* source, const MatchOptions& options,
    MatchStats* stats, AccessTrace* trace) {
  if (!base_->finalized()) {
    return util::Status::FailedPrecondition("ShapeBase not finalized");
  }
  if (source == nullptr) {
    return util::Status::InvalidArgument("MatchCandidates requires a source");
  }
  GEOSIR_RETURN_IF_ERROR(ValidateRanking(options, options.k));

  Call call(query, options, stats, source->name());
  MatchStats& st = call.st;
  GEOSIR_ASSIGN_OR_RETURN(const NormalizedCopy qnorm,
                          Begin(query, options, &call));

  // Tier 1: candidate generation. The candidate budget is enforced here,
  // at the source, so the truncation is deterministic (the source's
  // preference order does not depend on timing or thread count).
  CandidateSourceStats gen_stats;
  std::vector<uint32_t> candidates;
  util::Status generate = source->Generate(
      qnorm.shape, options.budget.max_candidates, options, &candidates,
      &gen_stats);
  call.candidates_emitted = candidates.size();
  if (call.trace != nullptr) {
    call.trace->AddEvent("candidates",
                         std::string(source->name()) + " emitted " +
                             std::to_string(candidates.size()) +
                             (gen_stats.truncated ? " (truncated)" : ""));
  }
  if (!generate.ok()) {
    if (!util::IsLifecycleStop(generate.code())) {
      call.Finish("error");
      return generate;
    }
    // A query already on its way out must not start similarity
    // integrals: drop the generated prefix unscored, per the
    // nothing-ranked-yet contract.
    st.candidates_skipped = candidates.size();
    st.termination = generate;
    call.Finish(StopReason(generate));
    return generate;
  }
  util::Status budget_stop;
  if (gen_stats.truncated) {
    budget_stop = util::Status::ResourceExhausted("candidate budget exhausted");
  }

  // Tier 2: exact verification under options.measure, in source
  // preference order.
  AbandonBound bound(options, &shape_best_);
  const util::Status hard_stop =
      Verify(candidates, options, &call, &bound, trace);

  // A fully scored candidate set — even an approximate one — is a
  // natural "exhausted" finish.
  const util::Status stop = !hard_stop.ok() ? hard_stop : budget_stop;
  st.exhausted = stop.ok();
  return call.Close(bound.best(), options, stop, "exhausted");
}

util::Status RunMatchBatch(
    const ShapeBase* base, size_t n, const MatchOptions& options,
    std::vector<MatchStats>* stats,
    const std::function<util::Status(EnvelopeMatcher*, size_t, MatchStats*)>&
        run_query) {
  if (stats != nullptr) stats->assign(n, MatchStats{});
  if (n == 0) return util::Status::OK();

  util::ThreadPool* pool = ResolvePool(options);
  const size_t slots =
      pool != nullptr ? pool->MaxSlots(options.num_threads) : 1;

  // One matcher per worker slot: Match owns per-query scratch, so
  // concurrent queries must not share an instance. Within one query the
  // candidate scoring already fans out through the same pool; nested
  // parallel regions degrade to inline execution, which keeps per-query
  // results identical to a serial loop.
  std::vector<std::unique_ptr<EnvelopeMatcher>> matchers(slots);
  if (base != nullptr) {
    for (auto& matcher : matchers) {
      matcher = std::make_unique<EnvelopeMatcher>(base);
    }
  }
  std::vector<util::Status> errors(n);
  std::vector<uint8_t> started(n, 0);

  // Per-query lifecycle stops do not fail the batch: a query that ran out
  // of time (or hit its budget / a batch-wide cancel) leaves its partial
  // results (possibly empty) with the stop recorded in
  // stats[i].termination, while the other queries proceed. Real errors
  // still fail the whole batch, first query order.
  const auto run = [&](size_t worker, size_t i) {
    started[i] = 1;
    util::Status status = run_query(matchers[worker].get(), i,
                                    stats != nullptr ? &(*stats)[i] : nullptr);
    if (!util::IsLifecycleStop(status.code())) errors[i] = std::move(status);
  };
  if (pool != nullptr) {
    // The token doubles as the pool's checkpoint: once cancelled, queries
    // not yet claimed never start (marked below), in-flight ones observe
    // the token themselves and stop with best-so-far.
    pool->ParallelFor(n, options.num_threads, run, options.cancel_token);
  } else {
    for (size_t i = 0; i < n; ++i) {
      if (options.cancel_token != nullptr && options.cancel_token->cancelled()) {
        break;
      }
      run(0, i);
    }
  }
  if (stats != nullptr) {
    for (size_t i = 0; i < n; ++i) {
      if (!started[i]) {
        (*stats)[i].termination =
            util::Status::Cancelled("batch cancelled before query started");
      }
    }
  }
  for (const util::Status& status : errors) {
    GEOSIR_RETURN_IF_ERROR(status);
  }
  return util::Status::OK();
}

util::Result<std::vector<std::vector<MatchResult>>> MatchBatch(
    const ShapeBase& base, const std::vector<Polyline>& queries,
    const MatchOptions& options, std::vector<MatchStats>* stats) {
  if (!base.finalized()) {
    return util::Status::FailedPrecondition("ShapeBase not finalized");
  }
  std::vector<std::vector<MatchResult>> results(queries.size());
  GEOSIR_RETURN_IF_ERROR(RunMatchBatch(
      &base, queries.size(), options, stats,
      [&](EnvelopeMatcher* matcher, size_t i, MatchStats* query_stats) {
        auto result = matcher->Match(queries[i], options, query_stats);
        if (result.ok()) results[i] = std::move(result).value();
        return result.status();
      }));
  return results;
}

}  // namespace geosir::core
