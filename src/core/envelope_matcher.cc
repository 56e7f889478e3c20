#include "core/envelope_matcher.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <iterator>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>

#include "core/candidate_source.h"
#include "geom/distance.h"
#include "geom/envelope.h"
#include "geom/kernel_dispatch.h"
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
  // By kTerminations; the last, "error", also takes unknown reasons.
  static constexpr const char* kTerminations[] = {
      "early_exit", "exhausted", "deadline", "cancelled", "budget", "error"};
  obs::Counter* terminations[std::size(kTerminations)];
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
      for (size_t i = 0; i < std::size(kTerminations); ++i) {
        m->terminations[i] = r.GetCounter(
            "geosir_matcher_terminations_total", "Match terminations by reason",
            std::string("reason=\"") + kTerminations[i] + "\"");
      }
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

  obs::Counter* TerminationCounter(std::string_view reason) const {
    const auto* last = std::end(kTerminations) - 1;
    return terminations[std::find(std::begin(kTerminations), last, reason) -
                        std::begin(kTerminations)];
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

bool IsDiscrete(MatchMeasure measure) {
  return measure == MatchMeasure::kDiscreteSymmetric ||
         measure == MatchMeasure::kDiscreteDirected;
}

/// Pool to run on, or null for fully serial execution.
util::ThreadPool* ResolvePool(const MatchOptions& options) {
  if (options.num_threads <= 1) return nullptr;
  return options.pool != nullptr ? options.pool : &util::ThreadPool::Shared();
}

/// The option checks every ranking entry point shares: a finite
/// collect_threshold, and a positive result count `k` outside collect
/// mode (kInvalidArgument otherwise).
util::Status ValidateRanking(const MatchOptions& options) {
  if (!std::isfinite(options.collect_threshold)) {
    return util::Status::InvalidArgument(
        "epsilon/stop/threshold options must be finite");
  }
  if (options.k == 0 && options.collect_threshold <= 0.0) {
    return util::Status::InvalidArgument(
        "k must be positive outside collect mode");
  }
  return util::Status::OK();
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
  bool field_built = false;       // The matcher's field is this query's.
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

EnvelopeMatcher::EnvelopeMatcher(const ShapeBase* base) : base_(base) {
  vertex_epoch_.assign(base_->NumVertices(), 0);
  copies_.assign(base_->NumIndexedCopies(), CopyScratch{});
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
  if (slots_.size() < slots) slots_.resize(slots);
  // The lower-bound field (DESIGN.md section 14.3): built at most once per
  // call, and only when a verifier call's candidates pay for the build.
  // It is part of the first chunk's work: built on the calling thread
  // after that chunk's deadline / cancel poll, before its fan-out, and
  // read-only from then on.
  const BoundField* field = call->field_built ? &field_ : nullptr;
  const auto verify = [&](size_t worker, uint32_t c) -> std::optional<double> {
    const NormalizedCopy& copy = base_->copy(c);
    const double threshold = bound->For(copy.shape_id);
    // A copy the field abandons is one BoundedScore abandons too.
    if (field != nullptr && field->Abandons(copy.shape, threshold)) {
      ++slots_[worker].field_dropped;
      return std::nullopt;
    }
    return target_->BoundedScore(copy.shape, options.measure, threshold,
                                 &slots_[worker].edges);
  };
  const auto fold = [&](uint32_t c, const std::optional<double>& distance) {
    if (!distance) {
      ++st.candidates_abandoned;
      return;
    }
    bound->Record({base_->copy(c).shape_id, *distance, c});
  };
  util::Status stop;
  for (size_t begin = 0; begin < candidates.size(); begin += chunk_size) {
    stop = call->control.Check();
    if (!stop.ok()) {
      st.candidates_skipped += candidates.size() - begin;
      break;
    }
    if (field == nullptr && IsDiscrete(options.measure) &&
        candidates.size() >= field_min_candidates_) {
      field_.Build(*target_, base_->options().normalize.alpha);
      call->field_built = true;
      field = &field_;
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
  if (field != nullptr) {
    size_t dropped = 0;
    for (VerifierSlot& slot : slots_) {
      dropped += slot.field_dropped;
      slot.field_dropped = 0;
    }
    if (call->trace != nullptr) {
      call->trace->AddEvent("field", std::to_string(field->num_nodes()) +
                                         " nodes, dropped " +
                                         std::to_string(dropped) + " of " +
                                         std::to_string(candidates.size()) +
                                         " copies");
    }
  }
  return stop;
}

/// The epsilon-envelope of Section 2.5 as the driver's one multi-round
/// source. Generate fixes the schedule eps_1 -> eps_max and emits round
/// one; NextRound applies the stop rule to the verifier's k-th best, then
/// grows the envelope and emits the copies that newly reached the
/// (1 - beta) occupancy threshold. The last round is the base's live
/// unindexed tail. The source keeps the envelope's share of MatchStats
/// and one RoundTrace per round, in the matcher's epoch-stamped scratch.
class EnvelopeMatcher::EnvelopeSource final : public CandidateSource {
 public:
  EnvelopeSource(EnvelopeMatcher* matcher, Call* call)
      : m_(*matcher), base_(*matcher->base_), call_(*call), st_(call->st) {}

  const char* name() const override { return "envelope"; }

  util::Status Generate(const Polyline& normalized_query,
                        size_t max_candidates, const MatchOptions& options,
                        std::vector<uint32_t>* out,
                        CandidateSourceStats* stats) override {
    out->clear();
    q_ = &normalized_query;
    max_candidates_ = max_candidates;
    // n and p count the indexed vertices and copies only, removal-marked
    // ones included: the envelope schedule is the static base's.
    const double n = std::max<size_t>(1, base_.NumVertices());
    const double p = std::max<size_t>(1, base_.NumIndexedCopies());
    const double l_q = std::max(1e-9, q_->Perimeter());

    // Step 1: initial envelope width chosen so the expected number of pool
    // vertices inside it is about one shape's worth (area ratio
    // heuristic), eps_1 = A / (2 p l_Q). Step 5's stop bound multiplies by
    // log^3 n.
    eps_ = options.initial_epsilon > 0.0 ? options.initial_epsilon
                                         : kLuneArea / (2.0 * p * l_q);
    const double log_n = Log2(n);
    eps_max_ = options.max_epsilon > 0.0
                   ? options.max_epsilon
                   : std::max(eps_ * log_n * log_n * log_n,
                              eps_ * options.growth);
    if (options.collect_threshold > 0.0) {
      // Grow far enough that every shape within the threshold has become a
      // candidate (Markov bound; beta = 0 degenerates to "all vertices
      // in").
      eps_max_ = std::max(eps_max_, options.collect_threshold /
                                        std::max(options.beta, 0.05));
    }
    st_.initial_epsilon = eps_;
    st_.max_epsilon = eps_max_;

    // Fresh epoch; all per-copy/per-vertex scratch self-invalidates. On
    // wrap-around the stamps of the last cycle would alias (and 0, their
    // initial value, would read as "counted"), so clear them first.
    if (++m_.epoch_ == 0) {
      std::fill(m_.vertex_epoch_.begin(), m_.vertex_epoch_.end(), 0);
      for (CopyScratch& copy : m_.copies_) copy.epoch = 0;
      m_.epoch_ = 1;
    }
    // Snapshot the index's fault counters so this query's degradation (an
    // external backend skipping unreadable subtrees) can be reported in
    // the stats without charging it for earlier queries.
    index_before_ = base_.index().stats();
    // No rounds when nothing is indexed: the tail is the whole base.
    if (base_.NumIndexedCopies() == 0) {
      return End(util::Status::OK(), out, stats);
    }
    return Round(options, out, stats);
  }

  util::Status NextRound(const util::Status& verified, double kth_best,
                         const MatchOptions& options,
                         std::vector<uint32_t>* out,
                         CandidateSourceStats* stats) override {
    *stats = CandidateSourceStats{};
    out->clear();
    if (tail_) {  // The tail was the last round.
      TailEvent();
      return verified;
    }
    FlushRoundTrace();
    if (!verified.ok()) return End(verified, out, stats);
    ++st_.rounds_completed;
    // Early exit: every unevaluated copy still has > beta of its vertices
    // outside the eps-envelope, so its (discrete, directed) average
    // distance exceeds beta * eps; once the k-th best is below that, no
    // unseen shape can displace it. Either natural finish overrides a
    // budget hit in the round just verified.
    st_.final_epsilon = eps_;
    if (options.collect_threshold <= 0.0 && options.stop_factor > 0.0 &&
        kth_best <= options.stop_factor * options.beta * eps_) {
      st_.stopped_early = true;
      return End(util::Status::OK(), out, stats);
    }
    if (eps_ >= eps_max_) {
      st_.exhausted = true;
      return End(util::Status::OK(), out, stats);
    }
    if (!budget_stop_.ok()) return End(budget_stop_, out, stats);
    eps_prev_ = eps_;
    eps_ = std::min(eps_ * options.growth, eps_max_);
    return Round(options, out, stats);
  }

 private:
  /// One epsilon-round (steps 2-3): reports the vertices in the ring
  /// between the previous envelope and this one, counts each copy's
  /// vertices inside, and emits the copies that reached the occupancy
  /// threshold. A vertex or candidate budget hit here ends the envelope in
  /// NextRound, once the stop rule has been applied.
  util::Status Round(const MatchOptions& options, std::vector<uint32_t>* out,
                     CandidateSourceStats* stats) {
    // Round-entry checkpoint (also the per-round budget gate).
    const WorkBudget& budget = options.budget;
    util::Status stop = call_.control.Check();
    if (stop.ok() && budget.max_rounds > 0 &&
        st_.iterations >= budget.max_rounds) {
      stop = util::Status::ResourceExhausted("round budget exhausted");
    }
    if (!stop.ok()) return End(stop, out, stats);
    ++st_.iterations;
    touched_.clear();
    if (call_.trace != nullptr) {
      round_open_ = true;
      round_at_ms_ = call_.trace->ElapsedMs();
      round_entry_ = st_;
      index_entry_ = base_.index().stats();
    }

    // A deadline / cancel stop abandons the round without emitting any of
    // its candidates: a query on its way out must not start new
    // similarity integrals. A budget stop (kResourceExhausted) still emits
    // what was admitted: budgets are deterministic cutoffs, not
    // emergencies.
    util::Status hard_stop;
    const QueryTarget& target = *m_.target_;
    std::vector<uint32_t>& vertex_epoch = m_.vertex_epoch_;
    std::vector<CopyScratch>& copies = m_.copies_;
    const uint32_t epoch = m_.epoch_;
    const geom::EnvelopeRingCover cover =
        geom::BuildEnvelopeRingCover(*q_, eps_prev_, eps_);
    size_t ring_evals = 0;  // Flushed to the kernel counter once per round.
    for (const geom::Triangle& tri : cover.triangles) {
      base_.index().ReportInTriangle(
          tri, [&](const rangesearch::IndexedPoint& ip) {
            if (!hard_stop.ok()) return;  // Drain the traversal cheaply.
            if (budget.max_vertex_reports > 0 &&
                st_.vertices_reported >= budget.max_vertex_reports) {
              if (budget_stop_.ok()) {
                budget_stop_ = util::Status::ResourceExhausted(
                    "vertex-report budget exhausted");
              }
              return;
            }
            ++st_.vertices_reported;
            // Amortized deadline/cancel poll: one Check per 1024 reports
            // keeps the overhead unmeasurable on the hot path.
            if ((st_.vertices_reported & 1023u) == 0) {
              hard_stop = call_.control.Check();
              if (!hard_stop.ok()) return;
            }
            // Both vertex-indexed loads miss cache on a large base (ids
            // arrive in kd order, not pool order); issuing them together
            // overlaps the two misses.
            const uint32_t copy_idx = base_.CopyOfVertex(ip.id);
            if (vertex_epoch[ip.id] == epoch) return;  // Deduplicated.
            // Exact membership: the cover is a superset of the ring.
            ++ring_evals;
            const double d = target.Distance(ip.p);
            if (d > eps_) return;
            vertex_epoch[ip.id] = epoch;
            ++st_.vertices_accepted;
            CopyScratch& copy = copies[copy_idx];
            if (copy.epoch != epoch) {
              copy.epoch = epoch;
              copy.count = 0;
              copy.evaluated = 0;
            }
            if (copy.touch_iter != st_.iterations || copy.count == 0) {
              copy.touch_iter = static_cast<uint32_t>(st_.iterations);
              touched_.push_back(copy_idx);
            }
            ++copy.count;
          });
      // A fail-fast external backend records the I/O error it hit (the
      // reporting interface itself is void); surface it instead of
      // returning a silently incomplete match. An external backend may
      // also have observed the thread-local lifecycle control and aborted
      // its traversal — that is a stop, not a malfunction.
      util::Status index_status = base_.index().TakeLastError();
      if (!index_status.ok()) {
        if (!util::IsLifecycleStop(index_status.code())) {
          FlushRoundTrace();
          return index_status;
        }
        if (hard_stop.ok()) hard_stop = index_status;
      }
      if (!hard_stop.ok() || !budget_stop_.ok()) break;
    }
    geom::CountBatchedEdges(ring_evals * target.flat_edges());

    // Step 3: emit the copies that reached the (1 - beta) occupancy
    // threshold and have not been emitted yet. When the query is stopping,
    // qualifying copies are counted as skipped instead — under a candidate
    // budget this cutoff is deterministic (the range-search phase is
    // single-threaded, so `touched_` has the same order for every thread
    // count).
    for (uint32_t copy_idx : touched_) {
      CopyScratch& scratch = copies[copy_idx];
      if (scratch.evaluated) continue;
      const NormalizedCopy& copy = base_.copy(copy_idx);
      if (base_.removed(copy.shape_id)) continue;  // Never a candidate.
      const size_t num_vertices = copy.shape.size();
      const size_t needed = static_cast<size_t>(
          std::ceil((1.0 - options.beta) * static_cast<double>(num_vertices)));
      // +2: the copy's axis vertices sit at (0,0)/(1,0), on the
      // normalized query's boundary, hence inside every envelope. They
      // are not indexed (see ShapeBase::AddShape), so credit them here.
      if (scratch.count + 2 < std::max<size_t>(1, needed)) continue;
      if (!hard_stop.ok()) {
        ++st_.candidates_skipped;
        continue;
      }
      if (max_candidates_ > 0 &&
          st_.candidates_evaluated + out->size() >= max_candidates_) {
        if (budget_stop_.ok()) {
          budget_stop_ =
              util::Status::ResourceExhausted("candidate budget exhausted");
        }
        ++st_.candidates_skipped;
        continue;
      }
      scratch.evaluated = 1;
      out->push_back(copy_idx);
    }
    if (!hard_stop.ok()) return End(hard_stop, out, stats);
    stats->more_rounds = true;
    return util::Status::OK();
  }

  /// The envelope is done: naturally (`stop` OK) or by a lifecycle stop.
  /// Either way the live copies of the unindexed tail, which no envelope
  /// reaches, come last: verified directly against the rounds' bound as
  /// the final round, truncated at the candidate budget left, or, when
  /// stopping, returned with the stop as skipped.
  util::Status End(const util::Status& stop, std::vector<uint32_t>* out,
                   CandidateSourceStats* stats) {
    FlushRoundTrace();
    const rangesearch::QueryStats& index = base_.index().stats();
    st_.skipped_subtrees = static_cast<size_t>(
        index.subtrees_skipped - index_before_.subtrees_skipped);
    st_.skipped_leaves =
        static_cast<size_t>(index.leaves_skipped - index_before_.leaves_skipped);
    st_.degraded = st_.skipped_subtrees > 0;
    for (auto c = static_cast<uint32_t>(base_.NumIndexedCopies());
         c < base_.NumCopies(); ++c) {
      if (!base_.removed(base_.copy(c).shape_id)) out->push_back(c);
    }
    tail_ = out->size();
    if (!stop.ok()) {
      TailEvent();
      return stop;
    }
    const size_t left = max_candidates_ - std::min(max_candidates_,
                                                   st_.candidates_evaluated);
    if (max_candidates_ > 0 && out->size() > left) {
      st_.candidates_skipped += out->size() - left;
      out->resize(left);
      stats->truncated = true;
    }
    stats->more_rounds = true;  // TailEvent follows the verification.
    return util::Status::OK();
  }

  void TailEvent() const {
    if (call_.trace != nullptr && *tail_ > 0) {
      call_.trace->AddEvent("tail",
                            std::to_string(*tail_) + " unindexed copies");
    }
  }

  /// Closes the open round's RoundTrace: the stats counters' deltas since
  /// round entry. Only kept when tracing.
  void FlushRoundTrace() {
    if (!round_open_) return;
    round_open_ = false;
    const MatchStats& entry = round_entry_;
    const rangesearch::QueryStats& index = base_.index().stats();
    call_.trace->AddRound(obs::RoundTrace{
        st_.iterations, eps_, call_.trace->ElapsedMs() - round_at_ms_,
        st_.vertices_reported - entry.vertices_reported,
        st_.vertices_accepted - entry.vertices_accepted,
        st_.candidates_evaluated - entry.candidates_evaluated,
        st_.candidates_skipped - entry.candidates_skipped,
        st_.candidates_abandoned - entry.candidates_abandoned,
        index.nodes_visited - index_entry_.nodes_visited,
        index.subtrees_skipped - index_entry_.subtrees_skipped});
  }

  EnvelopeMatcher& m_;
  const ShapeBase& base_;
  Call& call_;
  MatchStats& st_;
  const Polyline* q_ = nullptr;
  size_t max_candidates_ = 0;
  double eps_prev_ = 0.0;
  double eps_ = 0.0;
  double eps_max_ = 0.0;
  rangesearch::QueryStats index_before_;  // At query entry.
  util::Status budget_stop_;  // A round's vertex or candidate budget hit.
  std::vector<uint32_t> touched_;  // Copies touched in this round.
  std::optional<size_t> tail_;  // Live tail copies, once emitted.
  // The open round's baseline, when tracing.
  bool round_open_ = false;
  double round_at_ms_ = 0.0;
  MatchStats round_entry_;
  rangesearch::QueryStats index_entry_;
};

util::Result<std::vector<MatchResult>> EnvelopeMatcher::Run(
    const Polyline& query, CandidateSource* source, const MatchOptions& options,
    Call* call, AccessTrace* trace) {
  MatchStats& st = call->st;
  util::Status status = call->control.Check();
  if (!status.ok()) {
    st.termination = status;
    call->Finish(StopReason(status));
    return status;
  }
  // Bind the control for layers below that cannot take per-call
  // parameters: the SimplexIndex traversal (external backends poll it per
  // node) and the storage retry loop (no retrying past the deadline).
  // The search runs on this thread, so a thread-local binding reaches
  // exactly this query's index work.
  call->scoped.emplace(&call->control);
  // The tail may have grown since the last call.
  shape_best_.resize(base_->NumShapes(),
                     std::numeric_limits<double>::infinity());
  GEOSIR_ASSIGN_OR_RETURN(const NormalizedCopy qnorm, NormalizeQuery(query));
  target_ = std::make_unique<QueryTarget>(qnorm.shape, options.similarity);

  // The verifier's bound and best result per shape across all rounds; its
  // k-th best is the feedback a multi-round source's stop rule reads.
  AbandonBound bound(options, &shape_best_);
  CandidateSourceStats round_stats;
  // The candidate budget is enforced at the source, so a truncation is
  // deterministic (the source's order does not depend on timing or thread
  // count).
  status = source->Generate(qnorm.shape, options.budget.max_candidates,
                            options, &round_, &round_stats);
  while (true) {
    if (call->source != nullptr) {
      call->candidates_emitted += round_.size();
      if (call->trace != nullptr) {
        call->trace->AddEvent(
            "candidates",
            std::string(source->name()) + " emitted " +
                std::to_string(round_.size()) +
                (round_stats.truncated ? " (truncated)" : ""));
      }
    }
    if (!status.ok()) {
      if (!util::IsLifecycleStop(status.code())) {
        call->Finish("error");
        return status;
      }
      // A query on its way out starts no similarity integrals: the
      // round's candidates count as skipped.
      st.candidates_skipped += round_.size();
      break;
    }
    // An empty last round only ends the source; every other round is
    // verified, even an empty one.
    if (!round_.empty() || round_stats.more_rounds) {
      // Whatever the source emits, a removed shape is never verified.
      if (base_->NumRemoved() > 0) {
        std::erase_if(round_, [this](uint32_t c) {
          return base_->removed(base_->copy(c).shape_id);
        });
      }
      status = Verify(round_, options, call, &bound, trace);
    }
    if (status.ok() && round_stats.truncated) {
      status = util::Status::ResourceExhausted("candidate budget exhausted");
    }
    if (!round_stats.more_rounds) break;
    status = source->NextRound(status, bound.Kth(), options, &round_,
                               &round_stats);
  }
  // A fully verified candidate set — even an approximate one — is a
  // natural "exhausted" finish, unless a stop rule ended it early.
  if (status.ok() && !st.stopped_early) st.exhausted = true;
  std::vector<MatchResult> results;
  results.reserve(bound.best().size());
  for (const auto& [id, result] : bound.best()) results.push_back(result);
  const util::Status closed = RankAndClose(
      &results, options.k, options.collect_threshold, status, &st);
  call->any_result = !results.empty();
  call->Finish(!status.ok()         ? StopReason(status)
               : st.stopped_early ? "early_exit"
                                  : "exhausted");
  if (!closed.ok()) return closed;
  return results;
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
  GEOSIR_RETURN_IF_ERROR(ValidateRanking(options));
  Call call(query, options, stats, nullptr);
  EnvelopeSource envelope(this, &call);
  return Run(query, &envelope, options, &call, trace);
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
  GEOSIR_RETURN_IF_ERROR(ValidateRanking(options));
  Call call(query, options, stats, source->name());
  return Run(query, source, options, &call, trace);
}

util::Result<std::vector<std::vector<MatchResult>>> MatchBatch(
    const ShapeBase& base, const std::vector<Polyline>& queries,
    const MatchOptions& options, std::vector<MatchStats>* stats) {
  if (!base.finalized()) {
    return util::Status::FailedPrecondition("ShapeBase not finalized");
  }
  const size_t n = queries.size();
  std::vector<std::vector<MatchResult>> results(n);
  if (stats != nullptr) stats->assign(n, MatchStats{});
  if (n == 0) return results;

  util::ThreadPool* pool = ResolvePool(options);
  const size_t slots =
      pool != nullptr ? pool->MaxSlots(options.num_threads) : 1;

  // One matcher per worker slot: Match owns per-query scratch, so
  // concurrent queries must not share an instance. Within one query the
  // candidate scoring already fans out through the same pool; nested
  // parallel regions degrade to inline execution, which keeps per-query
  // results identical to a serial loop.
  std::vector<std::unique_ptr<EnvelopeMatcher>> matchers(slots);
  for (auto& matcher : matchers) {
    matcher = std::make_unique<EnvelopeMatcher>(&base);
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
    auto result = matchers[worker]->Match(
        queries[i], options, stats != nullptr ? &(*stats)[i] : nullptr);
    if (result.ok()) {
      results[i] = std::move(result).value();
    } else if (!util::IsLifecycleStop(result.status().code())) {
      errors[i] = result.status();
    }
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
  return results;
}

}  // namespace geosir::core
