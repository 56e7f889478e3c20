#ifndef GEOSIR_OBS_TRACE_H_
#define GEOSIR_OBS_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace geosir::obs {

/// One ε-round of the envelope matcher, with per-round deltas of exactly
/// the quantities the paper's experimental section plots (Section 5:
/// node accesses, points tested, rounds, buffer behaviour).
struct RoundTrace {
  size_t round = 0;           // 1-based, == MatchStats::iterations.
  double epsilon = 0.0;       // Envelope width this round searched to.
  double elapsed_ms = 0.0;    // Wall clock spent in the round.
  uint64_t vertices_reported = 0;
  uint64_t vertices_accepted = 0;
  uint64_t candidates_admitted = 0;
  uint64_t candidates_skipped = 0;
  uint64_t candidates_abandoned = 0;  // Dropped by the verifier early.
  /// External backends only: node blocks pinned (== block reads modulo
  /// buffer hits) and subtrees skipped under degradation, this round.
  uint64_t index_nodes_visited = 0;
  uint64_t subtrees_skipped = 0;
};

/// A point event on the query timeline (degradation, salvage, admission
/// wait, span completion). `at_ms` is relative to QueryTrace::Start.
struct TraceEvent {
  double at_ms = 0.0;
  std::string kind;    // e.g. "span", "degraded", "termination".
  std::string detail;  // Free-form; spans use "<name> <duration>ms".
};

/// Opt-in per-query timeline. A caller that wants one hands a fresh
/// QueryTrace to MatchOptions::query_trace; the matcher stamps Start at
/// entry, appends one RoundTrace per ε-round plus events, and fills the
/// summary fields at exit. Cost is proportional to rounds + events, never
/// to vertices; a null trace costs one pointer test.
///
/// Not thread-safe: one trace belongs to one query. (Candidate scoring
/// may fan out across a pool, but the matcher only appends from the
/// control thread.)
class QueryTrace {
 public:
  /// Stamps t0 and clears any previous recording, so one instance can be
  /// reused across queries.
  void Start(std::string label);

  /// Milliseconds since Start (0 before Start).
  double ElapsedMs() const;

  void AddEvent(std::string kind, std::string detail);
  void AddRound(const RoundTrace& round) { rounds_.push_back(round); }

  /// Called once at query exit; also freezes total_ms.
  void Finish(std::string termination, bool partial, bool degraded);

  const std::string& label() const { return label_; }
  double total_ms() const { return total_ms_; }
  const std::string& termination() const { return termination_; }
  bool partial() const { return partial_; }
  bool degraded() const { return degraded_; }
  const std::vector<RoundTrace>& rounds() const { return rounds_; }
  const std::vector<TraceEvent>& events() const { return events_; }

  /// One JSON object (single line) with the summary, rounds and events —
  /// the slow-query log dumps these, and they are jq-friendly next to the
  /// bench/results JSONL files.
  std::string ToJson() const;

 private:
  std::string label_;
  std::chrono::steady_clock::time_point start_{};
  bool started_ = false;
  double total_ms_ = 0.0;
  std::string termination_;
  bool partial_ = false;
  bool degraded_ = false;
  std::vector<RoundTrace> rounds_;
  std::vector<TraceEvent> events_;
};

/// RAII span: records "<name> <duration>ms" as a TraceEvent when it goes
/// out of scope. A null trace makes it a no-op, so spans can be left in
/// place on production paths.
class TraceSpan {
 public:
  TraceSpan(QueryTrace* trace, const char* name)
      : trace_(trace), name_(name) {
    if (trace_ != nullptr) start_ = std::chrono::steady_clock::now();
  }
  ~TraceSpan();

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  QueryTrace* trace_;
  const char* name_;
  std::chrono::steady_clock::time_point start_{};
};

}  // namespace geosir::obs

#endif  // GEOSIR_OBS_TRACE_H_
