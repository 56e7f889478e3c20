#ifndef GEOSIR_PERFBENCH_LAYERS_H_
#define GEOSIR_PERFBENCH_LAYERS_H_

// Decorators the benchmark installs at the library's own seams, so the
// traced run can time a layer from outside: a SimplexIndex wrapper
// (installed through ShapeBaseOptions::index_factory), a timing
// CandidateSource wrapper, and a replay CandidateSource that re-emits a
// recorded candidate list (verification timed without the probe).

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/candidate_source.h"
#include "core/shape_base.h"
#include "rangesearch/simplex_index.h"
#include "trace.h"

namespace perfbench {

/// Calls into the range-search layer made on this thread, and the
/// nanoseconds spent inside them (counted only while tracing). Read the
/// difference around a query to attribute index work to it.
struct IndexCallTally {
  uint64_t calls = 0;
  int64_t ns = 0;
};
inline IndexCallTally& ThreadIndexTally() {
  thread_local IndexCallTally tally;
  return tally;
}

/// Forwards every call to the backend index. The matcher reads
/// subtrees_skipped / leaves_skipped from stats() around each query, so
/// the inner index's counters are copied out after every call. When
/// tracing, each query call is a "rangesearch.*" span and is tallied per
/// thread; the time includes the caller's visitor, which runs inside
/// ReportInTriangle / ReportInRect.
class TimedSimplexIndex final : public geosir::rangesearch::SimplexIndex {
 public:
  explicit TimedSimplexIndex(
      std::unique_ptr<geosir::rangesearch::SimplexIndex> inner)
      : inner_(std::move(inner)) {}

  static std::unique_ptr<geosir::rangesearch::SimplexIndex> MakeKdTree() {
    return std::make_unique<TimedSimplexIndex>(
        geosir::core::MakeSimplexIndex(geosir::core::IndexBackend::kKdTree));
  }

  void Build(std::vector<geosir::rangesearch::IndexedPoint> points) override {
    trace::ScopedSpan span("rangesearch.build");
    inner_->Build(std::move(points));
    stats_ = inner_->stats();
  }
  size_t CountInTriangle(const geosir::geom::Triangle& t) const override {
    return Timed("rangesearch.count", [&] { return inner_->CountInTriangle(t); });
  }
  void ReportInTriangle(const geosir::geom::Triangle& t,
                        const Visitor& visit) const override {
    Timed("rangesearch.report", [&] {
      inner_->ReportInTriangle(t, visit);
      return 0;
    });
  }
  size_t CountInRect(const geosir::geom::BoundingBox& box) const override {
    return Timed("rangesearch.count", [&] { return inner_->CountInRect(box); });
  }
  void ReportInRect(const geosir::geom::BoundingBox& box,
                    const Visitor& visit) const override {
    Timed("rangesearch.report", [&] {
      inner_->ReportInRect(box, visit);
      return 0;
    });
  }
  std::string name() const override { return inner_->name(); }
  size_t size() const override { return inner_->size(); }
  geosir::util::Status TakeLastError() const override {
    return inner_->TakeLastError();
  }

 private:
  template <typename Fn>
  size_t Timed(const char* span_name, Fn&& fn) const {
    size_t result = 0;
    if (trace::Enabled()) {
      trace::ScopedSpan span(span_name);
      const auto start = std::chrono::steady_clock::now();
      result = fn();
      IndexCallTally& tally = ThreadIndexTally();
      ++tally.calls;
      tally.ns += std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now() - start)
                      .count();
    } else {
      result = fn();
    }
    stats_ = inner_->stats();
    return result;
  }

  std::unique_ptr<geosir::rangesearch::SimplexIndex> inner_;
};

/// Times Generate of another source as an "lsh.generate" span.
class TimedSource final : public geosir::core::CandidateSource {
 public:
  explicit TimedSource(geosir::core::CandidateSource* inner) : inner_(inner) {}
  const char* name() const override { return inner_->name(); }
  geosir::util::Status Generate(const geosir::geom::Polyline& normalized_query,
                                size_t max_candidates,
                                const geosir::core::MatchOptions& options,
                                std::vector<uint32_t>* out,
                                geosir::core::CandidateSourceStats* stats)
      override {
    trace::ScopedSpan span("lsh.generate");
    return inner_->Generate(normalized_query, max_candidates, options, out,
                            stats);
  }

 private:
  geosir::core::CandidateSource* inner_;  // Not owned.
};

/// Re-emits a recorded candidate list, so MatchCandidates over it times
/// the verifier alone on exactly the candidates the probe produced.
class ReplaySource final : public geosir::core::CandidateSource {
 public:
  void Set(std::vector<uint32_t> candidates) {
    candidates_ = std::move(candidates);
  }
  const char* name() const override { return "replay"; }
  geosir::util::Status Generate(const geosir::geom::Polyline&,
                                size_t max_candidates,
                                const geosir::core::MatchOptions&,
                                std::vector<uint32_t>* out,
                                geosir::core::CandidateSourceStats* stats)
      override {
    const size_t n = max_candidates == 0
                         ? candidates_.size()
                         : std::min(max_candidates, candidates_.size());
    out->assign(candidates_.begin(),
                candidates_.begin() + static_cast<std::ptrdiff_t>(n));
    if (stats != nullptr) {
      stats->candidates_emitted = n;
      stats->truncated = n < candidates_.size();
    }
    return geosir::util::Status::OK();
  }

 private:
  std::vector<uint32_t> candidates_;
};

}  // namespace perfbench

#endif  // GEOSIR_PERFBENCH_LAYERS_H_
