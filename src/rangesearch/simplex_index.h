#ifndef GEOSIR_RANGESEARCH_SIMPLEX_INDEX_H_
#define GEOSIR_RANGESEARCH_SIMPLEX_INDEX_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "geom/point.h"
#include "util/relaxed_counter.h"
#include "util/status.h"

namespace geosir::rangesearch {

/// A point tagged with the caller's identifier (in the shape base this is
/// the index of the vertex in the global vertex pool).
struct IndexedPoint {
  geom::Point p;
  uint32_t id = 0;
};

/// Shared concurrency-safe diagnostic counter (see util/relaxed_counter.h;
/// obs/ and storage/ use the same implementation).
using RelaxedCounter = util::RelaxedCounter;

/// Counters describing the work an index did; used by the ablation
/// benchmarks to compare backends beyond wall-clock time.
struct QueryStats {
  RelaxedCounter nodes_visited;
  RelaxedCounter points_tested;
  RelaxedCounter points_reported;
  /// Fault-tolerance counters (external backends only): subtrees pruned
  /// because their blocks were unreadable under a skip-unreadable
  /// degradation policy, and how many of those were leaves. Nonzero
  /// deltas mean query answers since the last Reset are lower bounds.
  RelaxedCounter subtrees_skipped;
  RelaxedCounter leaves_skipped;

  void Reset() { *this = QueryStats{}; }
};

/// One query call's work counts, added to the shared QueryStats once when
/// the call ends (also on unwind): one atomic add per counter and call
/// instead of one per node or point, and no cache line shared between
/// concurrent readers of one index until then.
class StatsTally {
 public:
  explicit StatsTally(QueryStats* stats) : stats_(stats) {}
  StatsTally(const StatsTally&) = delete;
  StatsTally& operator=(const StatsTally&) = delete;
  ~StatsTally() {
    if (nodes_visited != 0) stats_->nodes_visited += nodes_visited;
    if (points_tested != 0) stats_->points_tested += points_tested;
    if (points_reported != 0) stats_->points_reported += points_reported;
  }

  uint64_t nodes_visited = 0;
  uint64_t points_tested = 0;
  uint64_t points_reported = 0;

 private:
  QueryStats* stats_;
};

/// Interface for the simplex (triangle) range-searching structures of
/// Section 2.5: preprocess a static point set so that the vertices falling
/// inside a query triangle can be counted and reported quickly. The
/// envelope matcher decomposes every envelope-difference ring into O(m)
/// triangles and drives them through this interface.
class SimplexIndex {
 public:
  using Visitor = std::function<void(const IndexedPoint&)>;

  virtual ~SimplexIndex() = default;

  /// Builds the structure over `points`. May be called once per instance.
  virtual void Build(std::vector<IndexedPoint> points) = 0;

  /// Number of indexed points inside the (closed) triangle.
  virtual size_t CountInTriangle(const geom::Triangle& t) const = 0;

  /// Invokes `visit` for every indexed point inside the (closed) triangle.
  virtual void ReportInTriangle(const geom::Triangle& t,
                                const Visitor& visit) const = 0;

  /// Number of indexed points inside the (closed) axis-aligned box.
  virtual size_t CountInRect(const geom::BoundingBox& box) const = 0;

  /// Invokes `visit` for every indexed point inside the (closed) box.
  virtual void ReportInRect(const geom::BoundingBox& box,
                            const Visitor& visit) const = 0;

  /// Backend name for logs and benchmark labels.
  virtual std::string name() const = 0;

  /// Number of indexed points.
  virtual size_t size() const = 0;

  /// Work counters accumulated since the last Reset; maintained on a
  /// best-effort basis by each backend.
  const QueryStats& stats() const { return stats_; }
  void ResetStats() { stats_.Reset(); }

  /// Fault-path escape hatch for the void/size_t query interface: a
  /// backend that hit an unrecoverable error (fail-fast I/O fault,
  /// corruption) during a query records it; callers that care (the
  /// envelope matcher) collect it here. Returns the first error since the
  /// last call and clears it. In-memory backends never fail.
  virtual util::Status TakeLastError() const { return util::Status::OK(); }

 protected:
  mutable QueryStats stats_;
};

}  // namespace geosir::rangesearch

#endif  // GEOSIR_RANGESEARCH_SIMPLEX_INDEX_H_
