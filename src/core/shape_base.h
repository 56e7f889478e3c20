#ifndef GEOSIR_CORE_SHAPE_BASE_H_
#define GEOSIR_CORE_SHAPE_BASE_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/match_types.h"
#include "core/normalize.h"
#include "core/shape.h"
#include "rangesearch/simplex_index.h"
#include "util/status.h"

namespace geosir::core {

/// Area of the lune (lens) bounded by the two unit circles centered at
/// (0,0) and (1,0): 2*pi/3 - sqrt(3)/2. Vertices of shapes normalized
/// about their true diameter always land inside it.
constexpr double kLuneArea = 1.2283696986087567;

/// Which simplex range-search structure backs the shape base.
enum class IndexBackend {
  kBruteForce,
  kGrid,
  kKdTree,
  kRangeTree,
  /// Output-sensitive half-plane structure; build is O(n * layers), so
  /// only suitable for small-to-moderate bases.
  kConvexLayers,
};

const char* IndexBackendName(IndexBackend backend);

struct ShapeBaseOptions {
  NormalizeOptions normalize;
  /// kKdTree is the default: near-logarithmic queries with linear space,
  /// which keeps 10M+ vertex bases comfortable. kRangeTree trades
  /// O(n log n) space for the paper's O(log n + k) reporting bound.
  IndexBackend backend = IndexBackend::kKdTree;
  /// When set, Finalize() uses this factory instead of `backend`. This is
  /// how upper layers plug in indexes the core cannot name (e.g.
  /// storage::ExternalSimplexIndex, possibly fault-injected) without a
  /// dependency cycle.
  std::function<std::unique_ptr<rangesearch::SimplexIndex>()> index_factory;
};

/// The shape base of Section 2.4: every added shape is normalized about
/// its alpha-diameters and all normalized copies are stored, their
/// vertices pooled into one point set indexed by a simplex range-search
/// structure. Build-then-query: AddShape() until done, Finalize() once,
/// then the matcher runs queries against it.
///
/// EXTENSION (dynamic bases): a finalized base may still grow an
/// unindexed *tail* (AddNormalized after Finalize) and carry per-shape
/// removal marks (MarkRemoved). The matcher verifies the live tail copies
/// directly and never ranks a removed shape. Both change only on the
/// writer side, never while a matcher runs on the base.
class ShapeBase {
 public:
  explicit ShapeBase(ShapeBaseOptions options = {});

  ShapeBase(const ShapeBase&) = delete;
  ShapeBase& operator=(const ShapeBase&) = delete;

  /// Validates, normalizes and stores a shape. Returns its id.
  util::Result<ShapeId> AddShape(geom::Polyline boundary,
                                 ImageId image = kNoImage,
                                 std::string label = "");

  /// Stores a shape whose copies were already normalized under
  /// options().normalize (their shape_id is set here). Before Finalize()
  /// the copies are indexed like AddShape's; after it they join the
  /// unindexed tail. Infallible.
  ShapeId AddNormalized(Shape shape, std::vector<NormalizedCopy> copies);

  /// Builds the vertex index. No AddShape() calls are allowed afterwards.
  util::Status Finalize();
  bool finalized() const { return index_ != nullptr; }

  /// Marks a shape removed (idempotent): no entry point ranks it again.
  void MarkRemoved(ShapeId id);
  bool removed(ShapeId id) const { return removed_[id] != 0; }
  size_t NumRemoved() const { return num_removed_; }

  const ShapeBaseOptions& options() const { return options_; }

  size_t NumShapes() const { return shapes_.size(); }
  size_t NumCopies() const { return copies_.size(); }
  /// Total number of pooled normalized vertices (the paper's n).
  size_t NumVertices() const { return vertex_copy_.size(); }
  /// Set by Finalize(): shapes [0, NumIndexedShapes()) and copies
  /// [0, NumIndexedCopies()) are indexed, the rest form the tail.
  size_t NumIndexedShapes() const { return indexed_shapes_; }
  size_t NumIndexedCopies() const { return indexed_copies_; }

  const Shape& shape(ShapeId id) const { return shapes_[id]; }
  const std::vector<Shape>& shapes() const { return shapes_; }
  const NormalizedCopy& copy(size_t idx) const { return copies_[idx]; }
  const std::vector<NormalizedCopy>& copies() const { return copies_; }
  /// Indices of the copies of a given shape.
  const std::vector<uint32_t>& CopiesOfShape(ShapeId id) const {
    return shape_copies_[id];
  }

  /// Copy that owns pooled vertex `vertex_id`.
  uint32_t CopyOfVertex(uint32_t vertex_id) const {
    return vertex_copy_[vertex_id];
  }

  /// The finalized range-search index over all pooled vertices; ids
  /// reported by the index are pooled vertex ids.
  const rangesearch::SimplexIndex& index() const { return *index_; }

  /// Throughput-style front end: runs independent queries concurrently
  /// across the pool configured in `options` (one EnvelopeMatcher per
  /// worker). result[i] corresponds to queries[i]; per-query results are
  /// bit-identical to a serial Match loop for every thread count. The
  /// base must be finalized.
  util::Result<std::vector<std::vector<MatchResult>>> MatchBatch(
      const std::vector<geom::Polyline>& queries,
      const MatchOptions& options = {},
      std::vector<MatchStats>* stats = nullptr) const;

 private:
  ShapeBaseOptions options_;
  std::vector<Shape> shapes_;
  std::vector<NormalizedCopy> copies_;
  std::vector<std::vector<uint32_t>> shape_copies_;
  std::vector<uint32_t> vertex_copy_;         // Pooled vertex -> copy index.
  std::vector<uint8_t> removed_;              // Per shape.
  size_t num_removed_ = 0;
  size_t indexed_shapes_ = 0;
  size_t indexed_copies_ = 0;
  std::vector<rangesearch::IndexedPoint> pending_points_;
  std::unique_ptr<rangesearch::SimplexIndex> index_;
};

/// Instantiates an empty index of the requested backend.
std::unique_ptr<rangesearch::SimplexIndex> MakeSimplexIndex(
    IndexBackend backend);

}  // namespace geosir::core

#endif  // GEOSIR_CORE_SHAPE_BASE_H_
