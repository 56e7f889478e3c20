#include "core/shape_base.h"

#include "core/envelope_matcher.h"
#include "rangesearch/brute_force_index.h"
#include "rangesearch/convex_layers.h"
#include "rangesearch/grid_index.h"
#include "rangesearch/kd_tree_index.h"
#include "rangesearch/range_tree_index.h"

namespace geosir::core {

const char* IndexBackendName(IndexBackend backend) {
  switch (backend) {
    case IndexBackend::kBruteForce:
      return "brute-force";
    case IndexBackend::kGrid:
      return "grid";
    case IndexBackend::kKdTree:
      return "kd-tree";
    case IndexBackend::kRangeTree:
      return "range-tree-fc";
    case IndexBackend::kConvexLayers:
      return "convex-layers";
  }
  return "unknown";
}

std::unique_ptr<rangesearch::SimplexIndex> MakeSimplexIndex(
    IndexBackend backend) {
  switch (backend) {
    case IndexBackend::kBruteForce:
      return std::make_unique<rangesearch::BruteForceIndex>();
    case IndexBackend::kGrid:
      return std::make_unique<rangesearch::GridIndex>();
    case IndexBackend::kKdTree:
      return std::make_unique<rangesearch::KdTreeIndex>();
    case IndexBackend::kRangeTree:
      return std::make_unique<rangesearch::RangeTreeIndex>();
    case IndexBackend::kConvexLayers:
      return std::make_unique<rangesearch::ConvexLayersIndex>();
  }
  return nullptr;
}

ShapeBase::ShapeBase(ShapeBaseOptions options)
    : options_(std::move(options)) {}

util::Result<ShapeId> ShapeBase::AddShape(geom::Polyline boundary,
                                          ImageId image, std::string label) {
  if (finalized()) {
    return util::Status::FailedPrecondition(
        "ShapeBase is finalized; no further AddShape calls");
  }
  if (boundary.size() < 3) {
    // A 2-vertex shape normalizes to the bare unit segment for every
    // possible input, so it carries no shape information (and would be
    // invisible to the index, which skips axis vertices).
    return util::Status::InvalidArgument(
        "database shapes need at least 3 vertices");
  }
  Shape shape;
  shape.id = static_cast<ShapeId>(shapes_.size());
  shape.image = image;
  shape.boundary = std::move(boundary);
  shape.label = std::move(label);

  GEOSIR_ASSIGN_OR_RETURN(std::vector<NormalizedCopy> copies,
                          NormalizeShape(shape, options_.normalize));
  return AddNormalized(std::move(shape), std::move(copies));
}

ShapeId ShapeBase::AddNormalized(Shape shape,
                                 std::vector<NormalizedCopy> copies) {
  shape.id = static_cast<ShapeId>(shapes_.size());
  shape_copies_.push_back({});
  std::vector<uint32_t>& copy_ids = shape_copies_.back();
  for (NormalizedCopy& copy : copies) {
    const uint32_t copy_idx = static_cast<uint32_t>(copies_.size());
    copy_ids.push_back(copy_idx);
    copy.shape_id = shape.id;
    // Tail copies (appended after Finalize) are verified directly and
    // pool no vertices.
    for (size_t vi = 0; !finalized() && vi < copy.shape.size(); ++vi) {
      // The two axis vertices sit exactly at (0,0) and (1,0) in every
      // copy — and on every normalized query's boundary, i.e. inside
      // every envelope. Indexing them would add ~2 * NumCopies()
      // zero-information reports to each query, so they stay implicit:
      // the matcher credits every copy with 2 in-envelope vertices.
      if (vi == copy.axis_i || vi == copy.axis_j) continue;
      const uint32_t vertex_id = static_cast<uint32_t>(vertex_copy_.size());
      vertex_copy_.push_back(copy_idx);
      pending_points_.push_back(
          rangesearch::IndexedPoint{copy.shape.vertex(vi), vertex_id});
    }
    copies_.push_back(std::move(copy));
  }
  shapes_.push_back(std::move(shape));
  removed_.push_back(0);
  return shapes_.back().id;
}

void ShapeBase::MarkRemoved(ShapeId id) {
  if (removed_[id] != 0) return;
  removed_[id] = 1;
  ++num_removed_;
}

util::Result<std::vector<std::vector<MatchResult>>> ShapeBase::MatchBatch(
    const std::vector<geom::Polyline>& queries, const MatchOptions& options,
    std::vector<MatchStats>* stats) const {
  return core::MatchBatch(*this, queries, options, stats);
}

util::Status ShapeBase::Finalize() {
  if (finalized()) {
    return util::Status::FailedPrecondition("ShapeBase already finalized");
  }
  index_ = options_.index_factory != nullptr ? options_.index_factory()
                                             : MakeSimplexIndex(options_.backend);
  if (index_ == nullptr) {
    return util::Status::InvalidArgument("unknown index backend");
  }
  index_->Build(std::move(pending_points_));
  pending_points_.clear();
  indexed_shapes_ = shapes_.size();
  indexed_copies_ = copies_.size();
  return util::Status::OK();
}

}  // namespace geosir::core
