#include "core/dynamic_shape_base.h"

#include <algorithm>
#include <chrono>

#include "core/normalize.h"
#include "obs/metrics.h"

namespace geosir::core {

namespace {

/// Process-wide dynamic-base metric families. The gauges aggregate over
/// instances by delta: each instance adds its own size changes.
struct DynamicBaseMetrics {
  obs::Counter* inserts;
  obs::Counter* removes;
  obs::Counter* compactions;
  obs::Gauge* delta_shapes;
  obs::Gauge* tombstones;
  obs::Gauge* live_shapes;
  obs::Histogram* compaction_latency;

  static const DynamicBaseMetrics& Get() {
    static const DynamicBaseMetrics* metrics = [] {
      obs::MetricRegistry& r = obs::MetricRegistry::Default();
      auto* m = new DynamicBaseMetrics();
      m->inserts = r.GetCounter("geosir_dynamic_inserts_total",
                                "Shapes inserted into dynamic bases");
      m->removes = r.GetCounter("geosir_dynamic_removes_total",
                                "Shapes removed from dynamic bases");
      m->compactions = r.GetCounter("geosir_dynamic_compactions_total",
                                    "Main-base rebuilds (delta merges)");
      m->delta_shapes = r.GetGauge("geosir_dynamic_delta_shapes",
                                   "Unindexed delta shapes awaiting merge");
      m->tombstones = r.GetGauge("geosir_dynamic_tombstones",
                                 "Deleted shapes still in main bases");
      m->live_shapes =
          r.GetGauge("geosir_dynamic_live_shapes", "Live shapes (all bases)");
      m->compaction_latency = r.GetHistogram(
          "geosir_dynamic_compaction_seconds",
          "Wall-clock latency of one compaction (main-base rebuild)",
          obs::LatencyBucketsSeconds());
      return m;
    }();
    return *metrics;
  }
};

}  // namespace

DynamicShapeBase::DynamicShapeBase(Options options)
    : options_(std::move(options)),
      main_(std::make_unique<ShapeBase>(options_.base)) {
  // An empty index: inserts join the tail until the first compaction. A
  // failure here (an index factory returning null) resurfaces from every
  // Match and Compact.
  (void)main_->Finalize();
  matcher_ = std::make_unique<EnvelopeMatcher>(main_.get());
}

const Shape& DynamicShapeBase::ShapeOf(uint64_t id) const {
  static const Shape kNone;
  return IsLive(id) ? main_->shape(shape_of_[id]) : kNone;
}

uint64_t DynamicShapeBase::ApplyInsert(Shape shape,
                                       std::vector<NormalizedCopy> copies) {
  const uint64_t id = shape_of_.size();
  // Observer hook sits on this shared tail so replayed inserts (journal
  // recovery, replication followers) reach it too.
  if (observer_ != nullptr) observer_->OnInsert(id, copies);
  shape_of_.push_back(
      main_->AddNormalized(std::move(shape), std::move(copies)));
  main_ids_.push_back(id);
  ++live_count_;
  ++delta_;
  const DynamicBaseMetrics& metrics = DynamicBaseMetrics::Get();
  metrics.inserts->Inc();
  metrics.delta_shapes->Add(1);
  metrics.live_shapes->Add(1);
  return id;
}

void DynamicShapeBase::ApplyRemove(uint64_t id) {
  const ShapeId shape = shape_of_[id];
  main_->MarkRemoved(shape);
  shape_of_[id] = kDeleted;
  --live_count_;
  const DynamicBaseMetrics& metrics = DynamicBaseMetrics::Get();
  metrics.removes->Inc();
  metrics.live_shapes->Add(-1);
  metrics.tombstones->Add(1);
  if (shape >= main_->NumIndexedShapes()) {
    --delta_;
    metrics.delta_shapes->Add(-1);
  }
  if (observer_ != nullptr) observer_->OnRemove(id);
}

util::Result<uint64_t> DynamicShapeBase::Insert(geom::Polyline boundary,
                                                ImageId image,
                                                std::string label) {
  // Validate eagerly with the same rules the main base applies, so a bad
  // shape fails at insert time instead of at the next compaction.
  GEOSIR_RETURN_IF_ERROR(boundary.Validate());
  if (boundary.size() < 3) {
    return util::Status::InvalidArgument(
        "database shapes need at least 3 vertices");
  }
  // All fallible apply work (normalization) runs before the journal
  // write: once a record is in the WAL its replay must always succeed,
  // or one rejected shape would abort every future recovery.
  Shape shape{0, image, std::move(boundary), std::move(label)};
  GEOSIR_ASSIGN_OR_RETURN(std::vector<NormalizedCopy> copies,
                          NormalizeShape(shape, options_.base.normalize));
  // Write-ahead: the mutation is logged before it is applied, so an
  // acknowledged insert is always in the journal and a journal failure
  // leaves the in-memory state untouched.
  if (journal_ != nullptr) {
    GEOSIR_RETURN_IF_ERROR(journal_->LogInsert(NextId(), shape.boundary,
                                               shape.image, shape.label));
  }
  const uint64_t id = ApplyInsert(std::move(shape), std::move(copies));
  GEOSIR_RETURN_IF_ERROR(MaybeCompact());
  return id;
}

util::Status DynamicShapeBase::Remove(uint64_t id) {
  if (id >= NextId()) {
    return util::Status::NotFound("unknown shape id");
  }
  if (!IsLive(id)) {
    return util::Status::FailedPrecondition("shape already deleted");
  }
  if (journal_ != nullptr) {
    GEOSIR_RETURN_IF_ERROR(journal_->LogRemove(id));
  }
  ApplyRemove(id);
  return MaybeCompact();
}

util::Status DynamicShapeBase::RestoreCheckpoint(
    std::unique_ptr<ShapeBase> main, std::vector<uint64_t> stable_ids,
    uint64_t next_id) {
  if (!shape_of_.empty()) {
    return util::Status::FailedPrecondition(
        "RestoreCheckpoint needs an empty base");
  }
  if (main == nullptr || !main->finalized()) {
    return util::Status::InvalidArgument(
        "checkpoint base must be finalized");
  }
  if (stable_ids.size() != main->NumShapes()) {
    return util::Status::Corruption(
        "checkpoint id map does not match checkpoint shape count");
  }
  uint64_t prev = 0;
  for (size_t i = 0; i < stable_ids.size(); ++i) {
    if (stable_ids[i] >= next_id || (i > 0 && stable_ids[i] <= prev)) {
      return util::Status::Corruption(
          "checkpoint stable ids must be ascending and below next_id");
    }
    prev = stable_ids[i];
  }
  // Unlisted ids below next_id become deleted placeholders: stable ids
  // are record indexes, so holes must stay holes after recovery.
  shape_of_.assign(next_id, kDeleted);
  for (size_t i = 0; i < stable_ids.size(); ++i) {
    shape_of_[stable_ids[i]] = static_cast<ShapeId>(i);
  }
  main_ = std::move(main);
  matcher_ = std::make_unique<EnvelopeMatcher>(main_.get());
  main_ids_ = std::move(stable_ids);
  live_count_ = main_ids_.size();
  DynamicBaseMetrics::Get().live_shapes->Add(
      static_cast<int64_t>(live_count_));
  return util::Status::OK();
}

util::Status DynamicShapeBase::ReplayInsert(uint64_t id,
                                            geom::Polyline boundary,
                                            ImageId image, std::string label) {
  if (id < NextId()) {
    // Already applied (live) or already applied and later removed
    // (tombstone). Either way the log prefix up to here was absorbed by
    // the checkpoint, so the replay is a no-op — this is what makes
    // replay idempotent across a crash between checkpoint publication
    // and log truncation.
    return util::Status::OK();
  }
  if (id > NextId()) {
    return util::Status::Corruption(
        "replayed insert skips ids (log/checkpoint mismatch)");
  }
  GEOSIR_RETURN_IF_ERROR(boundary.Validate());
  if (boundary.size() < 3) {
    return util::Status::Corruption("replayed shape has too few vertices");
  }
  Shape shape{0, image, std::move(boundary), std::move(label)};
  GEOSIR_ASSIGN_OR_RETURN(std::vector<NormalizedCopy> copies,
                          NormalizeShape(shape, options_.base.normalize));
  ApplyInsert(std::move(shape), std::move(copies));
  return util::Status::OK();
}

util::Status DynamicShapeBase::ReplayRemove(uint64_t id) {
  if (id >= NextId()) {
    return util::Status::Corruption("replayed remove of an unknown id");
  }
  if (!IsLive(id)) return util::Status::OK();  // Idempotent.
  ApplyRemove(id);
  return util::Status::OK();
}

std::vector<uint64_t> DynamicShapeBase::LiveIds() const {
  std::vector<uint64_t> ids;
  ids.reserve(live_count_);
  for (uint64_t id = 0; id < NextId(); ++id) {
    if (IsLive(id)) ids.push_back(id);
  }
  return ids;
}

util::Status DynamicShapeBase::MaybeCompact() {
  const bool delta_heavy =
      delta_ >= options_.min_compaction_size &&
      static_cast<double>(delta_) >
          options_.max_delta_fraction * std::max<size_t>(1, live_count_);
  const bool tombstone_heavy =
      NumTombstones() >= options_.min_compaction_size &&
      static_cast<double>(NumTombstones()) >
          options_.max_tombstone_fraction *
              std::max<size_t>(1, main_->NumIndexedShapes());
  if (!delta_heavy && !tombstone_heavy) return util::Status::OK();
  return Compact();
}

util::Status DynamicShapeBase::Compact() {
  const DynamicBaseMetrics& metrics = DynamicBaseMetrics::Get();
  const auto compact_start = std::chrono::steady_clock::now();
  // The begin marker is advisory (recovery does not need it): it records
  // in the log that a rebuild started, which makes crash traces readable.
  if (journal_ != nullptr) {
    GEOSIR_RETURN_IF_ERROR(journal_->LogCompactBegin());
  }
  // The live shapes, in stable-id order, with the copies the main base
  // already holds: a rebuild re-indexes, it never renormalizes.
  auto rebuilt = std::make_unique<ShapeBase>(options_.base);
  std::vector<uint64_t> ids = LiveIds();
  for (uint64_t id : ids) {
    rebuilt->AddNormalized(ShapeOf(id), NormalizedCopiesOf(id).value());
  }
  GEOSIR_RETURN_IF_ERROR(rebuilt->Finalize());
  for (size_t i = 0; i < ids.size(); ++i) {
    shape_of_[ids[i]] = static_cast<ShapeId>(i);
  }
  metrics.delta_shapes->Add(-static_cast<int64_t>(delta_));
  metrics.tombstones->Add(-static_cast<int64_t>(NumTombstones()));
  main_ = std::move(rebuilt);
  matcher_ = std::make_unique<EnvelopeMatcher>(main_.get());
  main_ids_ = std::move(ids);
  delta_ = 0;
  ++compactions_;
  metrics.compactions->Inc();
  metrics.compaction_latency->Observe(
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    compact_start)
          .count());
  // Checkpoint after the swap: the journal persists the full live state
  // and truncates its log. On failure the in-memory base is still valid
  // and the previous log still replays to this exact state, so the error
  // is surfaced but nothing is rolled back.
  if (journal_ != nullptr) {
    GEOSIR_RETURN_IF_ERROR(
        journal_->LogCompactCommit(*main_, main_ids_, NextId()));
  }
  return util::Status::OK();
}

util::Result<std::vector<NormalizedCopy>> DynamicShapeBase::NormalizedCopiesOf(
    uint64_t id) const {
  if (!IsLive(id)) {
    return util::Status::NotFound("unknown or deleted shape id");
  }
  std::vector<NormalizedCopy> copies;
  for (uint32_t c : CopiesOf(id)) copies.push_back(main_->copy(c));
  return copies;
}

const std::vector<uint32_t>& DynamicShapeBase::CopiesOf(uint64_t id) const {
  static const std::vector<uint32_t> kNone;
  return IsLive(id) ? main_->CopiesOfShape(shape_of_[id]) : kNone;
}

util::Result<std::vector<std::pair<uint64_t, double>>>
DynamicShapeBase::Match(const geom::Polyline& query, size_t k,
                        MatchStats* stats) {
  GEOSIR_ASSIGN_OR_RETURN(std::vector<MatchResult> ranked,
                          matcher_->Match(query, MatchOptionsFor(k), stats));
  return StableIds(ranked, k);
}

util::Result<std::vector<std::pair<uint64_t, double>>>
DynamicShapeBase::MatchCandidates(const geom::Polyline& query,
                                  CandidateSource* source, size_t k,
                                  MatchStats* stats) {
  GEOSIR_ASSIGN_OR_RETURN(
      std::vector<MatchResult> ranked,
      matcher_->MatchCandidates(query, source, MatchOptionsFor(k), stats));
  return StableIds(ranked, k);
}

util::Result<std::vector<std::vector<std::pair<uint64_t, double>>>>
DynamicShapeBase::MatchBatch(const std::vector<geom::Polyline>& queries,
                             size_t k, std::vector<MatchStats>* stats,
                             util::Deadline deadline) {
  MatchOptions options = MatchOptionsFor(k);
  options.deadline = util::Deadline::Earliest(options.deadline, deadline);
  // Matchers run over the (immutable during the batch) main base.
  GEOSIR_ASSIGN_OR_RETURN(std::vector<std::vector<MatchResult>> ranked,
                          core::MatchBatch(*main_, queries, options, stats));
  std::vector<std::vector<std::pair<uint64_t, double>>> results;
  for (const std::vector<MatchResult>& one : ranked) {
    results.push_back(StableIds(one, k));
  }
  return results;
}

MatchOptions DynamicShapeBase::MatchOptionsFor(size_t k) const {
  MatchOptions options = options_.match;
  options.k = k;
  return options;
}

std::vector<std::pair<uint64_t, double>> DynamicShapeBase::StableIds(
    const std::vector<MatchResult>& ranked, size_t k) const {
  // ShapeIds ascend with stable ids, so the matcher's (distance, ShapeId)
  // order is the (distance, stable id) order. Collect mode is cut to k.
  std::vector<std::pair<uint64_t, double>> results;
  for (size_t i = 0; i < std::min(k, ranked.size()); ++i) {
    results.emplace_back(main_ids_[ranked[i].shape_id], ranked[i].distance);
  }
  return results;
}

}  // namespace geosir::core
