#include "core/dynamic_shape_base.h"

#include <algorithm>
#include <chrono>
#include <limits>

#include "core/normalize.h"
#include "core/similarity.h"
#include "obs/metrics.h"
#include "util/query_control.h"

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
    : options_(std::move(options)) {}

util::Result<std::vector<NormalizedCopy>> DynamicShapeBase::NormalizeBoundary(
    const geom::Polyline& boundary) const {
  Shape tmp;
  tmp.boundary = boundary;
  return NormalizeShape(tmp, options_.base.normalize);
}

uint64_t DynamicShapeBase::ApplyInsert(geom::Polyline boundary, ImageId image,
                                       std::string label,
                                       std::vector<NormalizedCopy> copies) {
  Record record;
  record.boundary = std::move(boundary);
  record.image = image;
  record.label = std::move(label);
  record.copies = std::move(copies);
  const uint64_t id = records_.size();
  records_.push_back(std::move(record));
  delta_ids_.push_back(id);
  ++live_count_;
  const DynamicBaseMetrics& metrics = DynamicBaseMetrics::Get();
  metrics.inserts->Inc();
  metrics.delta_shapes->Add(1);
  metrics.live_shapes->Add(1);
  // Observer hook sits on this shared tail so replayed inserts (journal
  // recovery, replication followers) reach it too.
  if (observer_ != nullptr) observer_->OnInsert(id, records_[id].copies);
  return id;
}

void DynamicShapeBase::ApplyRemove(uint64_t id) {
  Record& record = records_[id];
  record.deleted = true;
  --live_count_;
  const DynamicBaseMetrics& metrics = DynamicBaseMetrics::Get();
  metrics.removes->Inc();
  metrics.live_shapes->Add(-1);
  if (record.in_main) {
    ++tombstones_;
    metrics.tombstones->Add(1);
  } else {
    delta_ids_.erase(
        std::remove(delta_ids_.begin(), delta_ids_.end(), id),
        delta_ids_.end());
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
  GEOSIR_ASSIGN_OR_RETURN(std::vector<NormalizedCopy> copies,
                          NormalizeBoundary(boundary));
  // Write-ahead: the mutation is logged before it is applied, so an
  // acknowledged insert is always in the journal and a journal failure
  // leaves the in-memory state untouched.
  if (journal_ != nullptr) {
    GEOSIR_RETURN_IF_ERROR(
        journal_->LogInsert(records_.size(), boundary, image, label));
  }
  const uint64_t id = ApplyInsert(std::move(boundary), image,
                                  std::move(label), std::move(copies));
  GEOSIR_RETURN_IF_ERROR(MaybeCompact());
  return id;
}

util::Status DynamicShapeBase::Remove(uint64_t id) {
  if (id >= records_.size()) {
    return util::Status::NotFound("unknown shape id");
  }
  if (records_[id].deleted) {
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
  if (!records_.empty() || main_ != nullptr) {
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
  records_.resize(next_id);
  for (Record& record : records_) record.deleted = true;
  for (size_t i = 0; i < stable_ids.size(); ++i) {
    Record& record = records_[stable_ids[i]];
    const Shape& shape = main->shape(static_cast<ShapeId>(i));
    record.boundary = shape.boundary;
    record.image = shape.image;
    record.label = shape.label;
    record.deleted = false;
    record.in_main = true;
  }
  main_ = std::move(main);
  matcher_ = std::make_unique<EnvelopeMatcher>(main_.get());
  main_ids_ = std::move(stable_ids);
  live_count_ = main_ids_.size();
  tombstones_ = 0;
  DynamicBaseMetrics::Get().live_shapes->Add(
      static_cast<int64_t>(live_count_));
  return util::Status::OK();
}

util::Status DynamicShapeBase::ReplayInsert(uint64_t id,
                                            geom::Polyline boundary,
                                            ImageId image, std::string label) {
  if (id < records_.size()) {
    // Already applied (live) or already applied and later removed
    // (tombstone). Either way the log prefix up to here was absorbed by
    // the checkpoint, so the replay is a no-op — this is what makes
    // replay idempotent across a crash between checkpoint publication
    // and log truncation.
    return util::Status::OK();
  }
  if (id > records_.size()) {
    return util::Status::Corruption(
        "replayed insert skips ids (log/checkpoint mismatch)");
  }
  GEOSIR_RETURN_IF_ERROR(boundary.Validate());
  if (boundary.size() < 3) {
    return util::Status::Corruption("replayed shape has too few vertices");
  }
  GEOSIR_ASSIGN_OR_RETURN(std::vector<NormalizedCopy> copies,
                          NormalizeBoundary(boundary));
  ApplyInsert(std::move(boundary), image, std::move(label),
              std::move(copies));
  return util::Status::OK();
}

util::Status DynamicShapeBase::ReplayRemove(uint64_t id) {
  if (id >= records_.size()) {
    return util::Status::Corruption("replayed remove of an unknown id");
  }
  if (records_[id].deleted) return util::Status::OK();  // Idempotent.
  ApplyRemove(id);
  return util::Status::OK();
}

std::vector<uint64_t> DynamicShapeBase::LiveIds() const {
  std::vector<uint64_t> ids;
  ids.reserve(live_count_);
  for (uint64_t id = 0; id < records_.size(); ++id) {
    if (!records_[id].deleted) ids.push_back(id);
  }
  return ids;
}

util::Status DynamicShapeBase::MaybeCompact() {
  const size_t main_shapes = main_ == nullptr ? 0 : main_->NumShapes();
  const bool delta_heavy =
      delta_ids_.size() >= options_.min_compaction_size &&
      static_cast<double>(delta_ids_.size()) >
          options_.max_delta_fraction *
              std::max<size_t>(1, live_count_);
  const bool tombstone_heavy =
      tombstones_ >= options_.min_compaction_size &&
      static_cast<double>(tombstones_) >
          options_.max_tombstone_fraction * std::max<size_t>(1, main_shapes);
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
  auto rebuilt = std::make_unique<ShapeBase>(options_.base);
  std::vector<uint64_t> ids;
  for (uint64_t id = 0; id < records_.size(); ++id) {
    Record& record = records_[id];
    if (record.deleted) continue;
    GEOSIR_ASSIGN_OR_RETURN(ShapeId inner,
                            rebuilt->AddShape(record.boundary, record.image,
                                              record.label));
    (void)inner;  // Sequential: ids.size() tracks it.
    ids.push_back(id);
    record.in_main = true;
    record.copies.clear();  // The main base owns normalized copies now.
    record.copies.shrink_to_fit();
  }
  GEOSIR_RETURN_IF_ERROR(rebuilt->Finalize());
  main_ = std::move(rebuilt);
  matcher_ = std::make_unique<EnvelopeMatcher>(main_.get());
  main_ids_ = std::move(ids);
  metrics.delta_shapes->Add(-static_cast<int64_t>(delta_ids_.size()));
  metrics.tombstones->Add(-static_cast<int64_t>(tombstones_));
  delta_ids_.clear();
  tombstones_ = 0;
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
        journal_->LogCompactCommit(*main_, main_ids_, records_.size()));
  }
  return util::Status::OK();
}

std::optional<double> DynamicShapeBase::BestDistance(
    uint64_t id, const QueryTarget& target) const {
  const Record& record = records_[id];
  const MatchMeasure measure = options_.match.measure;
  double best = std::numeric_limits<double>::infinity();
  if (!record.copies.empty()) {
    // Delta shapes are scored directly over their cached normalized
    // copies (the delta is small by construction).
    for (const NormalizedCopy& copy : record.copies) {
      best = std::min(best, target.Score(copy.shape, measure));
    }
    return best;
  }
  if (!record.in_main || main_ == nullptr) return std::nullopt;
  // Compaction cleared the record's cached copies; score the main base's
  // pooled copies instead of renormalizing. main_ids_ is ascending
  // (Compact builds it in id order, RestoreCheckpoint validates it), so
  // the reverse map is a binary search.
  const auto it = std::lower_bound(main_ids_.begin(), main_ids_.end(), id);
  if (it == main_ids_.end() || *it != id) return std::nullopt;
  const ShapeId shape_id = static_cast<ShapeId>(it - main_ids_.begin());
  for (uint32_t copy_idx : main_->CopiesOfShape(shape_id)) {
    best = std::min(best, target.Score(main_->copy(copy_idx).shape, measure));
  }
  return best;
}

util::Result<std::vector<NormalizedCopy>> DynamicShapeBase::NormalizedCopiesOf(
    uint64_t id) const {
  if (id >= records_.size() || records_[id].deleted) {
    return util::Status::NotFound("unknown or deleted shape id");
  }
  const Record& record = records_[id];
  if (!record.copies.empty()) return record.copies;
  if (record.boundary.empty()) {
    // Restored tombstone placeholder that later resurfaced — impossible
    // for live ids, but keep the failure explicit.
    return util::Status::FailedPrecondition("record has no boundary");
  }
  return NormalizeBoundary(record.boundary);
}

util::Result<std::vector<std::pair<uint64_t, double>>>
DynamicShapeBase::MatchIds(const std::vector<uint64_t>& ids,
                           const geom::Polyline& query, size_t k,
                           MatchStats* stats) const {
  return MatchWith(nullptr, ids, /*budgeted=*/true, query, k, stats);
}

util::Result<std::vector<std::pair<uint64_t, double>>>
DynamicShapeBase::Match(const geom::Polyline& query, size_t k,
                        MatchStats* stats) {
  return MatchWith(matcher_.get(), delta_ids_, /*budgeted=*/false, query, k,
                   stats);
}

util::Result<std::vector<std::vector<std::pair<uint64_t, double>>>>
DynamicShapeBase::MatchBatch(const std::vector<geom::Polyline>& queries,
                             size_t k, std::vector<MatchStats>* stats) {
  // Matchers run over the (immutable during the batch) main base.
  std::vector<std::vector<std::pair<uint64_t, double>>> results(
      queries.size());
  GEOSIR_RETURN_IF_ERROR(RunMatchBatch(
      main_.get(), queries.size(), options_.match, stats,
      [&](EnvelopeMatcher* matcher, size_t i, MatchStats* query_stats) {
        auto result = MatchWith(matcher, delta_ids_, /*budgeted=*/false,
                                queries[i], k, query_stats);
        if (result.ok()) results[i] = std::move(result).value();
        return result.status();
      }));
  return results;
}

util::Result<std::vector<std::pair<uint64_t, double>>>
DynamicShapeBase::MatchWith(EnvelopeMatcher* matcher,
                            const std::vector<uint64_t>& ids, bool budgeted,
                            const geom::Polyline& query, size_t k,
                            MatchStats* stats) const {
  GEOSIR_RETURN_IF_ERROR(ValidateRanking(options_.match, k));
  MatchStats local_stats;
  MatchStats& st = stats != nullptr ? *stats : local_stats;
  st = MatchStats{};

  // Lifecycle entry check + thread-local binding for the direct-scoring
  // loop (the inner matcher rebinds the same control around its own body).
  const util::QueryControl control{options_.match.deadline,
                                   options_.match.cancel_token};
  {
    util::Status entry = control.Check();
    if (!entry.ok()) {
      st.termination = entry;
      return entry;
    }
  }
  const util::ScopedQueryControl scoped(&control);

  GEOSIR_ASSIGN_OR_RETURN(NormalizedCopy qnorm, NormalizeQuery(query));
  std::vector<std::pair<uint64_t, double>> results;
  util::Status stop;  // First lifecycle stop observed.

  if (matcher != nullptr && main_->NumShapes() > 0) {
    // Ask for a little slack to survive tombstone filtering; retry with
    // more only in the rare case the top results were mostly deleted
    // (asking for k + all tombstones upfront would defeat the matcher's
    // early exit on every query).
    size_t slack = std::min<size_t>(tombstones_, 2);
    while (true) {
      MatchOptions match = options_.match;
      match.k = k + slack;
      // Each slack attempt re-runs the full query; `st` keeps the final
      // attempt's diagnostics (including the degraded flag). The
      // matcher's per-query memo makes retries cheap: every copy scored
      // in an earlier attempt is a cache hit.
      auto main_result = matcher->Match(query, match, &st);
      std::vector<MatchResult> main_results;
      if (main_result.ok()) {
        main_results = *std::move(main_result);
        if (st.partial) stop = st.termination;
      } else if (util::IsLifecycleStop(main_result.status().code())) {
        stop = main_result.status();
      } else {
        return main_result.status();
      }
      std::vector<std::pair<uint64_t, double>> survivors;
      for (const MatchResult& m : main_results) {
        const uint64_t stable = main_ids_[m.shape_id];
        if (records_[stable].deleted) continue;
        survivors.emplace_back(stable, m.distance);
      }
      const bool exhausted = main_results.size() < k + slack ||
                             slack >= tombstones_;
      // A stopping query does not get slack retries: re-running with a
      // larger k would start the whole search over past its deadline.
      if (!stop.ok() || survivors.size() >= k || exhausted) {
        results = std::move(survivors);
        break;
      }
      slack = std::min(tombstones_, 2 * slack + 8);
    }
  }
  if (!ids.empty()) {
    const QueryTarget target(qnorm.shape, options_.match.similarity);
    const size_t max_candidates =
        budgeted ? options_.match.budget.max_candidates : 0;
    for (uint64_t id : ids) {
      // Each id costs one direct similarity evaluation — the same unit
      // the matcher's candidate checkpoint guards, so poll per id.
      if (stop.ok()) stop = control.Check();
      if (stop.ok() && max_candidates > 0 &&
          st.candidates_evaluated >= max_candidates) {
        stop = util::Status::ResourceExhausted("candidate budget exhausted");
      }
      if (!stop.ok()) {
        ++st.candidates_skipped;
        continue;
      }
      // Stale candidates (removed since a pre-filter emitted them) are
      // skipped silently: the approximate tier is allowed to lag by a
      // mutation, the exact tier filters it out here.
      if (!IsLive(id)) continue;
      const std::optional<double> distance = BestDistance(id, target);
      if (!distance.has_value()) continue;
      ++st.candidates_evaluated;
      results.emplace_back(id, *distance);
    }
  }
  // Same partial-result contract as the matcher; the dynamic base always
  // cuts to k. Tombstones may have emptied a partial main ranking.
  GEOSIR_RETURN_IF_ERROR(
      RankAndClose(&results, k, /*collect_threshold=*/-1.0, stop, &st));
  return results;
}

}  // namespace geosir::core
