#ifndef GEOSIR_CORE_DYNAMIC_SHAPE_BASE_H_
#define GEOSIR_CORE_DYNAMIC_SHAPE_BASE_H_

#include <memory>
#include <vector>

#include "core/dynamic_base_journal.h"
#include "core/envelope_matcher.h"
#include "core/normalize.h"
#include "core/shape_base.h"
#include "util/deadline.h"
#include "util/status.h"

namespace geosir::core {

/// EXTENSION: a shape base that supports interleaved inserts, deletes and
/// queries. The paper's structures are static (its related-work section
/// points at Berchtold et al. for "dynamic environments, where insert and
/// delete operations occur frequently"); this wrapper brings the standard
/// database recipe to the envelope matcher, all in one *main* ShapeBase:
///
///   * its indexed shapes, from the last compaction (or checkpoint),
///   * a small *delta* of recent inserts: its unindexed tail,
///   * tombstones for deletes: its removal marks,
///   * automatic compaction (rebuild of the main base) once the delta or
///     the tombstones exceed a fraction of the total.
///
/// Every query is one matcher pass through the one verifier. Ids handed
/// out by this class are stable across compactions.
///
/// EXTENSION (tiered retrieval, DESIGN.md section 14): observer of
/// applied mutations. Hooked at the shared infallible mutation tails, so
/// direct Insert/Remove AND journal replay (hence replication follower
/// replay) reach it — an attached LSH pre-filter (lsh::DynamicLshIndex)
/// stays coherent on followers with no extra plumbing. Callbacks run
/// synchronously on the mutating thread; keep them cheap and never call
/// back into the base. Not invoked by RestoreCheckpoint or Compact
/// (stable ids do not change there) — after a restore, rebuild the
/// observer's state from LiveIds()/NormalizedCopiesOf().
class DynamicBaseObserver {
 public:
  virtual ~DynamicBaseObserver() = default;
  /// A record was applied: its stable id and its normalized copies.
  virtual void OnInsert(uint64_t id,
                        const std::vector<NormalizedCopy>& copies) = 0;
  /// A record was deleted (direct or replayed).
  virtual void OnRemove(uint64_t id) = 0;
};

class DynamicShapeBase {
 public:
  struct Options {
    ShapeBaseOptions base;
    MatchOptions match;
    /// Compact when delta shapes exceed this fraction of live shapes.
    double max_delta_fraction = 0.25;
    /// Compact when tombstones exceed this fraction of indexed shapes.
    double max_tombstone_fraction = 0.25;
    /// Never compact below this many delta shapes (avoids rebuilding a
    /// tiny base on every insert).
    size_t min_compaction_size = 64;
  };

  DynamicShapeBase() : DynamicShapeBase(Options()) {}
  explicit DynamicShapeBase(Options options);

  /// Inserts a shape; returns its stable id.
  util::Result<uint64_t> Insert(geom::Polyline boundary,
                                ImageId image = kNoImage,
                                std::string label = "");

  /// Deletes a shape by stable id. Idempotent errors: deleting twice or
  /// deleting an unknown id fails.
  util::Status Remove(uint64_t id);

  /// k-best retrieval over the live shapes: one EnvelopeMatcher::Match
  /// over the main base, delta included, tombstones excluded. Distances
  /// use options.match.measure; in collect mode the threshold applies and
  /// the result is still cut to k. `stats` (optional) receives the
  /// matcher diagnostics, including the `degraded` flag when an external
  /// index backend skipped unreadable subtrees — a degraded Match is
  /// still correctly ordered over the candidates that were readable.
  util::Result<std::vector<std::pair<uint64_t, double>>> Match(
      const geom::Polyline& query, size_t k = 1,
      MatchStats* stats = nullptr);

  /// Throughput-style front end: runs independent queries concurrently
  /// across the pool configured in options().match (num_threads / pool),
  /// one matcher per worker. result[i] corresponds to queries[i];
  /// per-query results are bit-identical to a serial Match loop for every
  /// thread count. `stats`, when non-null, is resized to one entry per
  /// query. Every query runs under the earlier of options().match.deadline
  /// and `deadline`. No Insert/Remove/Compact may run concurrently.
  util::Result<std::vector<std::vector<std::pair<uint64_t, double>>>>
  MatchBatch(const std::vector<geom::Polyline>& queries, size_t k = 1,
             std::vector<MatchStats>* stats = nullptr,
             util::Deadline deadline = {});

  /// EXTENSION (tiered retrieval): k-best retrieval over the candidates
  /// `source` emits instead of envelope growth: one
  /// EnvelopeMatcher::MatchCandidates over the main base, mapped to stable
  /// ids exactly as Match maps its ranking. `source` emits main-base copy
  /// indices: lsh::DynamicLshIndex (the LSH pre-filter kept fresh by the
  /// observer hook) or a core::ExactEnumerationSource on main_base().
  /// Copies of deleted shapes are never verified. The candidate budget
  /// (options().match.budget.max_candidates) caps the copies the source
  /// emits; deadline / cancel follow the usual partial-result contract.
  util::Result<std::vector<std::pair<uint64_t, double>>> MatchCandidates(
      const geom::Polyline& query, CandidateSource* source, size_t k = 1,
      MatchStats* stats = nullptr);

  /// Attaches a mutation observer (non-owning; nullptr detaches). The
  /// observer sees every ApplyInsert/ApplyRemove from now on, including
  /// replayed ones.
  void SetObserver(DynamicBaseObserver* observer) { observer_ = observer; }

  /// Normalized copies of a live id, as the main base stores them. For
  /// observer state rebuilds after RestoreCheckpoint.
  util::Result<std::vector<NormalizedCopy>> NormalizedCopiesOf(
      uint64_t id) const;
  /// Indices into main_base().copies() of a live id's copies; empty for a
  /// deleted or unknown one. Valid until the next mutation.
  const std::vector<uint32_t>& CopiesOf(uint64_t id) const;

  /// Forces a rebuild of the main base (normally automatic).
  util::Status Compact();

  /// The main base: right after Compact, exactly the live shapes in
  /// stable-id order, which is what a checkpoint serializes.
  const ShapeBase& main_base() const { return *main_; }

  // --- Durability (see storage/wal.h for the WAL implementation) ---

  /// Attaches a journal (non-owning; pass nullptr to detach). Once
  /// attached, Insert/Remove log before they apply — a journal failure
  /// aborts the mutation — and Compact logs a begin marker before the
  /// rebuild and a commit (checkpoint) after the swap.
  void SetJournal(DynamicBaseJournal* journal) { journal_ = journal; }

  /// Restores checkpoint state into an EMPTY base (kFailedPrecondition
  /// otherwise): adopts `main` as the finalized main base, `stable_ids[i]`
  /// names main shape i, ids in [0, next_id) not listed become deleted
  /// placeholders so stable ids keep their meaning across recovery.
  util::Status RestoreCheckpoint(std::unique_ptr<ShapeBase> main,
                                 std::vector<uint64_t> stable_ids,
                                 uint64_t next_id);

  /// Idempotent replay of a logged insert: `id == NextId()` applies it
  /// (no journaling, no auto-compaction), `id < NextId()` is a no-op (the
  /// checkpoint already absorbed it), and a gap (`id > NextId()`) is
  /// kCorruption — the log and checkpoint disagree.
  util::Status ReplayInsert(uint64_t id, geom::Polyline boundary,
                            ImageId image, std::string label);

  /// Idempotent replay of a logged remove: deleting an already-deleted
  /// shape is a no-op; an unknown id is kCorruption.
  util::Status ReplayRemove(uint64_t id);

  /// The id the next Insert will return.
  uint64_t NextId() const { return shape_of_.size(); }
  bool IsLive(uint64_t id) const {
    return id < shape_of_.size() && shape_of_[id] != kDeleted;
  }
  /// Stable ids of all live shapes, ascending.
  std::vector<uint64_t> LiveIds() const;
  /// Original (un-normalized) boundary, image and label of a live id;
  /// empty (and kNoImage) for a deleted or unknown one.
  const geom::Polyline& boundary(uint64_t id) const {
    return ShapeOf(id).boundary;
  }
  ImageId image(uint64_t id) const { return ShapeOf(id).image; }
  const std::string& label(uint64_t id) const { return ShapeOf(id).label; }

  /// Mutable match configuration, including the query-lifecycle controls
  /// (deadline / cancel_token / budget). A deadline is an absolute time
  /// point, so arm it right before the Match, MatchBatch or
  /// MatchCandidates call it should bound. Lifecycle stops follow the
  /// matcher's partial-result contract: best-so-far rankings come back
  /// with MatchStats::partial set (delta copies not yet scored count as
  /// candidates_skipped); a stop before anything was ranked returns the
  /// stop status instead.
  MatchOptions& match_options() { return options_.match; }
  const MatchOptions& match_options() const { return options_.match; }

  size_t NumLive() const { return live_count_; }
  size_t NumDelta() const { return delta_; }
  /// Deleted shapes still held by the main base, indexed or in the tail.
  size_t NumTombstones() const { return main_->NumRemoved(); }
  size_t NumCompactions() const { return compactions_; }

 private:
  /// shape_of_ entry of a deleted (or restored-placeholder) id.
  static constexpr ShapeId kDeleted = static_cast<ShapeId>(-1);

  /// The main-base shape of a live id; an empty Shape otherwise.
  const Shape& ShapeOf(uint64_t id) const;
  util::Status MaybeCompact();
  /// Shared infallible tail of Insert and ReplayInsert: appends the shape
  /// and its copies, normalized before the journal write (so a journaled
  /// insert can never fail to apply), to the main base's tail and updates
  /// gauges. Never journals, never compacts.
  uint64_t ApplyInsert(Shape shape, std::vector<NormalizedCopy> copies);
  /// Shared tail of Remove and ReplayRemove (same no-journal rule).
  void ApplyRemove(uint64_t id);
  /// options().match asking for k results.
  MatchOptions MatchOptionsFor(size_t k) const;
  /// Match, MatchBatch and MatchCandidates: one matcher pass over the main
  /// base (its tail included), its ranking mapped to stable ids and cut
  /// to k.
  std::vector<std::pair<uint64_t, double>> StableIds(
      const std::vector<MatchResult>& ranked, size_t k) const;

  Options options_;
  DynamicBaseJournal* journal_ = nullptr;  // Non-owning.
  DynamicBaseObserver* observer_ = nullptr;  // Non-owning.
  std::unique_ptr<ShapeBase> main_;    // Finalized: index, tail, marks.
  std::unique_ptr<EnvelopeMatcher> matcher_;
  std::vector<ShapeId> shape_of_;      // Stable id -> main ShapeId.
  std::vector<uint64_t> main_ids_;     // Main ShapeId -> stable id.
  size_t live_count_ = 0;
  size_t delta_ = 0;                   // Live shapes in the tail.
  size_t compactions_ = 0;
};

}  // namespace geosir::core

#endif  // GEOSIR_CORE_DYNAMIC_SHAPE_BASE_H_
