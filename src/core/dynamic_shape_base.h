#ifndef GEOSIR_CORE_DYNAMIC_SHAPE_BASE_H_
#define GEOSIR_CORE_DYNAMIC_SHAPE_BASE_H_

#include <memory>
#include <optional>
#include <vector>

#include "core/dynamic_base_journal.h"
#include "core/envelope_matcher.h"
#include "core/normalize.h"
#include "core/shape_base.h"
#include "util/status.h"

namespace geosir::core {

/// EXTENSION: a shape base that supports interleaved inserts, deletes and
/// queries. The paper's structures are static (its related-work section
/// points at Berchtold et al. for "dynamic environments, where insert and
/// delete operations occur frequently"); this wrapper brings the standard
/// database recipe to the envelope matcher:
///
///   * a finalized *main* ShapeBase with its range-search index,
///   * a small unindexed *delta* of recent inserts, matched by direct
///     evaluation,
///   * a tombstone set for deletes,
///   * automatic compaction (rebuild of the main base) once the delta or
///     the tombstones exceed a fraction of the total.
///
/// Ids handed out by this class are stable across compactions.
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
    /// Compact when tombstones exceed this fraction of main shapes.
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

  /// k-best retrieval over the live shapes (main minus tombstones plus
  /// delta). Distances use options.match.measure. `stats` (optional)
  /// receives the main-base matcher diagnostics, including the
  /// `degraded` flag when an external index backend skipped unreadable
  /// subtrees — a degraded Match is still correctly ordered over the
  /// candidates that were readable.
  util::Result<std::vector<std::pair<uint64_t, double>>> Match(
      const geom::Polyline& query, size_t k = 1,
      MatchStats* stats = nullptr);

  /// Throughput-style front end: runs independent queries concurrently
  /// across the pool configured in options().match (num_threads / pool),
  /// one matcher per worker. result[i] corresponds to queries[i];
  /// per-query results are bit-identical to a serial Match loop for every
  /// thread count. `stats`, when non-null, is resized to one entry per
  /// query. No Insert/Remove/Compact may run concurrently.
  util::Result<std::vector<std::vector<std::pair<uint64_t, double>>>>
  MatchBatch(const std::vector<geom::Polyline>& queries, size_t k = 1,
             std::vector<MatchStats>* stats = nullptr);

  /// EXTENSION (tiered retrieval): exact verification of an explicit
  /// candidate id set — the second tier behind an approximate pre-filter
  /// (lsh::DynamicLshIndex) that produced `ids`. Each live id is scored
  /// directly under options().match.measure (best over its normalized
  /// copies); unknown, deleted or restored-placeholder ids are skipped
  /// silently, since approximate candidate sets may be stale by one
  /// mutation. Results are the k best (distance, id)-ordered pairs.
  /// Deterministic: ids are processed in the given order and the
  /// candidate budget (options().match.budget.max_candidates) cuts
  /// deterministically; deadline / cancel follow the usual
  /// partial-result contract.
  util::Result<std::vector<std::pair<uint64_t, double>>> MatchIds(
      const std::vector<uint64_t>& ids, const geom::Polyline& query,
      size_t k = 1, MatchStats* stats = nullptr) const;

  /// Attaches a mutation observer (non-owning; nullptr detaches). The
  /// observer sees every ApplyInsert/ApplyRemove from now on, including
  /// replayed ones.
  void SetObserver(DynamicBaseObserver* observer) { observer_ = observer; }

  /// Normalized copies of a known live id: the cached delta copies when
  /// present, otherwise recomputed from the stored boundary (records
  /// absorbed into main drop their cache at compaction). For observer
  /// state rebuilds after RestoreCheckpoint.
  util::Result<std::vector<NormalizedCopy>> NormalizedCopiesOf(
      uint64_t id) const;

  /// Forces a rebuild of the main base (normally automatic).
  util::Status Compact();

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
  uint64_t NextId() const { return records_.size(); }
  bool IsLive(uint64_t id) const {
    return id < records_.size() && !records_[id].deleted;
  }
  /// Stable ids of all live shapes, ascending.
  std::vector<uint64_t> LiveIds() const;
  /// Original (un-normalized) boundary of a known id (live or deleted
  /// placeholder boundaries of restored tombstones are empty).
  const geom::Polyline& boundary(uint64_t id) const {
    return records_[id].boundary;
  }
  ImageId image(uint64_t id) const { return records_[id].image; }
  const std::string& label(uint64_t id) const { return records_[id].label; }

  /// Mutable match configuration, including the query-lifecycle controls
  /// (deadline / cancel_token / budget). A deadline is an absolute time
  /// point, so arm it right before the Match or MatchBatch call it should
  /// bound. Lifecycle stops follow the matcher's partial-result contract:
  /// best-so-far rankings come back with MatchStats::partial set (delta
  /// shapes not yet scored count as candidates_skipped); a stop before
  /// anything was ranked returns the stop status instead.
  MatchOptions& match_options() { return options_.match; }
  const MatchOptions& match_options() const { return options_.match; }

  size_t NumLive() const { return live_count_; }
  size_t NumDelta() const { return delta_ids_.size(); }
  size_t NumTombstones() const { return tombstones_; }
  size_t NumCompactions() const { return compactions_; }

 private:
  struct Record {
    geom::Polyline boundary;
    ImageId image = kNoImage;
    std::string label;
    bool deleted = false;
    bool in_main = false;
    /// Normalized copies, cached at insert so delta queries do not pay
    /// normalization per query. Cleared once the record enters main.
    std::vector<NormalizedCopy> copies;
  };

  util::Status MaybeCompact();
  /// The fallible half of an insert: normalized copies for the delta
  /// cache. Insert and ReplayInsert run this BEFORE the journal write so
  /// a journaled insert can never fail to apply (a record that applied in
  /// the live process but aborted replay would make the store
  /// unrecoverable until a checkpoint absorbed it).
  util::Result<std::vector<NormalizedCopy>> NormalizeBoundary(
      const geom::Polyline& boundary) const;
  /// Shared infallible tail of Insert and ReplayInsert: appends the
  /// record (with its pre-normalized copies) to the delta and updates
  /// gauges. Never journals, never compacts.
  uint64_t ApplyInsert(geom::Polyline boundary, ImageId image,
                       std::string label, std::vector<NormalizedCopy> copies);
  /// Shared tail of Remove and ReplayRemove (same no-journal rule).
  void ApplyRemove(uint64_t id);
  /// Best options().match.measure distance over the normalized copies of
  /// live record `id`: its cached delta copies, or the main base's pooled
  /// copies once compaction dropped them; nullopt when it has neither.
  std::optional<double> BestDistance(uint64_t id,
                                     const QueryTarget& target) const;
  /// The pipeline Match, MatchBatch and MatchIds share: validation, the
  /// lifecycle entry check, the envelope search over the main base when
  /// `matcher` is non-null (MatchBatch runs one per worker slot), direct
  /// scoring of the live `ids` against one query target — under the
  /// candidate budget when `budgeted` — and RankAndClose. Mutates only
  /// `matcher`'s scratch.
  util::Result<std::vector<std::pair<uint64_t, double>>> MatchWith(
      EnvelopeMatcher* matcher, const std::vector<uint64_t>& ids,
      bool budgeted, const geom::Polyline& query, size_t k,
      MatchStats* stats) const;

  Options options_;
  DynamicBaseJournal* journal_ = nullptr;  // Non-owning.
  DynamicBaseObserver* observer_ = nullptr;  // Non-owning.
  std::vector<Record> records_;        // Indexed by stable id.
  std::unique_ptr<ShapeBase> main_;    // Finalized; may be null (empty).
  std::unique_ptr<EnvelopeMatcher> matcher_;
  std::vector<uint64_t> main_ids_;     // Main ShapeId -> stable id.
  std::vector<uint64_t> delta_ids_;    // Stable ids not yet in main.
  size_t live_count_ = 0;
  size_t tombstones_ = 0;              // Deleted records still in main.
  size_t compactions_ = 0;
};

}  // namespace geosir::core

#endif  // GEOSIR_CORE_DYNAMIC_SHAPE_BASE_H_
