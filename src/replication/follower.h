#ifndef GEOSIR_REPLICATION_FOLLOWER_H_
#define GEOSIR_REPLICATION_FOLLOWER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/dynamic_shape_base.h"
#include "query/admission.h"
#include "replication/log_transport.h"
#include "storage/wal.h"
#include "util/deadline.h"
#include "util/retry.h"
#include "util/status.h"

namespace geosir::replication {

struct FollowerOptions {
  /// Filesystem for the follower's own durable mirror; nullptr means
  /// Env::Posix(). Chaos tests pass a MemEnv wired to a CrashClock.
  storage::Env* env = nullptr;
  std::string dir;
  core::DynamicShapeBase::Options base;
  storage::WalOptions wal;
  /// Same id-space cap as DurabilityOptions::max_recovered_ids, applied
  /// to every WAL head the follower is asked to trust — the primary is a
  /// remote peer, so its head gets the same validation a local recovery
  /// would apply.
  uint64_t max_recovered_ids = uint64_t{1} << 24;
  query::AdmissionOptions admission;
  /// Reconnect policy for transport fetches (kUnavailable only).
  util::RetryPolicy reconnect{/*max_attempts=*/5, /*base_backoff_us=*/200,
                              /*multiplier=*/2.0};
  /// Records per fetch; bounds memory and the time the apply loop holds
  /// the write lock per pump.
  size_t fetch_batch_records = 256;
  /// Label for this replica's metric series and MatchStats::replica.
  uint32_t replica_index = 0;
};

/// Monotonic per-follower event counters (one snapshot, plain values).
struct FollowerCounters {
  uint64_t applied_records = 0;
  uint64_t apply_batches = 0;
  uint64_t duplicates_skipped = 0;
  uint64_t gap_batches = 0;
  uint64_t reconnects = 0;
  uint64_t resyncs = 0;
  uint64_t rotations = 0;
  uint64_t local_reopens = 0;
  /// Transport fetches that failed after retries (any status code).
  uint64_t fetch_errors = 0;
  /// Fetches rejected with kFailedPrecondition: the source's term is
  /// older than one this replica has observed (a zombie primary).
  uint64_t fence_rejections = 0;
  /// Divergent-suffix records truncated from the local mirror on rejoin.
  uint64_t truncated_records = 0;
  /// Rejoin repairs run (truncation, or resync when the generation head
  /// itself was divergent).
  uint64_t divergence_repairs = 0;
};

struct FollowerStatus {
  /// Exclusive apply cursor: every record with lsn < applied_lsn is in
  /// the serving state.
  uint64_t applied_lsn = 0;
  /// Exclusive local durability bound (what a follower crash keeps).
  uint64_t durable_lsn = 0;
  /// The primary's next_lsn as of the last successful fetch.
  uint64_t primary_next_lsn = 0;
  /// Records behind that observation (primary_next_lsn - applied_lsn).
  uint64_t lag = 0;
  uint64_t generation = 0;
  /// Primary term of the replica's current generation head.
  uint64_t local_epoch = 0;
  /// Highest term ever observed (sent as min_epoch on every fetch).
  uint64_t fence_epoch = 0;
  /// Code of the most recent failed transport fetch (kOk = none yet, or
  /// healthy since): a flapping socket shows up here and in the
  /// geosir_replication_last_fetch_error_code gauge without a log dive.
  util::StatusCode last_fetch_error = util::StatusCode::kOk;
  FollowerCounters counters;
};

/// One read-only replica: replays the primary's WAL stream into its own
/// DynamicShapeBase (mirrored durably into its own generation files, so a
/// restart resumes from local state instead of re-shipping everything)
/// and serves Match/MatchBatch behind an AdmissionController.
///
/// Threading: one pump thread calls Pump()/CatchUp(); any number of
/// query threads call MatchBatch()/Match()/status(). The serving state is
/// swapped or mutated only under the exclusive state lock, queries take
/// it shared — a query admitted at applied LSN L never observes a record
/// with lsn >= L (the snapshot-consistency contract, reported through
/// MatchStats::replica_lsn).
class Follower {
 public:
  /// Recovers local state from options.dir (valid prefix of the mirrored
  /// WAL; a dirty tail is truncated to the last complete trusted frame)
  /// and attaches to `transport`. An empty or unrecoverable directory
  /// starts empty and bootstraps from the stream or a snapshot. The
  /// transport must outlive the follower.
  static util::Result<std::unique_ptr<Follower>> Open(FollowerOptions options,
                                                      LogTransport* transport);

  /// One fetch-and-apply round. Returns the number of records applied
  /// (0 = caught up). kUnavailable after the reconnect retries are
  /// exhausted; a cursor below the primary's retained log triggers a
  /// snapshot resync internally.
  util::Result<size_t> Pump();

  /// Pumps until lag reaches 0 or the deadline expires.
  util::Status CatchUp(util::Deadline deadline);

  /// Failover promotion: seals this follower and turns its local mirror
  /// into a new durable PRIMARY under a fresh term. The returned pair is
  /// exactly what OpenDurableDynamicBase yields — the caller owns it and
  /// serves writes through it. Sequence: the serving state and mirror WAL
  /// are taken over by a new journal, the epoch is bumped to
  /// max(local, fenced) + 1, and one compaction rotates to a generation
  /// whose durable head stamps the new term (epoch_start_lsn = this
  /// replica's applied floor — the divergence boundary every rejoining
  /// replica truncates to). After promotion this follower answers queries
  /// with kUnavailable and Pump() with kFailedPrecondition; on failure it
  /// is equally sealed (a node that cannot write its term head is dead).
  /// Caller must guarantee the pump thread is quiescent.
  util::Result<storage::DurableDynamicBase> Promote();

  /// Raises the fence: this replica will never again fetch from (or
  /// resync off) a source whose term is below `epoch`. Idempotent,
  /// monotonic, thread-safe.
  void Fence(uint64_t epoch);

  /// Re-points the replica at a different primary (after a failover).
  /// Caller must guarantee the pump thread is quiescent; the new
  /// transport must outlive the follower.
  void SetTransport(LogTransport* transport);

  /// Admission-controlled batch match over the replica's current state,
  /// pinned to one applied LSN for the whole batch. `deadline` bounds
  /// the admission wait and, with the base's own deadline, the matching.
  /// Stats entries carry replicated/replica/replica_lsn/replica_lag.
  util::Result<std::vector<std::vector<std::pair<uint64_t, double>>>>
  MatchBatch(const std::vector<geom::Polyline>& queries, size_t k = 1,
             std::vector<core::MatchStats>* stats = nullptr,
             util::Deadline deadline = {});

  /// Single-query convenience; routed through MatchBatch because the
  /// underlying single-query path shares matcher scratch across calls.
  util::Result<std::vector<std::pair<uint64_t, double>>> Match(
      const geom::Polyline& query, size_t k = 1,
      core::MatchStats* stats = nullptr, util::Deadline deadline = {});

  uint64_t applied_lsn() const {
    return applied_lsn_.load(std::memory_order_acquire);
  }
  /// Records behind the last observed primary tail (grows stale while
  /// disconnected; the router recomputes against the live tail).
  uint64_t lag() const;
  FollowerStatus status() const;
  uint32_t replica_index() const { return options_.replica_index; }
  query::AdmissionController& admission() { return admission_; }
  uint64_t fence_epoch() const {
    return fence_epoch_.load(std::memory_order_acquire);
  }
  bool promoted() const {
    return promoted_.load(std::memory_order_acquire);
  }
  /// The replica's filesystem and mirror directory (what a promotion
  /// turns into the new primary's env/dir).
  storage::Env* env() const { return env_; }
  const std::string& dir() const { return options_.dir; }

  // Locked read-only state access (test introspection).
  uint64_t NextId() const;
  std::vector<uint64_t> LiveIds() const;
  bool IsLive(uint64_t id) const;
  geom::Polyline boundary(uint64_t id) const;
  std::string label(uint64_t id) const;
  core::ImageId image(uint64_t id) const;
  uint64_t generation() const;

 private:
  struct Metrics;

  Follower(FollowerOptions options, LogTransport* transport);

  /// Rebuilds base_/wal_ from the follower's own generation files; a
  /// dirty WAL tail is durably truncated to its valid prefix (atomic
  /// rewrite) rather than rotated — the follower's LSNs mirror the
  /// primary's, so it must never invent records of its own.
  util::Status RecoverLocal();
  /// Full resync: FetchSnapshot, validate, install, wipe older state.
  util::Status Bootstrap();
  util::Status InstallSnapshot(const SnapshotPackage& package);
  /// Applies one record at the cursor (mirror-append, then replay).
  util::Status ApplyRecord(const storage::WalRecord& record);
  /// Handles a received kCompactCommit: verify convergence, write the
  /// follower's own checkpoint for the new generation, swap WAL files,
  /// merge the delta locally.
  util::Status Rotate(const storage::WalRecord& record);
  /// Drops every generation file except `keep` (plus orphan temps).
  void CleanupOtherGenerations(uint64_t keep, bool have_keep);
  util::Status ReopenLocal();
  /// Books a failed transport fetch: counters, last-error gauge, and the
  /// per-code geosir_replication_fetch_errors_total series.
  void RecordFetchError(const util::Status& status);
  /// Rejoin repair against a primary serving a newer term whose start sits
  /// below this replica's cursor: the suffix [epoch_start_lsn, cursor_)
  /// was written by a deposed primary and never replicated — truncate it
  /// from the mirror (atomic rewrite) and rebuild the serving state, or
  /// fall back to a snapshot resync when the generation head itself lies
  /// inside the divergent range.
  util::Status RepairDivergence(const EpochInfo& info);
  /// Monotonic raise of fence_epoch_.
  void RaiseFence(uint64_t epoch);

  FollowerOptions options_;
  storage::Env* env_;
  LogTransport* transport_;
  query::AdmissionController admission_;
  const Metrics* metrics_;

  /// Guards base_ (and the generation bookkeeping) between the pump
  /// thread (exclusive) and query threads (shared).
  mutable std::shared_mutex state_mutex_;
  std::unique_ptr<core::DynamicShapeBase> base_;
  /// Pump-thread-only: the local WAL mirror of the current generation.
  std::unique_ptr<storage::WriteAheadLog> wal_;
  bool have_generation_ = false;
  uint64_t generation_ = 0;
  /// Pump-thread cursor; == applied_lsn_ except mid-apply.
  uint64_t cursor_ = 0;
  /// Pump-thread epoch view of the current generation head: the term it
  /// was written under, where that term began, and the head's own LSN
  /// (the truncation floor — TruncateTo must never drop the head).
  uint64_t local_epoch_ = 0;
  uint64_t local_epoch_start_lsn_ = 0;
  uint64_t head_lsn_ = 0;

  std::atomic<uint64_t> applied_lsn_{0};
  /// Highest term ever observed (head commits, fetch replies, explicit
  /// Fence calls); sent as min_epoch so zombie primaries reject us.
  std::atomic<uint64_t> fence_epoch_{0};
  std::atomic<bool> promoted_{false};
  std::atomic<uint64_t> durable_lsn_{0};
  std::atomic<uint64_t> primary_next_lsn_{0};
  std::atomic<bool> connected_{true};

  std::atomic<uint64_t> applied_records_{0};
  std::atomic<uint64_t> apply_batches_{0};
  std::atomic<uint64_t> duplicates_skipped_{0};
  std::atomic<uint64_t> gap_batches_{0};
  std::atomic<uint64_t> reconnects_{0};
  std::atomic<uint64_t> resyncs_{0};
  std::atomic<uint64_t> rotations_{0};
  std::atomic<uint64_t> local_reopens_{0};
  std::atomic<uint64_t> fetch_errors_{0};
  std::atomic<uint64_t> fence_rejections_{0};
  std::atomic<uint64_t> truncated_records_{0};
  std::atomic<uint64_t> divergence_repairs_{0};
  std::atomic<int> last_fetch_error_code_{0};
};

}  // namespace geosir::replication

#endif  // GEOSIR_REPLICATION_FOLLOWER_H_
