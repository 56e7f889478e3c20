#ifndef GEOSIR_REPLICATION_REPLICATED_SHAPE_BASE_H_
#define GEOSIR_REPLICATION_REPLICATED_SHAPE_BASE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/dynamic_shape_base.h"
#include "query/admission.h"
#include "replication/follower.h"
#include "replication/log_transport.h"
#include "storage/wal.h"
#include "util/deadline.h"
#include "util/retry.h"
#include "util/status.h"

namespace geosir::replication {

/// What the router does with a follower whose staleness exceeds
/// ReplicatedOptions::max_staleness_records.
enum class StaleRoutePolicy : uint8_t {
  /// Skip stale followers while a fresh one can take the query; fall back
  /// to the LEAST stale follower when every replica is beyond the bound —
  /// degradation shows up as staleness in MatchStats, never as an error.
  kRedirectStale,
  /// Ignore staleness entirely (pure round-robin). For workloads that
  /// prefer spread over freshness.
  kServeStale,
};

/// One follower slot of a ReplicatedShapeBase.
struct ReplicaSpec {
  /// Filesystem for this follower's durable mirror; nullptr means the
  /// primary's env (chaos tests give each follower its own MemEnv so a
  /// follower crash-image does not disturb the primary).
  storage::Env* env = nullptr;
  /// Directory for the follower's own generation files. Must differ from
  /// the primary's and from every other replica's.
  std::string dir;
  /// The shipping channel; nullptr means a direct in-process
  /// PrimaryLogSource (tests wrap one in a FaultInjectingTransport).
  std::unique_ptr<LogTransport> transport;
};

struct ReplicatedOptions {
  core::DynamicShapeBase::Options base;
  /// Primary filesystem; nullptr means Env::Posix().
  storage::Env* env = nullptr;
  storage::WalOptions primary_wal;
  storage::WalOptions follower_wal;
  uint64_t max_recovered_ids = uint64_t{1} << 24;
  /// Per-follower admission control (each replica gets its own
  /// controller, so shedding one does not starve the others).
  query::AdmissionOptions admission;
  util::RetryPolicy reconnect{/*max_attempts=*/5, /*base_backoff_us=*/200,
                              /*multiplier=*/2.0};
  size_t fetch_batch_records = 256;
  StaleRoutePolicy stale_policy = StaleRoutePolicy::kRedirectStale;
  /// Staleness bound for kRedirectStale, in records behind the primary
  /// tail at routing time.
  uint64_t max_staleness_records = 4096;
  /// Spawn one pump thread per follower in Open(). Tests that drive
  /// replication deterministically pass false and call StepFollower().
  bool start_replication = true;
  /// Pump-thread sleep between rounds that applied nothing.
  int idle_backoff_us = 200;
  /// Catch-up budget PromoteFollower grants the target before sealing it
  /// (the old primary may be dead, so this is an upper bound on effort,
  /// not a promise of zero lag).
  int promote_catchup_ms = 2000;
  /// Auto-failover policy: consecutive failed primary health probes
  /// before the monitor promotes the freshest surviving follower.
  /// 0 disables the monitor thread entirely.
  int failover_failures_to_trip = 0;
  int failover_probe_interval_ms = 20;
  /// Health probe override; the default probes a journal Sync under the
  /// write mutex. Tests flip this to trip the monitor on demand.
  std::function<util::Status()> health_probe;
};

/// A serving tier: one durable primary DynamicShapeBase accepting writes,
/// N read-only followers tailing its WAL, and a lag-aware router spreading
/// MatchBatch across them.
///
/// Threading: writes (Insert/Remove/Compact/SyncPrimary) serialize on an
/// internal mutex; MatchBatch/Match may run concurrently from any number
/// of threads (each lands on one follower, whose own state lock provides
/// the snapshot-consistency guarantee). With zero replicas the primary
/// serves reads itself, under the write mutex.
class ReplicatedShapeBase {
 public:
  /// Opens (recovering if needed) the primary in `primary_dir` and one
  /// follower per spec, then starts the pump threads unless
  /// options.start_replication is false. `report`, when non-null,
  /// receives the primary's recovery report.
  static util::Result<std::unique_ptr<ReplicatedShapeBase>> Open(
      const std::string& primary_dir, std::vector<ReplicaSpec> replicas,
      ReplicatedOptions options, storage::RecoveryReport* report = nullptr);

  ~ReplicatedShapeBase();

  ReplicatedShapeBase(const ReplicatedShapeBase&) = delete;
  ReplicatedShapeBase& operator=(const ReplicatedShapeBase&) = delete;

  // --- Writes (primary only) ---
  util::Result<uint64_t> Insert(geom::Polyline boundary,
                                core::ImageId image = core::kNoImage,
                                std::string label = "");
  util::Status Remove(uint64_t id);
  util::Status Compact();
  /// Durability barrier on the primary WAL (acked-write guarantee).
  util::Status SyncPrimary();

  // --- Reads (routed) ---
  /// Routes the whole batch to one replica chosen by freshness and
  /// admission (see StaleRoutePolicy). kUnavailable only when every
  /// replica's admission controller shed the batch — staleness alone
  /// never produces an error. `deadline` bounds admission and matching
  /// alike; with no followers the primary sheds an expired one as
  /// admission does (kDeadlineExceeded).
  util::Result<std::vector<std::vector<std::pair<uint64_t, double>>>>
  MatchBatch(const std::vector<geom::Polyline>& queries, size_t k = 1,
             std::vector<core::MatchStats>* stats = nullptr,
             util::Deadline deadline = {});
  util::Result<std::vector<std::pair<uint64_t, double>>> Match(
      const geom::Polyline& query, size_t k = 1,
      core::MatchStats* stats = nullptr, util::Deadline deadline = {});

  // --- Replication control ---
  void Start();
  void Stop();
  /// One synchronous pump on follower `i` (threads must not be running).
  util::Result<size_t> StepFollower(size_t i);
  /// Blocks until every (non-promoted) follower reaches the primary's
  /// current tail. Pumps inline when the threads are stopped, polls
  /// otherwise.
  util::Status WaitForCatchUp(util::Deadline deadline = {});

  // --- Failover ---
  /// Controlled switchover to follower `i`: drains primary admissions
  /// (writes answer kUnavailable for the window), grants the target a
  /// bounded catch-up, promotes it under a new epoch, swaps it in as the
  /// serving primary, and re-points + fences every surviving follower at
  /// the new term. The deposed follower slot stays in place, sealed (the
  /// router sheds it); indices are stable. Safe to call whether or not
  /// the pump threads are running — they are paused and resumed around
  /// the switchover.
  util::Status PromoteFollower(size_t i);
  /// Adds one follower to a live tier (the rejoin path for a demoted or
  /// restarted old primary). A null spec.transport gets an in-process
  /// source over the CURRENT primary; the follower is fenced to the
  /// current term before it serves, so a divergent local suffix is
  /// repaired on its first pump rather than replayed.
  util::Status AddFollower(ReplicaSpec spec);
  /// Current primary term (0 until the first promotion on stores created
  /// before epochs existed).
  uint64_t primary_epoch() const;
  /// Completed failovers on this tier.
  uint64_t failovers() const {
    return failovers_.load(std::memory_order_relaxed);
  }

  // --- Introspection ---
  uint64_t primary_next_lsn() const;
  uint64_t primary_generation() const;
  size_t replica_count() const { return followers_.size(); }
  Follower& follower(size_t i) { return *followers_[i]; }
  /// Primary state reads for tests (taken under the write mutex).
  uint64_t PrimaryNextId() const;
  std::vector<uint64_t> PrimaryLiveIds() const;

 private:
  struct RouterMetrics;

  ReplicatedShapeBase(ReplicatedOptions options,
                      storage::DurableDynamicBase primary);

  /// The routed read path shared by Match and MatchBatch.
  util::Result<std::vector<std::vector<std::pair<uint64_t, double>>>>
  RouteBatch(const std::vector<geom::Polyline>& queries, size_t k,
             std::vector<core::MatchStats>* stats, util::Deadline deadline);
  void FollowerLoop(size_t i);
  void StartPumps();
  void StopPumps();
  void StartMonitor();
  void StopMonitor();
  void MonitorLoop();
  /// Coherent primary tail under the write mutex (the journal pointer is
  /// swapped during a failover, so unlocked reads would race the swap).
  storage::WalTailState PrimaryTail() const;

  ReplicatedOptions options_;
  /// Serializes every primary mutation (and primary-served reads).
  mutable std::mutex primary_mutex_;
  storage::DurableDynamicBase primary_;
  /// The serving primary's filesystem and directory (follower-owned after
  /// a failover; needed to build transports for survivors and joiners).
  storage::Env* primary_env_ = nullptr;
  std::string primary_dir_;
  const RouterMetrics* metrics_;

  /// Serializes PromoteFollower/AddFollower against each other (and the
  /// monitor's automatic promotions).
  std::mutex failover_mutex_;
  /// Taken shared by the router while it walks followers_, exclusively by
  /// AddFollower's push_back. PromoteFollower never erases slots, so
  /// indices are stable for the tier's lifetime.
  mutable std::shared_mutex topology_mutex_;
  /// Write drain: Insert/Remove/Compact/SyncPrimary answer kUnavailable
  /// while a switchover is re-seating the primary.
  std::atomic<bool> failover_in_progress_{false};
  std::atomic<uint64_t> failovers_{0};

  std::vector<std::unique_ptr<LogTransport>> transports_;
  std::vector<std::unique_ptr<Follower>> followers_;

  std::vector<std::thread> pump_threads_;
  std::atomic<bool> running_{false};
  std::thread monitor_thread_;
  std::atomic<bool> monitor_running_{false};
  std::atomic<uint64_t> round_robin_{0};
};

}  // namespace geosir::replication

#endif  // GEOSIR_REPLICATION_REPLICATED_SHAPE_BASE_H_
