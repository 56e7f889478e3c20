#include "replication/replicated_shape_base.h"

#include <algorithm>
#include <chrono>
#include <limits>

#include "obs/metrics.h"

namespace geosir::replication {

/// Router-level series (unlabeled: one router per process is the common
/// case, and per-replica detail already lives on the follower series).
struct ReplicatedShapeBase::RouterMetrics {
  obs::Counter* batches;
  obs::Counter* redirected;
  obs::Counter* stale_served;
  obs::Counter* shed;
  obs::Counter* exhausted;
  obs::Counter* failovers;
  obs::Counter* writes_drained;

  static const RouterMetrics* Get() {
    static const RouterMetrics* metrics = [] {
      obs::MetricRegistry& r = obs::MetricRegistry::Default();
      auto* m = new RouterMetrics();
      m->batches = r.GetCounter("geosir_router_batches_total",
                                "Query batches routed to a serving replica");
      m->redirected = r.GetCounter(
          "geosir_router_redirected_total",
          "Batches redirected away from a staleness-bound violator");
      m->stale_served = r.GetCounter(
          "geosir_router_stale_served_total",
          "Batches served by a stale replica because no fresh one could");
      m->shed = r.GetCounter(
          "geosir_router_shed_total",
          "Per-replica admission rejections seen while routing");
      m->exhausted = r.GetCounter(
          "geosir_router_exhausted_total",
          "Batches rejected because every replica shed them");
      m->failovers = r.GetCounter(
          "geosir_router_failovers_total",
          "Completed primary switchovers on this tier");
      m->writes_drained = r.GetCounter(
          "geosir_router_writes_drained_total",
          "Writes rejected during a failover's admission drain");
      return m;
    }();
    return metrics;
  }
};

ReplicatedShapeBase::ReplicatedShapeBase(ReplicatedOptions options,
                                         storage::DurableDynamicBase primary)
    : options_(std::move(options)),
      primary_(std::move(primary)),
      metrics_(RouterMetrics::Get()) {}

util::Result<std::unique_ptr<ReplicatedShapeBase>> ReplicatedShapeBase::Open(
    const std::string& primary_dir, std::vector<ReplicaSpec> replicas,
    ReplicatedOptions options, storage::RecoveryReport* report) {
  storage::DurabilityOptions durability;
  durability.env = options.env;
  durability.wal = options.primary_wal;
  durability.max_recovered_ids = options.max_recovered_ids;
  GEOSIR_ASSIGN_OR_RETURN(
      storage::DurableDynamicBase primary,
      storage::OpenDurableDynamicBase(primary_dir, options.base, durability,
                                      report));
  storage::Env* primary_env =
      options.env != nullptr ? options.env : storage::Env::Posix();
  std::unique_ptr<ReplicatedShapeBase> replicated(
      new ReplicatedShapeBase(std::move(options), std::move(primary)));
  replicated->primary_env_ = primary_env;
  replicated->primary_dir_ = primary_dir;
  for (size_t i = 0; i < replicas.size(); ++i) {
    ReplicaSpec& spec = replicas[i];
    std::unique_ptr<LogTransport> transport = std::move(spec.transport);
    if (transport == nullptr) {
      transport = std::make_unique<PrimaryLogSource>(
          primary_env, primary_dir, replicated->primary_.journal.get());
    }
    FollowerOptions follower_options;
    follower_options.env = spec.env != nullptr ? spec.env : primary_env;
    follower_options.dir = spec.dir;
    follower_options.base = replicated->options_.base;
    follower_options.wal = replicated->options_.follower_wal;
    follower_options.max_recovered_ids = replicated->options_.max_recovered_ids;
    follower_options.admission = replicated->options_.admission;
    follower_options.reconnect = replicated->options_.reconnect;
    follower_options.fetch_batch_records =
        replicated->options_.fetch_batch_records;
    follower_options.replica_index = static_cast<uint32_t>(i);
    GEOSIR_ASSIGN_OR_RETURN(
        std::unique_ptr<Follower> follower,
        Follower::Open(std::move(follower_options), transport.get()));
    replicated->transports_.push_back(std::move(transport));
    replicated->followers_.push_back(std::move(follower));
  }
  if (replicated->options_.start_replication &&
      !replicated->followers_.empty()) {
    replicated->Start();
  }
  return replicated;
}

ReplicatedShapeBase::~ReplicatedShapeBase() { Stop(); }

namespace {

/// The retriable answer every write gets while a switchover is re-seating
/// the primary: the drain window is bounded, so callers just retry.
util::Status FailoverDrain() {
  return util::Status::Unavailable("primary failover in progress; retry");
}

}  // namespace

util::Result<uint64_t> ReplicatedShapeBase::Insert(geom::Polyline boundary,
                                                   core::ImageId image,
                                                   std::string label) {
  if (failover_in_progress_.load(std::memory_order_acquire)) {
    metrics_->writes_drained->Inc();
    return FailoverDrain();
  }
  std::lock_guard<std::mutex> lock(primary_mutex_);
  return primary_.base->Insert(std::move(boundary), image, std::move(label));
}

util::Status ReplicatedShapeBase::Remove(uint64_t id) {
  if (failover_in_progress_.load(std::memory_order_acquire)) {
    metrics_->writes_drained->Inc();
    return FailoverDrain();
  }
  std::lock_guard<std::mutex> lock(primary_mutex_);
  return primary_.base->Remove(id);
}

util::Status ReplicatedShapeBase::Compact() {
  if (failover_in_progress_.load(std::memory_order_acquire)) {
    metrics_->writes_drained->Inc();
    return FailoverDrain();
  }
  std::lock_guard<std::mutex> lock(primary_mutex_);
  return primary_.base->Compact();
}

util::Status ReplicatedShapeBase::SyncPrimary() {
  if (failover_in_progress_.load(std::memory_order_acquire)) {
    return FailoverDrain();
  }
  std::lock_guard<std::mutex> lock(primary_mutex_);
  return primary_.journal->Sync();
}

storage::WalTailState ReplicatedShapeBase::PrimaryTail() const {
  std::lock_guard<std::mutex> lock(primary_mutex_);
  return primary_.journal->tail_state();
}

util::Result<std::vector<std::vector<std::pair<uint64_t, double>>>>
ReplicatedShapeBase::MatchBatch(const std::vector<geom::Polyline>& queries,
                                size_t k,
                                std::vector<core::MatchStats>* stats,
                                util::Deadline deadline) {
  return RouteBatch(queries, k, stats, deadline);
}

util::Result<std::vector<std::pair<uint64_t, double>>>
ReplicatedShapeBase::Match(const geom::Polyline& query, size_t k,
                           core::MatchStats* stats, util::Deadline deadline) {
  // The stats are always collected: a lifecycle stop that left nothing
  // ranked is this read's answer.
  std::vector<core::MatchStats> batch_stats;
  GEOSIR_ASSIGN_OR_RETURN(auto results,
                          RouteBatch({query}, k, &batch_stats, deadline));
  const core::MatchStats& one = batch_stats.front();
  if (stats != nullptr) *stats = one;
  if (results.front().empty() && !one.termination.ok()) {
    return one.termination;
  }
  return std::move(results.front());
}

util::Result<std::vector<std::vector<std::pair<uint64_t, double>>>>
ReplicatedShapeBase::RouteBatch(const std::vector<geom::Polyline>& queries,
                                size_t k,
                                std::vector<core::MatchStats>* stats,
                                util::Deadline deadline) {
  metrics_->batches->Inc();
  // Shared hold for the whole routed batch: AddFollower grows the
  // follower set under the exclusive side, so the walk below never races
  // a push_back (promotion seals slots in place and never erases them).
  std::shared_lock<std::shared_mutex> topology(topology_mutex_);
  if (followers_.empty()) {
    // No serving tier: the primary answers directly, serialized with
    // writes (reads see lsn == tail, so staleness is trivially 0).
    // The lock wait stands in for a follower's admission queue: a
    // deadline that expired in it is shed the same way.
    std::lock_guard<std::mutex> lock(primary_mutex_);
    if (deadline.expired()) {
      return util::Status::DeadlineExceeded("deadline expired before the read");
    }
    const uint64_t pinned = primary_.journal->tail_state().next_lsn;
    auto results = primary_.base->MatchBatch(queries, k, stats, deadline);
    if (results.ok() && stats != nullptr) {
      for (core::MatchStats& entry : *stats) {
        entry.replicated = false;
        entry.replica_lsn = pinned;
        entry.replica_lag = 0;
      }
    }
    return results;
  }
  // Freshness is judged against the LIVE primary tail, not the follower's
  // possibly stale observation of it — a disconnected follower otherwise
  // reports itself perfectly caught up.
  const uint64_t tail = PrimaryTail().next_lsn;
  const size_t n = followers_.size();
  const size_t start =
      static_cast<size_t>(round_robin_.fetch_add(1, std::memory_order_relaxed)) %
      n;
  auto lag_of = [&](size_t i) {
    const uint64_t applied = followers_[i]->applied_lsn();
    return tail > applied ? tail - applied : 0;
  };
  auto try_serve =
      [&](size_t i) -> util::Result<
                        std::vector<std::vector<std::pair<uint64_t, double>>>> {
    auto results = followers_[i]->MatchBatch(queries, k, stats, deadline);
    if (results.ok() && stats != nullptr) {
      // The follower stamps lag from the head it last OBSERVED, which is
      // exactly what goes stale when it stalls. The router sees the live
      // tail, so raise the stamp to whichever bound is tighter.
      for (core::MatchStats& entry : *stats) {
        const uint64_t router_lag =
            tail > entry.replica_lsn ? tail - entry.replica_lsn : 0;
        if (router_lag > entry.replica_lag) entry.replica_lag = router_lag;
      }
    }
    return results;
  };

  if (options_.stale_policy == StaleRoutePolicy::kServeStale) {
    for (size_t step = 0; step < n; ++step) {
      const size_t i = (start + step) % n;
      auto results = try_serve(i);
      if (results.ok()) return results;
      if (results.status().code() != util::StatusCode::kUnavailable) {
        return results;
      }
      metrics_->shed->Inc();
    }
    metrics_->exhausted->Inc();
    return util::Status::Unavailable("all replicas shed the batch");
  }

  // kRedirectStale, pass 1: fresh replicas in round-robin order.
  bool redirected = false;
  for (size_t step = 0; step < n; ++step) {
    const size_t i = (start + step) % n;
    if (lag_of(i) > options_.max_staleness_records) {
      redirected = true;
      continue;
    }
    auto results = try_serve(i);
    if (results.ok()) {
      if (redirected) metrics_->redirected->Inc();
      return results;
    }
    if (results.status().code() != util::StatusCode::kUnavailable) {
      return results;
    }
    metrics_->shed->Inc();
  }
  // Pass 2: every fresh replica shed (or none is fresh). Degrade to the
  // least stale replica that will admit us rather than failing the
  // query — the staleness is visible to the caller via MatchStats.
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return lag_of(a) < lag_of(b); });
  for (size_t i : order) {
    if (lag_of(i) <= options_.max_staleness_records) continue;  // Tried above.
    auto results = try_serve(i);
    if (results.ok()) {
      metrics_->stale_served->Inc();
      return results;
    }
    if (results.status().code() != util::StatusCode::kUnavailable) {
      return results;
    }
    metrics_->shed->Inc();
  }
  metrics_->exhausted->Inc();
  return util::Status::Unavailable("all replicas shed the batch");
}

void ReplicatedShapeBase::Start() {
  StartPumps();
  StartMonitor();
}

void ReplicatedShapeBase::Stop() {
  // Monitor first: it may be mid-failover, in which case it resumes the
  // pump threads before returning — stopping pumps first would leak them.
  StopMonitor();
  StopPumps();
}

void ReplicatedShapeBase::StartPumps() {
  if (running_.exchange(true)) return;
  std::shared_lock<std::shared_mutex> topology(topology_mutex_);
  pump_threads_.reserve(followers_.size());
  for (size_t i = 0; i < followers_.size(); ++i) {
    pump_threads_.emplace_back([this, i] { FollowerLoop(i); });
  }
}

void ReplicatedShapeBase::StopPumps() {
  if (!running_.exchange(false)) return;
  for (std::thread& thread : pump_threads_) {
    if (thread.joinable()) thread.join();
  }
  pump_threads_.clear();
}

void ReplicatedShapeBase::StartMonitor() {
  if (options_.failover_failures_to_trip <= 0) return;
  if (monitor_running_.exchange(true)) return;
  monitor_thread_ = std::thread([this] { MonitorLoop(); });
}

void ReplicatedShapeBase::StopMonitor() {
  if (!monitor_running_.exchange(false)) return;
  if (monitor_thread_.joinable()) monitor_thread_.join();
}

void ReplicatedShapeBase::MonitorLoop() {
  int consecutive = 0;
  while (monitor_running_.load(std::memory_order_relaxed)) {
    std::this_thread::sleep_for(
        std::chrono::milliseconds(options_.failover_probe_interval_ms));
    if (!monitor_running_.load(std::memory_order_relaxed)) break;
    util::Status health;
    if (options_.health_probe) {
      health = options_.health_probe();
    } else if (failover_in_progress_.load(std::memory_order_acquire)) {
      continue;  // A switchover is already under way.
    } else {
      // Default probe: a durability barrier exercises the whole primary
      // write path (append fd, sync, sticky WAL status).
      std::lock_guard<std::mutex> lock(primary_mutex_);
      health = primary_.journal->Sync();
    }
    if (health.ok()) {
      consecutive = 0;
      continue;
    }
    if (++consecutive < options_.failover_failures_to_trip) continue;
    consecutive = 0;
    // Trip: the freshest surviving follower takes over. Losing the race
    // with a manual PromoteFollower is fine — the next probe round sees
    // the new primary.
    size_t best = 0;
    bool found = false;
    {
      std::shared_lock<std::shared_mutex> topology(topology_mutex_);
      uint64_t best_lsn = 0;
      for (size_t j = 0; j < followers_.size(); ++j) {
        if (followers_[j]->promoted()) continue;
        const uint64_t applied = followers_[j]->applied_lsn();
        if (!found || applied > best_lsn) {
          best = j;
          best_lsn = applied;
          found = true;
        }
      }
    }
    if (!found) continue;
    (void)PromoteFollower(best);
  }
}

void ReplicatedShapeBase::FollowerLoop(size_t i) {
  Follower& follower = *followers_[i];
  while (running_.load(std::memory_order_relaxed)) {
    if (follower.promoted()) return;  // Sealed: nothing left to pump.
    auto applied = follower.Pump();
    // Errors here are transient by construction (the retry loop already
    // absorbed reconnectable ones); back off and try again. Progress
    // means more may be pending — pump immediately.
    if (applied.ok() && *applied > 0) continue;
    if (options_.idle_backoff_us > 0) {
      std::this_thread::sleep_for(
          std::chrono::microseconds(options_.idle_backoff_us));
    }
  }
}

util::Status ReplicatedShapeBase::PromoteFollower(size_t i) {
  std::lock_guard<std::mutex> failover_lock(failover_mutex_);
  if (i >= followers_.size()) {
    return util::Status::InvalidArgument("no replica at index " +
                                         std::to_string(i));
  }
  Follower& target = *followers_[i];
  if (target.promoted()) {
    return util::Status::FailedPrecondition("replica " + std::to_string(i) +
                                            " is already promoted");
  }
  // Phase 1: drain. New writes answer kUnavailable from here until the
  // new primary is seated; pump threads are paused so every follower is
  // quiescent for the transport swap.
  failover_in_progress_.store(true, std::memory_order_release);
  const bool was_running = running_.load(std::memory_order_relaxed);
  StopPumps();
  auto reopen = [&](util::Status status) {
    failover_in_progress_.store(false, std::memory_order_release);
    if (was_running) StartPumps();
    return status;
  };
  // Phase 2: last durability barrier on the old primary (best effort —
  // a dead primary is exactly why we may be here), then give the target
  // a bounded window to drink the remaining acked suffix.
  {
    std::lock_guard<std::mutex> lock(primary_mutex_);
    (void)primary_.journal->Sync();
  }
  const util::Deadline catchup =
      util::Deadline::AfterMillis(options_.promote_catchup_ms);
  while (!catchup.expired()) {
    if (target.applied_lsn() >= PrimaryTail().next_lsn) break;
    auto applied = target.Pump();
    if (!applied.ok()) break;  // Unreachable primary: promote what we have.
  }
  // Phase 3: promotion — the target seals itself and hands back its state
  // as a durable primary under a freshly bumped term.
  auto promoted = target.Promote();
  if (!promoted.ok()) return reopen(promoted.status());
  const uint64_t new_epoch = promoted->journal->tail_state().epoch;
  // Phase 4: seat the new primary. The old journal dies with the swap;
  // the sealed slot's transport still points at it but is never used
  // again (Pump refuses before touching the transport).
  {
    std::lock_guard<std::mutex> lock(primary_mutex_);
    primary_ = std::move(*promoted);
    primary_env_ = target.env();
    primary_dir_ = target.dir();
  }
  // Phase 5: re-point every survivor at the new primary and fence it to
  // the new term, so a zombie of the old primary can never feed it again.
  for (size_t j = 0; j < followers_.size(); ++j) {
    if (j == i || followers_[j]->promoted()) continue;
    auto transport = std::make_unique<PrimaryLogSource>(
        primary_env_, primary_dir_, primary_.journal.get());
    followers_[j]->Fence(new_epoch);
    followers_[j]->SetTransport(transport.get());
    transports_[j] = std::move(transport);
  }
  failovers_.fetch_add(1, std::memory_order_relaxed);
  metrics_->failovers->Inc();
  // Phase 6: reopen writes, resume pumping.
  return reopen(util::Status::OK());
}

util::Status ReplicatedShapeBase::AddFollower(ReplicaSpec spec) {
  std::lock_guard<std::mutex> failover_lock(failover_mutex_);
  const bool was_running = running_.load(std::memory_order_relaxed);
  StopPumps();
  std::unique_ptr<LogTransport> transport = std::move(spec.transport);
  if (transport == nullptr) {
    transport = std::make_unique<PrimaryLogSource>(primary_env_, primary_dir_,
                                                   primary_.journal.get());
  }
  FollowerOptions follower_options;
  follower_options.env = spec.env != nullptr ? spec.env : primary_env_;
  follower_options.dir = spec.dir;
  follower_options.base = options_.base;
  follower_options.wal = options_.follower_wal;
  follower_options.max_recovered_ids = options_.max_recovered_ids;
  follower_options.admission = options_.admission;
  follower_options.reconnect = options_.reconnect;
  follower_options.fetch_batch_records = options_.fetch_batch_records;
  follower_options.replica_index = static_cast<uint32_t>(followers_.size());
  auto follower = Follower::Open(std::move(follower_options), transport.get());
  if (!follower.ok()) {
    if (was_running) StartPumps();
    return follower.status();
  }
  // Fence before the first pump: a joiner must never trust a zombie of a
  // term older than the tier it is joining, and the fence is what routes
  // its divergent local suffix (if any) into repair instead of replay.
  (*follower)->Fence(PrimaryTail().epoch);
  {
    std::unique_lock<std::shared_mutex> topology(topology_mutex_);
    transports_.push_back(std::move(transport));
    followers_.push_back(std::move(*follower));
  }
  if (was_running) StartPumps();
  return util::Status::OK();
}

uint64_t ReplicatedShapeBase::primary_epoch() const {
  return PrimaryTail().epoch;
}

util::Result<size_t> ReplicatedShapeBase::StepFollower(size_t i) {
  return followers_[i]->Pump();
}

util::Status ReplicatedShapeBase::WaitForCatchUp(util::Deadline deadline) {
  while (true) {
    const uint64_t tail = PrimaryTail().next_lsn;
    bool caught_up = true;
    for (auto& follower : followers_) {
      if (follower->promoted()) continue;  // Sealed slots never advance.
      if (follower->applied_lsn() < tail) {
        caught_up = false;
        break;
      }
    }
    if (caught_up) return util::Status::OK();
    if (deadline.expired()) {
      return util::Status::DeadlineExceeded(
          "followers did not catch up in time");
    }
    if (running_.load(std::memory_order_relaxed)) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    } else {
      for (auto& follower : followers_) {
        if (follower->promoted()) continue;
        if (follower->applied_lsn() >= tail) continue;
        auto applied = follower->Pump();
        if (!applied.ok() &&
            applied.status().code() != util::StatusCode::kUnavailable) {
          return applied.status();
        }
      }
    }
  }
}

uint64_t ReplicatedShapeBase::primary_next_lsn() const {
  return PrimaryTail().next_lsn;
}

uint64_t ReplicatedShapeBase::primary_generation() const {
  return PrimaryTail().generation;
}

uint64_t ReplicatedShapeBase::PrimaryNextId() const {
  std::lock_guard<std::mutex> lock(primary_mutex_);
  return primary_.base->NextId();
}

std::vector<uint64_t> ReplicatedShapeBase::PrimaryLiveIds() const {
  std::lock_guard<std::mutex> lock(primary_mutex_);
  return primary_.base->LiveIds();
}

}  // namespace geosir::replication
