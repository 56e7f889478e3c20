#include "replication/follower.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <mutex>

#include "obs/metrics.h"
#include "storage/base_io.h"

namespace geosir::replication {

using storage::WalRecord;
using storage::WalRecordType;

/// Per-replica metric series (replica="<index>" label). Cached like
/// WalMetrics: the registry owns the instruments, this table owns the
/// grouping, both live for the process.
struct Follower::Metrics {
  obs::Counter* applied_records;
  obs::Counter* apply_batches;
  obs::Counter* duplicates_skipped;
  obs::Counter* gap_batches;
  obs::Counter* reconnects;
  obs::Counter* resyncs;
  obs::Counter* rotations;
  obs::Counter* local_reopens;
  obs::Counter* queries;
  obs::Counter* fence_rejections;
  obs::Counter* truncated_records;
  obs::Counter* divergence_repairs;
  obs::Counter* promotions;
  obs::Gauge* lag;
  obs::Gauge* applied_lsn;
  obs::Gauge* epoch;
  obs::Gauge* last_fetch_error;
  obs::Histogram* apply_latency;

  static const Metrics* For(uint32_t replica) {
    static std::mutex mutex;
    static std::map<uint32_t, const Metrics*>* table =
        new std::map<uint32_t, const Metrics*>();
    std::lock_guard<std::mutex> lock(mutex);
    auto it = table->find(replica);
    if (it != table->end()) return it->second;
    obs::MetricRegistry& r = obs::MetricRegistry::Default();
    const std::string labels = "replica=\"" + std::to_string(replica) + "\"";
    auto* m = new Metrics();
    m->applied_records = r.GetCounter(
        "geosir_replication_applied_records_total",
        "WAL records applied by a replication follower", labels);
    m->apply_batches =
        r.GetCounter("geosir_replication_apply_batches_total",
                     "Fetch batches that applied at least one record",
                     labels);
    m->duplicates_skipped = r.GetCounter(
        "geosir_replication_duplicate_records_total",
        "Redelivered records skipped by idempotent replay", labels);
    m->gap_batches = r.GetCounter(
        "geosir_replication_gap_batches_total",
        "Batches rejected because a record arrived out of order", labels);
    m->reconnects = r.GetCounter(
        "geosir_replication_reconnects_total",
        "Successful fetches after at least one transport failure", labels);
    m->resyncs = r.GetCounter(
        "geosir_replication_resyncs_total",
        "Full snapshot resyncs (cursor fell behind the retained log)",
        labels);
    m->rotations = r.GetCounter(
        "geosir_replication_rotations_total",
        "Primary checkpoint rotations followed by this replica", labels);
    m->local_reopens = r.GetCounter(
        "geosir_replication_local_reopens_total",
        "Recoveries of the follower's own mirror after a local fault",
        labels);
    m->queries =
        r.GetCounter("geosir_replication_queries_total",
                     "Queries served by this replica's MatchBatch", labels);
    m->fence_rejections = r.GetCounter(
        "geosir_replication_fence_rejections_total",
        "Fetches rejected because the source's term is fenced off", labels);
    m->truncated_records = r.GetCounter(
        "geosir_replication_truncated_records_total",
        "Divergent-suffix records truncated from the mirror on rejoin",
        labels);
    m->divergence_repairs = r.GetCounter(
        "geosir_replication_divergence_repairs_total",
        "Rejoin repairs of an unreplicated divergent suffix", labels);
    m->promotions = r.GetCounter(
        "geosir_replication_promotions_total",
        "Promotions of this replica to primary", labels);
    m->lag = r.GetGauge("geosir_replication_lag_records",
                        "Records behind the last observed primary tail",
                        labels);
    m->applied_lsn =
        r.GetGauge("geosir_replication_applied_lsn",
                   "Exclusive LSN bound of the replica's serving state",
                   labels);
    m->epoch = r.GetGauge(
        "geosir_replication_epoch",
        "Primary term of the replica's current generation head", labels);
    m->last_fetch_error = r.GetGauge(
        "geosir_replication_last_fetch_error_code",
        "StatusCode of the most recent failed transport fetch (0 = none)",
        labels);
    m->apply_latency = r.GetHistogram(
        "geosir_replication_apply_seconds",
        "Wall-clock latency of one fetch-and-apply batch",
        obs::LatencyBucketsSeconds(), labels);
    (*table)[replica] = m;
    return m;
  }
};

Follower::Follower(FollowerOptions options, LogTransport* transport)
    : options_(std::move(options)),
      env_(options_.env != nullptr ? options_.env : storage::Env::Posix()),
      transport_(transport),
      admission_(options_.admission),
      metrics_(Metrics::For(options_.replica_index)) {}

util::Result<std::unique_ptr<Follower>> Follower::Open(
    FollowerOptions options, LogTransport* transport) {
  std::unique_ptr<Follower> follower(
      new Follower(std::move(options), transport));
  GEOSIR_RETURN_IF_ERROR(follower->RecoverLocal());
  // Info-style series: the value is always 1, the identity lives in the
  // labels — which channel ("in-process", "socket://host:port", ...)
  // this replica ships over.
  obs::MetricRegistry::Default()
      .GetGauge("geosir_replication_transport_info",
                "Transport identity of a replica (value is always 1)",
                "replica=\"" +
                    std::to_string(follower->options_.replica_index) +
                    "\",transport=\"" + transport->Describe() + "\"")
      ->Set(1);
  return follower;
}

void Follower::RecordFetchError(const util::Status& status) {
  fetch_errors_.fetch_add(1, std::memory_order_relaxed);
  last_fetch_error_code_.store(static_cast<int>(status.code()),
                               std::memory_order_relaxed);
  metrics_->last_fetch_error->Set(static_cast<int64_t>(status.code()));
  // Lazy per-(replica, code) series; the registry dedups by label set, so
  // this is a mutex-guarded lookup only on the (cold) error path.
  obs::MetricRegistry::Default()
      .GetCounter("geosir_replication_fetch_errors_total",
                  "Transport fetches that failed after retries, by code",
                  "replica=\"" + std::to_string(options_.replica_index) +
                      "\",code=\"" + util::StatusCodeName(status.code()) +
                      "\"")
      ->Inc();
}

util::Status Follower::RecoverLocal() {
  GEOSIR_RETURN_IF_ERROR(env_->CreateDir(options_.dir));
  GEOSIR_ASSIGN_OR_RETURN(storage::WalDirListing listing,
                          storage::ListWalDir(env_, options_.dir));
  std::sort(listing.wal_generations.rbegin(), listing.wal_generations.rend());
  for (uint64_t generation : listing.wal_generations) {
    auto bytes = env_->ReadFileBytes(storage::WalPath(options_.dir, generation));
    if (!bytes.ok()) continue;
    storage::WalReadReport read_report;
    std::vector<WalRecord> records =
        storage::ReadWalRecords(*bytes, &read_report);
    if (records.empty() ||
        records.front().type != WalRecordType::kCompactCommit) {
      continue;  // Torn head: the mirror died mid-install. Skip.
    }
    auto commit = storage::DecodeCommit(records.front().payload);
    if (!commit.ok() || commit->generation != generation ||
        commit->next_id > options_.max_recovered_ids) {
      continue;
    }
    auto ckpt_bytes =
        env_->ReadFileBytes(storage::CheckpointPath(options_.dir, generation));
    if (!ckpt_bytes.ok()) continue;
    auto checkpoint =
        storage::LoadShapeBaseFromBytes(*ckpt_bytes, options_.base.base);
    if (!checkpoint.ok()) continue;
    auto fresh = std::make_unique<core::DynamicShapeBase>(options_.base);
    if (!fresh
             ->RestoreCheckpoint(std::move(*checkpoint), commit->live_ids,
                                 commit->next_id)
             .ok()) {
      continue;
    }
    // Replay the tail; a record that fails to apply ends the trusted
    // prefix exactly like a corrupt frame would.
    size_t keep = records.size();
    for (size_t i = 1; i < records.size(); ++i) {
      const WalRecord& record = records[i];
      util::Status applied;
      switch (record.type) {
        case WalRecordType::kInsert: {
          auto payload = storage::DecodeInsert(record.payload);
          applied = payload.ok()
                        ? fresh->ReplayInsert(
                              payload->id,
                              geom::Polyline(std::move(payload->vertices),
                                             payload->closed),
                              payload->image, std::move(payload->label))
                        : payload.status();
          break;
        }
        case WalRecordType::kRemove: {
          auto id = storage::DecodeRemove(record.payload);
          applied = id.ok() ? fresh->ReplayRemove(*id) : id.status();
          break;
        }
        case WalRecordType::kCompactBegin:
          break;  // Advisory marker.
        case WalRecordType::kCompactCommit:
          applied = util::Status::Corruption("compact-commit mid-log");
          break;
      }
      if (!applied.ok()) {
        keep = i;
        break;
      }
    }
    const bool dirty = read_report.truncated_bytes > 0 ||
                       read_report.salvaged || keep < records.size();
    records.resize(keep);
    if (dirty) {
      // Unlike the primary (which rotates to a fresh generation and in
      // doing so consumes an LSN of its own), the follower mirrors the
      // PRIMARY's LSN sequence and must never invent records. Truncate
      // the mirror to its valid prefix instead — atomically, so a crash
      // mid-truncation leaves either the old or the repaired file, and
      // an append never lands after discarded garbage.
      std::vector<uint8_t> prefix;
      for (const WalRecord& record : records) {
        storage::AppendWalFrame(&prefix, record.lsn, record.type,
                                record.payload);
      }
      GEOSIR_RETURN_IF_ERROR(env_->WriteFileAtomic(
          storage::WalPath(options_.dir, generation), prefix));
    }
    GEOSIR_ASSIGN_OR_RETURN(
        std::unique_ptr<storage::AppendableFile> file,
        env_->NewAppendableFile(storage::WalPath(options_.dir, generation),
                                /*truncate=*/false));
    const uint64_t next_lsn = records.back().lsn + 1;
    // synced_upto=0 forces a real barrier: nothing says the bytes a clean
    // process exit left behind were ever fsynced.
    auto wal = std::make_unique<storage::WriteAheadLog>(
        std::move(file), options_.wal, next_lsn, /*synced_upto=*/0);
    GEOSIR_RETURN_IF_ERROR(wal->Sync());
    {
      std::unique_lock<std::shared_mutex> lock(state_mutex_);
      base_ = std::move(fresh);
      wal_ = std::move(wal);
      have_generation_ = true;
      generation_ = generation;
      cursor_ = next_lsn;
      local_epoch_ = commit->epoch;
      local_epoch_start_lsn_ = commit->epoch_start_lsn;
      head_lsn_ = records.front().lsn;
      applied_lsn_.store(next_lsn, std::memory_order_release);
      durable_lsn_.store(wal_->synced_upto(), std::memory_order_release);
    }
    RaiseFence(commit->epoch);
    metrics_->applied_lsn->Set(static_cast<int64_t>(next_lsn));
    metrics_->epoch->Set(static_cast<int64_t>(commit->epoch));
    CleanupOtherGenerations(generation, /*have_keep=*/true);
    return util::Status::OK();
  }
  // Nothing recoverable: start empty and let the stream (or a snapshot)
  // bootstrap us. The follower's directory holds no authoritative data —
  // the primary does — so wiping leftovers is always safe here.
  CleanupOtherGenerations(0, /*have_keep=*/false);
  {
    std::unique_lock<std::shared_mutex> lock(state_mutex_);
    base_ = std::make_unique<core::DynamicShapeBase>(options_.base);
    wal_.reset();
    have_generation_ = false;
    generation_ = 0;
    cursor_ = 0;
    local_epoch_ = 0;
    local_epoch_start_lsn_ = 0;
    head_lsn_ = 0;
    applied_lsn_.store(0, std::memory_order_release);
    durable_lsn_.store(0, std::memory_order_release);
  }
  metrics_->applied_lsn->Set(0);
  return util::Status::OK();
}

void Follower::CleanupOtherGenerations(uint64_t keep, bool have_keep) {
  auto listing = storage::ListWalDir(env_, options_.dir);
  if (!listing.ok()) return;
  for (uint64_t generation : listing->wal_generations) {
    if (have_keep && generation == keep) continue;
    (void)env_->RemoveFile(storage::WalPath(options_.dir, generation));
  }
  for (uint64_t generation : listing->ckpt_generations) {
    if (have_keep && generation == keep) continue;
    (void)env_->RemoveFile(storage::CheckpointPath(options_.dir, generation));
  }
  for (const std::string& name : listing->tmp_names) {
    (void)env_->RemoveFile(options_.dir + "/" + name);
  }
}

util::Status Follower::ReopenLocal() {
  local_reopens_.fetch_add(1, std::memory_order_relaxed);
  metrics_->local_reopens->Inc();
  return RecoverLocal();
}

util::Status Follower::Bootstrap() {
  int attempts = 0;
  auto snapshot = util::RetryWithBackoff(
      options_.reconnect, [&] { return transport_->FetchSnapshot(); },
      &attempts);
  if (!snapshot.ok()) {
    RecordFetchError(snapshot.status());
    if (snapshot.status().code() == util::StatusCode::kUnavailable) {
      connected_.store(false, std::memory_order_relaxed);
    }
    return snapshot.status();
  }
  if (!connected_.exchange(true, std::memory_order_relaxed)) {
    reconnects_.fetch_add(1, std::memory_order_relaxed);
    metrics_->reconnects->Inc();
  }
  GEOSIR_RETURN_IF_ERROR(InstallSnapshot(*snapshot));
  resyncs_.fetch_add(1, std::memory_order_relaxed);
  metrics_->resyncs->Inc();
  return util::Status::OK();
}

util::Status Follower::InstallSnapshot(const SnapshotPackage& package) {
  // Validate the whole package before touching any local state: the
  // primary is a remote peer, so its head frame gets the same scrutiny a
  // local recovery would apply to a file on disk.
  storage::WalReadReport report;
  const std::vector<WalRecord> head =
      storage::ReadWalRecords(package.head_frame, &report);
  if (head.size() != 1 || report.truncated_bytes != 0 || report.salvaged ||
      head.front().type != WalRecordType::kCompactCommit) {
    return util::Status::Corruption("snapshot head frame is not a valid "
                                    "compact-commit record");
  }
  GEOSIR_ASSIGN_OR_RETURN(const storage::WalCommitPayload commit,
                          storage::DecodeCommit(head.front().payload));
  if (commit.generation != package.generation) {
    return util::Status::Corruption(
        "snapshot head generation does not match the package");
  }
  if (commit.epoch < fence_epoch_.load(std::memory_order_acquire)) {
    // A resync is a full trust transfer, so it gets the same zombie
    // fencing a fetch does: never install state from a deposed term.
    fence_rejections_.fetch_add(1, std::memory_order_relaxed);
    metrics_->fence_rejections->Inc();
    return util::Status::FailedPrecondition(
        "snapshot carries fenced epoch " + std::to_string(commit.epoch) +
        " (this replica is fenced to >= " +
        std::to_string(fence_epoch_.load(std::memory_order_acquire)) + ")");
  }
  if (commit.next_id > options_.max_recovered_ids) {
    return util::Status::Corruption(
        "snapshot head next_id " + std::to_string(commit.next_id) +
        " exceeds max_recovered_ids " +
        std::to_string(options_.max_recovered_ids));
  }
  GEOSIR_ASSIGN_OR_RETURN(
      std::unique_ptr<core::ShapeBase> checkpoint,
      storage::LoadShapeBaseFromBytes(package.checkpoint, options_.base.base));
  auto fresh = std::make_unique<core::DynamicShapeBase>(options_.base);
  GEOSIR_RETURN_IF_ERROR(fresh->RestoreCheckpoint(
      std::move(checkpoint), commit.live_ids, commit.next_id));

  // Persist the new generation pair durably before serving it, so a
  // follower restart resumes from here instead of re-fetching.
  GEOSIR_RETURN_IF_ERROR(env_->WriteFileAtomic(
      storage::CheckpointPath(options_.dir, package.generation),
      package.checkpoint));
  GEOSIR_RETURN_IF_ERROR(
      env_->WriteFileAtomic(storage::WalPath(options_.dir, package.generation),
                            package.head_frame));
  GEOSIR_ASSIGN_OR_RETURN(
      std::unique_ptr<storage::AppendableFile> file,
      env_->NewAppendableFile(storage::WalPath(options_.dir, package.generation),
                              /*truncate=*/false));
  const uint64_t next_lsn = head.front().lsn + 1;
  // WriteFileAtomic is durable by contract: nothing unsynced exists yet.
  auto wal = std::make_unique<storage::WriteAheadLog>(
      std::move(file), options_.wal, next_lsn, /*synced_upto=*/next_lsn);

  const uint64_t old_generation = generation_;
  const bool had_generation = have_generation_;
  {
    std::unique_lock<std::shared_mutex> lock(state_mutex_);
    base_ = std::move(fresh);
    wal_ = std::move(wal);
    have_generation_ = true;
    generation_ = package.generation;
    cursor_ = next_lsn;
    local_epoch_ = commit.epoch;
    local_epoch_start_lsn_ = commit.epoch_start_lsn;
    head_lsn_ = head.front().lsn;
    applied_lsn_.store(next_lsn, std::memory_order_release);
    durable_lsn_.store(next_lsn, std::memory_order_release);
  }
  RaiseFence(commit.epoch);
  primary_next_lsn_.store(package.primary_next_lsn,
                          std::memory_order_release);
  metrics_->applied_lsn->Set(static_cast<int64_t>(next_lsn));
  metrics_->epoch->Set(static_cast<int64_t>(commit.epoch));
  if (had_generation && old_generation != package.generation) {
    (void)env_->RemoveFile(storage::WalPath(options_.dir, old_generation));
    (void)env_->RemoveFile(
        storage::CheckpointPath(options_.dir, old_generation));
  }
  return util::Status::OK();
}

util::Status Follower::ApplyRecord(const WalRecord& record) {
  if (record.type == WalRecordType::kCompactCommit) return Rotate(record);
  if (wal_ == nullptr) {
    return util::Status::FailedPrecondition(
        "mutation record received before any generation head");
  }
  if (wal_->next_lsn() != record.lsn) {
    return util::Status::FailedPrecondition(
        "local wal mirror out of step with the stream");
  }
  // Mirror first, then apply: a crash between the two replays the record
  // from the mirror on restart (idempotent), while the reverse order
  // could serve state the mirror never saw.
  GEOSIR_RETURN_IF_ERROR(wal_->Append(record.type, record.payload).status());
  switch (record.type) {
    case WalRecordType::kInsert: {
      GEOSIR_ASSIGN_OR_RETURN(storage::WalInsertPayload payload,
                              storage::DecodeInsert(record.payload));
      std::unique_lock<std::shared_mutex> lock(state_mutex_);
      GEOSIR_RETURN_IF_ERROR(base_->ReplayInsert(
          payload.id,
          geom::Polyline(std::move(payload.vertices), payload.closed),
          payload.image, std::move(payload.label)));
      cursor_ = record.lsn + 1;
      applied_lsn_.store(cursor_, std::memory_order_release);
      break;
    }
    case WalRecordType::kRemove: {
      GEOSIR_ASSIGN_OR_RETURN(const uint64_t id,
                              storage::DecodeRemove(record.payload));
      std::unique_lock<std::shared_mutex> lock(state_mutex_);
      GEOSIR_RETURN_IF_ERROR(base_->ReplayRemove(id));
      cursor_ = record.lsn + 1;
      applied_lsn_.store(cursor_, std::memory_order_release);
      break;
    }
    case WalRecordType::kCompactBegin: {
      std::unique_lock<std::shared_mutex> lock(state_mutex_);
      cursor_ = record.lsn + 1;
      applied_lsn_.store(cursor_, std::memory_order_release);
      break;
    }
    case WalRecordType::kCompactCommit:
      break;  // Handled above.
  }
  durable_lsn_.store(wal_->synced_upto(), std::memory_order_release);
  return util::Status::OK();
}

util::Status Follower::Rotate(const WalRecord& record) {
  GEOSIR_ASSIGN_OR_RETURN(const storage::WalCommitPayload commit,
                          storage::DecodeCommit(record.payload));
  if (commit.next_id > options_.max_recovered_ids) {
    return util::Status::Corruption(
        "rotation commit next_id exceeds max_recovered_ids");
  }
  std::unique_lock<std::shared_mutex> lock(state_mutex_);
  // The commit describes the primary's state after every record below
  // this one; having applied exactly those, we must agree bit for bit —
  // anything else is divergence and the caller heals by resync.
  if (base_->NextId() != commit.next_id ||
      base_->LiveIds() != commit.live_ids) {
    // Either genuine lag (the commit leapt the cursor across records this
    // replica never saw) or divergence; both heal the same way, by
    // snapshot resync. Any state-changing record the replica missed
    // necessarily moves next_id or the live set, so passing this check
    // proves the skipped LSNs (if any) were advisory markers.
    return util::Status::FailedPrecondition(
        "replica state does not match rotation commit; snapshot resync "
        "required");
  }
  // Merge the delta into the main base, as the primary did at this exact
  // point in the stream, so replica query latency tracks the primary's.
  // The follower's base has no journal attached, so this is pure
  // in-memory restructuring — no LSNs are consumed. The compacted main
  // holds the live shapes in stable-id order with the original boundaries
  // the WAL carried, so it serializes to the primary's checkpoint bytes.
  GEOSIR_RETURN_IF_ERROR(base_->Compact());
  GEOSIR_ASSIGN_OR_RETURN(const std::vector<uint8_t> checkpoint,
                          storage::SerializeShapeBase(base_->main_base()));
  GEOSIR_RETURN_IF_ERROR(env_->WriteFileAtomic(
      storage::CheckpointPath(options_.dir, commit.generation), checkpoint));
  GEOSIR_ASSIGN_OR_RETURN(
      std::unique_ptr<storage::AppendableFile> file,
      env_->NewAppendableFile(storage::WalPath(options_.dir, commit.generation),
                              /*truncate=*/true));
  auto wal = std::make_unique<storage::WriteAheadLog>(
      std::move(file), options_.wal, record.lsn, /*synced_upto=*/record.lsn);
  GEOSIR_RETURN_IF_ERROR(
      wal->Append(WalRecordType::kCompactCommit, record.payload).status());
  GEOSIR_RETURN_IF_ERROR(wal->Sync());

  const uint64_t old_generation = generation_;
  const bool had_generation = have_generation_;
  wal_ = std::move(wal);
  have_generation_ = true;
  generation_ = commit.generation;
  cursor_ = record.lsn + 1;
  local_epoch_ = commit.epoch;
  local_epoch_start_lsn_ = commit.epoch_start_lsn;
  head_lsn_ = record.lsn;
  applied_lsn_.store(cursor_, std::memory_order_release);
  durable_lsn_.store(wal_->synced_upto(), std::memory_order_release);
  lock.unlock();

  if (had_generation && old_generation != commit.generation) {
    (void)env_->RemoveFile(storage::WalPath(options_.dir, old_generation));
    (void)env_->RemoveFile(
        storage::CheckpointPath(options_.dir, old_generation));
  }
  RaiseFence(commit.epoch);
  rotations_.fetch_add(1, std::memory_order_relaxed);
  metrics_->rotations->Inc();
  metrics_->epoch->Set(static_cast<int64_t>(commit.epoch));
  return util::Status::OK();
}

void Follower::RaiseFence(uint64_t epoch) {
  uint64_t current = fence_epoch_.load(std::memory_order_relaxed);
  while (epoch > current &&
         !fence_epoch_.compare_exchange_weak(current, epoch,
                                             std::memory_order_acq_rel)) {
  }
}

void Follower::Fence(uint64_t epoch) { RaiseFence(epoch); }

void Follower::SetTransport(LogTransport* transport) {
  transport_ = transport;
  connected_.store(true, std::memory_order_relaxed);
  obs::MetricRegistry::Default()
      .GetGauge("geosir_replication_transport_info",
                "Transport identity of a replica (value is always 1)",
                "replica=\"" + std::to_string(options_.replica_index) +
                    "\",transport=\"" + transport->Describe() + "\"")
      ->Set(1);
}

util::Status Follower::RepairDivergence(const EpochInfo& info) {
  divergence_repairs_.fetch_add(1, std::memory_order_relaxed);
  metrics_->divergence_repairs->Inc();
  if (!have_generation_ || head_lsn_ >= info.epoch_start_lsn) {
    // The generation head itself lies inside the divergent range (this
    // replica rotated after the new term began elsewhere): the file holds
    // no shared prefix to truncate back to, so heal by full resync.
    return Bootstrap();
  }
  // Close the mirror appender first: TruncateTo atomically rewrites the
  // file and requires exclusive ownership of it.
  wal_.reset();
  GEOSIR_ASSIGN_OR_RETURN(
      const size_t dropped,
      storage::WriteAheadLog::TruncateTo(
          env_, storage::WalPath(options_.dir, generation_),
          info.epoch_start_lsn));
  truncated_records_.fetch_add(dropped, std::memory_order_relaxed);
  metrics_->truncated_records->Inc(dropped);
  // Rebuild the serving state from the repaired mirror: the cursor lands
  // exactly on the term boundary and the stream refills from there.
  return RecoverLocal();
}

util::Result<storage::DurableDynamicBase> Follower::Promote() {
  std::unique_lock<std::shared_mutex> lock(state_mutex_);
  if (promoted_.load(std::memory_order_acquire)) {
    return util::Status::FailedPrecondition("follower is already promoted");
  }
  if (!have_generation_ || wal_ == nullptr) {
    return util::Status::FailedPrecondition(
        "cannot promote a follower with no local generation");
  }
  const uint64_t new_epoch =
      std::max(local_epoch_, fence_epoch_.load(std::memory_order_acquire)) +
      1;
  // The mirror WAL becomes the new primary's log: the journal takes over
  // the appender at this replica's cursor, so the first LSN the new term
  // writes is exactly the applied floor — the divergence boundary every
  // rejoining replica truncates to.
  auto journal = std::make_unique<storage::WalJournal>(
      env_, options_.dir, options_.wal, generation_, cursor_,
      std::move(wal_), local_epoch_, local_epoch_start_lsn_);
  GEOSIR_RETURN_IF_ERROR(journal->BeginEpoch(new_epoch));
  storage::DurableDynamicBase primary;
  primary.base = std::move(base_);
  primary.journal = std::move(journal);
  primary.base->SetJournal(primary.journal.get());
  // Seal this follower before anything can fail: a node whose promotion
  // dies half-way must read as dead, never as a live replica.
  promoted_.store(true, std::memory_order_release);
  RaiseFence(new_epoch);
  base_ = std::make_unique<core::DynamicShapeBase>(options_.base);
  have_generation_ = false;
  lock.unlock();
  // One compaction rotates to a generation whose durable head stamps the
  // new term; until it lands every mutation is fenced off, so no record
  // is ever written under the bumped epoch into the old generation.
  GEOSIR_RETURN_IF_ERROR(primary.base->Compact());
  metrics_->promotions->Inc();
  metrics_->epoch->Set(static_cast<int64_t>(new_epoch));
  return primary;
}

util::Result<size_t> Follower::Pump() {
  if (promoted_.load(std::memory_order_acquire)) {
    return util::Status::FailedPrecondition(
        "follower was promoted to primary; it no longer tails a stream");
  }
  int attempts = 0;
  auto fetched = util::RetryWithBackoff(
      options_.reconnect,
      [&] {
        return transport_->Fetch(cursor_, options_.fetch_batch_records,
                                 fence_epoch_.load(std::memory_order_acquire));
      },
      &attempts);
  if (!fetched.ok()) {
    RecordFetchError(fetched.status());
    switch (fetched.status().code()) {
      case util::StatusCode::kNotFound:
        // Behind the retained log (or talking to a rebuilt primary):
        // stream catch-up is impossible, resync from a snapshot.
        GEOSIR_RETURN_IF_ERROR(Bootstrap());
        return size_t{0};
      case util::StatusCode::kOutOfRange: {
        // The cursor is ahead of the source's tail. Before the blunt
        // resync, check for the rejoin-after-failover shape: a NEWER term
        // that began below our cursor means the suffix we hold past that
        // boundary was written by a deposed primary and never replicated —
        // truncate it and resume the stream, keeping the shared history.
        auto info = transport_->GetEpochInfo();
        if (info.ok() && info->epoch > local_epoch_ &&
            cursor_ > info->epoch_start_lsn) {
          RaiseFence(info->epoch);
          GEOSIR_RETURN_IF_ERROR(RepairDivergence(*info));
          return size_t{0};
        }
        GEOSIR_RETURN_IF_ERROR(Bootstrap());
        return size_t{0};
      }
      case util::StatusCode::kFailedPrecondition:
        // The SOURCE is fenced: its term is older than one this replica
        // has already observed — a zombie primary (or a peer this
        // transport must never speak to, e.g. a protocol mismatch).
        // Never apply from it and never resync from it; surface the
        // error so the control plane re-points the transport.
        fence_rejections_.fetch_add(1, std::memory_order_relaxed);
        metrics_->fence_rejections->Inc();
        return fetched.status();
      case util::StatusCode::kUnavailable:
        connected_.store(false, std::memory_order_relaxed);
        return fetched.status();
      default:
        return fetched.status();
    }
  }
  if (!connected_.exchange(true, std::memory_order_relaxed)) {
    reconnects_.fetch_add(1, std::memory_order_relaxed);
    metrics_->reconnects->Inc();
  }
  const LogBatch& batch = *fetched;
  primary_next_lsn_.store(batch.primary_next_lsn, std::memory_order_release);
  RaiseFence(batch.primary_epoch);
  if (batch.primary_epoch > local_epoch_) {
    // The source serves a newer term than our generation head. If our
    // cursor extends past where that term began, everything above the
    // boundary is a divergent suffix that the new primary has rewritten
    // under its own term — repair BEFORE applying anything, or the
    // streams would silently interleave.
    auto info = transport_->GetEpochInfo();
    if (!info.ok()) {
      RecordFetchError(info.status());
      return info.status();
    }
    if (cursor_ > info->epoch_start_lsn) {
      GEOSIR_RETURN_IF_ERROR(RepairDivergence(*info));
      return size_t{0};
    }
  }
  if (batch.records.empty()) {
    metrics_->lag->Set(static_cast<int64_t>(lag()));
    return size_t{0};
  }
  const auto start = std::chrono::steady_clock::now();
  size_t applied = 0;
  for (const WalRecord& record : batch.records) {
    if (record.lsn < cursor_) {
      // Redelivery (duplicate batch, or a batch overlapping the cursor):
      // replay is idempotent by simply skipping what is already applied.
      duplicates_skipped_.fetch_add(1, std::memory_order_relaxed);
      metrics_->duplicates_skipped->Inc();
      continue;
    }
    if (record.lsn > cursor_ &&
        record.type != WalRecordType::kCompactCommit) {
      // A gap (reordered delivery): never apply out of order; drop the
      // rest of the batch and refetch from the cursor.
      gap_batches_.fetch_add(1, std::memory_order_relaxed);
      metrics_->gap_batches->Inc();
      break;
    }
    // A rotation commit may leap the cursor: the primary deleted the old
    // generation, so the LSNs in between no longer exist as a log. Rotate
    // accepts the leap only when this replica's state already equals the
    // commit's (the skipped records were advisory markers); otherwise the
    // convergence check fails and the error path below resyncs.
    util::Status status = ApplyRecord(record);
    if (!status.ok()) {
      if (status.code() == util::StatusCode::kUnavailable) {
        // A local mirror fault (injected or real): recover from our own
        // files — the cursor regresses to the durable prefix and the
        // stream refills the difference.
        GEOSIR_RETURN_IF_ERROR(ReopenLocal());
        return status;
      }
      // Divergence/corruption: heal by full resync.
      GEOSIR_RETURN_IF_ERROR(Bootstrap());
      return applied;
    }
    ++applied;
  }
  if (applied > 0) {
    applied_records_.fetch_add(applied, std::memory_order_relaxed);
    apply_batches_.fetch_add(1, std::memory_order_relaxed);
    metrics_->applied_records->Inc(applied);
    metrics_->apply_batches->Inc();
    metrics_->apply_latency->Observe(
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count());
    metrics_->applied_lsn->Set(static_cast<int64_t>(cursor_));
  }
  metrics_->lag->Set(static_cast<int64_t>(lag()));
  return applied;
}

util::Status Follower::CatchUp(util::Deadline deadline) {
  while (true) {
    auto applied = Pump();
    if (applied.ok() && *applied == 0) {
      const uint64_t head = primary_next_lsn_.load(std::memory_order_acquire);
      if (applied_lsn_.load(std::memory_order_acquire) >= head) {
        return util::Status::OK();
      }
    }
    if (deadline.expired()) {
      return util::Status::DeadlineExceeded(
          "follower did not catch up in time");
    }
  }
}

util::Result<std::vector<std::vector<std::pair<uint64_t, double>>>>
Follower::MatchBatch(const std::vector<geom::Polyline>& queries, size_t k,
                     std::vector<core::MatchStats>* stats,
                     util::Deadline deadline) {
  if (promoted_.load(std::memory_order_acquire)) {
    // Sealed: the serving state moved out with Promote(). kUnavailable
    // reads as "shed" to the router, which tries the next replica.
    return util::Status::Unavailable("replica was promoted to primary");
  }
  GEOSIR_ASSIGN_OR_RETURN(query::AdmissionController::Ticket ticket,
                          admission_.Admit(deadline));
  std::shared_lock<std::shared_mutex> lock(state_mutex_);
  // Pinned for the whole batch: the apply path advances applied_lsn_
  // only while holding the lock exclusively, so nothing the batch reads
  // can carry an LSN at or above this bound.
  const uint64_t pinned = applied_lsn_.load(std::memory_order_acquire);
  // Admission and matching share one horizon.
  auto results = base_->MatchBatch(queries, k, stats, deadline);
  metrics_->queries->Inc(queries.size());
  if (results.ok() && stats != nullptr) {
    const uint64_t head = primary_next_lsn_.load(std::memory_order_acquire);
    const uint64_t lag = head > pinned ? head - pinned : 0;
    for (core::MatchStats& entry : *stats) {
      entry.replicated = true;
      entry.replica = options_.replica_index;
      entry.replica_lsn = pinned;
      entry.replica_lag = lag;
    }
  }
  return results;
}

util::Result<std::vector<std::pair<uint64_t, double>>> Follower::Match(
    const geom::Polyline& query, size_t k, core::MatchStats* stats,
    util::Deadline deadline) {
  std::vector<core::MatchStats> batch_stats;
  GEOSIR_ASSIGN_OR_RETURN(
      auto results,
      MatchBatch({query}, k, stats != nullptr ? &batch_stats : nullptr,
                 deadline));
  if (stats != nullptr && !batch_stats.empty()) *stats = batch_stats.front();
  return std::move(results.front());
}

uint64_t Follower::lag() const {
  const uint64_t head = primary_next_lsn_.load(std::memory_order_acquire);
  const uint64_t applied = applied_lsn_.load(std::memory_order_acquire);
  return head > applied ? head - applied : 0;
}

FollowerStatus Follower::status() const {
  FollowerStatus status;
  status.applied_lsn = applied_lsn_.load(std::memory_order_acquire);
  status.durable_lsn = durable_lsn_.load(std::memory_order_acquire);
  status.primary_next_lsn =
      primary_next_lsn_.load(std::memory_order_acquire);
  status.lag = lag();
  {
    std::shared_lock<std::shared_mutex> lock(state_mutex_);
    status.generation = generation_;
    status.local_epoch = local_epoch_;
  }
  status.fence_epoch = fence_epoch_.load(std::memory_order_acquire);
  status.counters.applied_records =
      applied_records_.load(std::memory_order_relaxed);
  status.counters.apply_batches =
      apply_batches_.load(std::memory_order_relaxed);
  status.counters.duplicates_skipped =
      duplicates_skipped_.load(std::memory_order_relaxed);
  status.counters.gap_batches = gap_batches_.load(std::memory_order_relaxed);
  status.counters.reconnects = reconnects_.load(std::memory_order_relaxed);
  status.counters.resyncs = resyncs_.load(std::memory_order_relaxed);
  status.counters.rotations = rotations_.load(std::memory_order_relaxed);
  status.counters.local_reopens =
      local_reopens_.load(std::memory_order_relaxed);
  status.counters.fetch_errors =
      fetch_errors_.load(std::memory_order_relaxed);
  status.counters.fence_rejections =
      fence_rejections_.load(std::memory_order_relaxed);
  status.counters.truncated_records =
      truncated_records_.load(std::memory_order_relaxed);
  status.counters.divergence_repairs =
      divergence_repairs_.load(std::memory_order_relaxed);
  status.last_fetch_error = static_cast<util::StatusCode>(
      last_fetch_error_code_.load(std::memory_order_relaxed));
  return status;
}

uint64_t Follower::NextId() const {
  std::shared_lock<std::shared_mutex> lock(state_mutex_);
  return base_->NextId();
}

std::vector<uint64_t> Follower::LiveIds() const {
  std::shared_lock<std::shared_mutex> lock(state_mutex_);
  return base_->LiveIds();
}

bool Follower::IsLive(uint64_t id) const {
  std::shared_lock<std::shared_mutex> lock(state_mutex_);
  return base_->IsLive(id);
}

geom::Polyline Follower::boundary(uint64_t id) const {
  std::shared_lock<std::shared_mutex> lock(state_mutex_);
  return base_->boundary(id);
}

std::string Follower::label(uint64_t id) const {
  std::shared_lock<std::shared_mutex> lock(state_mutex_);
  return base_->label(id);
}

core::ImageId Follower::image(uint64_t id) const {
  std::shared_lock<std::shared_mutex> lock(state_mutex_);
  return base_->image(id);
}

uint64_t Follower::generation() const {
  std::shared_lock<std::shared_mutex> lock(state_mutex_);
  return generation_;
}

}  // namespace geosir::replication
