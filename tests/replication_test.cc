// Replication tier tests: WAL tailing with the committed-offset bound,
// the in-process log transport, follower catch-up (in-stream, restart,
// snapshot resync), deterministic transport-fault convergence, the
// lag-aware batch router, and the snapshot-consistency contract under
// concurrent writes (the TSan target of the suite).

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/dynamic_shape_base.h"
#include "replication/fault_transport.h"
#include "replication/follower.h"
#include "replication/log_transport.h"
#include "replication/replicated_shape_base.h"
#include "replication/replication_server.h"
#include "replication/socket_transport.h"
#include "storage/appendable_file.h"
#include "storage/wal.h"

namespace geosir::replication {
namespace {

using core::DynamicShapeBase;
using geom::Point;
using geom::Polyline;
using storage::MemEnv;
using storage::WalOptions;
using storage::WalRecordType;
using storage::WalSyncPolicy;

Polyline RegularPolygon(int n, double r) {
  std::vector<Point> v;
  for (int i = 0; i < n; ++i) {
    const double a = 2.0 * M_PI * i / n;
    v.push_back({r * std::cos(a), r * std::sin(a)});
  }
  return Polyline::Closed(std::move(v));
}

/// Deterministic per-id fixtures (same scheme as the crash suite): the
/// model needs no stored state.
Polyline ShapeFor(uint64_t id) {
  return RegularPolygon(3 + static_cast<int>(id % 8),
                        1.0 + 0.05 * static_cast<double>(id % 7));
}
std::string LabelFor(uint64_t id) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "s%llu",
                static_cast<unsigned long long>(id));
  return buf;
}
core::ImageId ImageFor(uint64_t id) {
  return static_cast<core::ImageId>(id * 3 + 1);
}

constexpr char kPrimaryDir[] = "primary";

DynamicShapeBase::Options SmallBaseOptions() {
  DynamicShapeBase::Options options;
  options.min_compaction_size = 8;
  options.max_delta_fraction = 0.5;
  return options;
}

/// Rotations rotate the retained log away, so a follower that is even
/// one record behind at that instant must snapshot-resync. Tests that
/// assert a resync-free stream therefore keep compaction explicit.
DynamicShapeBase::Options NoAutoCompactOptions() {
  DynamicShapeBase::Options options;
  options.min_compaction_size = 1u << 20;
  return options;
}

/// Is the follower's live state exactly the primary's reference model?
bool FollowerMatches(const Follower& follower,
                     const std::set<uint64_t>& model) {
  const std::vector<uint64_t> live = follower.LiveIds();
  if (live.size() != model.size()) return false;
  for (uint64_t id : live) {
    if (model.count(id) == 0) return false;
    if (follower.label(id) != LabelFor(id)) return false;
    if (follower.image(id) != ImageFor(id)) return false;
    const Polyline expected = ShapeFor(id);
    const Polyline got = follower.boundary(id);
    if (got.size() != expected.size() || got.closed() != expected.closed()) {
      return false;
    }
    for (size_t v = 0; v < expected.size(); ++v) {
      if (got.vertex(v).x != expected.vertex(v).x ||
          got.vertex(v).y != expected.vertex(v).y) {
        return false;
      }
    }
  }
  return true;
}

// --- WAL tailing: the committed-offset reader bound ---

TEST(WalTailing, ReaderStopsAtCommittedOffset) {
  MemEnv env;
  ASSERT_TRUE(env.CreateDir("db").ok());
  std::vector<uint8_t> bytes;
  std::vector<size_t> frame_end;
  for (uint64_t lsn = 0; lsn < 3; ++lsn) {
    const std::vector<uint8_t> payload(16, static_cast<uint8_t>(lsn));
    storage::AppendWalFrame(&bytes, lsn,
                            lsn == 0 ? WalRecordType::kCompactCommit
                                     : WalRecordType::kInsert,
                            payload);
    frame_end.push_back(bytes.size());
  }
  ASSERT_TRUE(env.WriteFileAtomic(storage::WalPath("db", 0), bytes).ok());

  // A committed bound at a frame boundary: exactly those frames, no
  // truncation report — the third frame is simply not trusted yet.
  storage::WalReadReport report;
  auto records = storage::ReadWalRecordsSince(&env, "db", /*generation=*/0,
                                              /*from_lsn=*/0,
                                              /*committed_bytes=*/frame_end[1],
                                              /*max_records=*/0, &report);
  ASSERT_TRUE(records.ok());
  EXPECT_EQ(records->size(), 2u);
  EXPECT_EQ(report.truncated_bytes, 0u);

  // A bound in the middle of a frame (the appender is mid-Append): the
  // half frame past the last full one is ignored, not decoded as a torn
  // tail of garbage.
  auto mid = storage::ReadWalRecordsSince(&env, "db", 0, 0,
                                          frame_end[1] + 7, 0, &report);
  ASSERT_TRUE(mid.ok());
  EXPECT_EQ(mid->size(), 2u);
  EXPECT_GT(report.truncated_bytes, 0u);

  // Cursor resume: a second read from the new bound returns only the
  // newly committed frame, without re-decoding the prefix.
  storage::WalTailCursor cursor;
  auto first = storage::ReadWalRecordsSince(&env, "db", 0, 0, frame_end[1], 0,
                                            &report, &cursor);
  ASSERT_TRUE(first.ok());
  ASSERT_EQ(first->size(), 2u);
  EXPECT_EQ(cursor.offset, frame_end[1]);
  auto second = storage::ReadWalRecordsSince(&env, "db", 0, /*from_lsn=*/2,
                                             bytes.size(), 0, &report,
                                             &cursor);
  ASSERT_TRUE(second.ok());
  ASSERT_EQ(second->size(), 1u);
  EXPECT_EQ(second->front().lsn, 2u);
  EXPECT_EQ(cursor.offset, bytes.size());
}

TEST(WalTailing, LiveLogPublishesCommittedBytes) {
  MemEnv env;
  storage::DurabilityOptions durability;
  durability.env = &env;
  durability.wal.sync_policy = WalSyncPolicy::kEveryN;
  durability.wal.sync_every_n = 64;  // Committed must not wait for sync.
  auto opened = storage::OpenDurableDynamicBase(kPrimaryDir,
                                                SmallBaseOptions(),
                                                durability);
  ASSERT_TRUE(opened.ok());
  for (uint64_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(
        opened->base->Insert(ShapeFor(i), ImageFor(i), LabelFor(i)).ok());
  }
  const storage::WalTailState tail = opened->journal->tail_state();
  EXPECT_EQ(tail.next_lsn, 6u);  // Head commit + 5 inserts.
  // All five inserts are readable through the committed bound even though
  // the sync policy has not fsynced them.
  auto records = storage::ReadWalRecordsSince(&env, kPrimaryDir,
                                              tail.generation, /*from_lsn=*/0,
                                              tail.committed_bytes);
  ASSERT_TRUE(records.ok());
  EXPECT_EQ(records->size(), 6u);
  EXPECT_LT(tail.synced_upto, tail.next_lsn);
}

// --- Transport ---

TEST(Transport, FetchWindowsAndSnapshotResync) {
  MemEnv env;
  storage::DurabilityOptions durability;
  durability.env = &env;
  durability.wal.sync_policy = WalSyncPolicy::kEveryRecord;
  auto opened = storage::OpenDurableDynamicBase(kPrimaryDir,
                                                SmallBaseOptions(),
                                                durability);
  ASSERT_TRUE(opened.ok());
  for (uint64_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(
        opened->base->Insert(ShapeFor(i), ImageFor(i), LabelFor(i)).ok());
  }
  PrimaryLogSource source(&env, kPrimaryDir, opened->journal.get());

  auto batch = source.Fetch(/*from_lsn=*/0, /*max_records=*/100);
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(batch->records.size(), 5u);
  EXPECT_EQ(batch->records.front().type, WalRecordType::kCompactCommit);
  EXPECT_EQ(batch->primary_next_lsn, 5u);

  // Caught up: empty batch, not an error.
  auto caught_up = source.Fetch(5, 100);
  ASSERT_TRUE(caught_up.ok());
  EXPECT_TRUE(caught_up->records.empty());

  // Ahead of the tail: a different primary wrote this cursor.
  EXPECT_EQ(source.Fetch(42, 100).status().code(),
            util::StatusCode::kOutOfRange);

  // Rotate the log away. A pre-rotation cursor is answered with a batch
  // that leaps to the new generation's commit head: it is the follower's
  // convergence check, not the transport, that decides between an
  // in-stream rotation and a snapshot resync.
  ASSERT_TRUE(opened->base->Compact().ok());
  PrimaryLogSource fresh(&env, kPrimaryDir, opened->journal.get());
  auto leap = fresh.Fetch(1, 100);
  ASSERT_TRUE(leap.ok());
  ASSERT_FALSE(leap->records.empty());
  EXPECT_EQ(leap->records.front().type, WalRecordType::kCompactCommit);
  EXPECT_GT(leap->records.front().lsn, 4u);

  auto snapshot = fresh.FetchSnapshot();
  ASSERT_TRUE(snapshot.ok());
  EXPECT_EQ(snapshot->generation, opened->journal->generation());
  EXPECT_FALSE(snapshot->checkpoint.empty());
  std::vector<storage::WalRecord> head =
      storage::ReadWalRecords(snapshot->head_frame);
  ASSERT_EQ(head.size(), 1u);
  EXPECT_EQ(head.front().type, WalRecordType::kCompactCommit);
}

// --- Follower catch-up ---

struct Cluster {
  MemEnv env;
  std::unique_ptr<storage::DurableDynamicBase> primary;
  std::unique_ptr<LogTransport> transport;
  std::unique_ptr<Follower> follower;
  /// Base options for primary and follower alike. Tests that assert a
  /// resync-free stream disable auto-compaction, so the only rotations
  /// are explicit Compact() calls issued at a converged cursor.
  DynamicShapeBase::Options base_options = SmallBaseOptions();

  util::Status OpenPrimary(WalSyncPolicy policy = WalSyncPolicy::kEveryRecord) {
    storage::DurabilityOptions durability;
    durability.env = &env;
    durability.wal.sync_policy = policy;
    auto opened = storage::OpenDurableDynamicBase(kPrimaryDir, base_options,
                                                  durability);
    GEOSIR_RETURN_IF_ERROR(opened.status());
    primary = std::make_unique<storage::DurableDynamicBase>(
        std::move(*opened));
    return util::Status::OK();
  }

  util::Status OpenFollower(TransportFaultPlan* plan = nullptr) {
    auto source = std::make_unique<PrimaryLogSource>(&env, kPrimaryDir,
                                                     primary->journal.get());
    if (plan != nullptr) {
      transport = std::make_unique<FaultInjectingTransport>(std::move(source),
                                                            *plan);
    } else {
      transport = std::move(source);
    }
    FollowerOptions options;
    options.env = &env;
    options.dir = "replica0";
    options.base = base_options;
    options.wal.sync_policy = WalSyncPolicy::kEveryRecord;
    GEOSIR_ASSIGN_OR_RETURN(follower,
                            Follower::Open(std::move(options),
                                           transport.get()));
    return util::Status::OK();
  }

  /// Pumps through transient faults until the follower reaches the
  /// primary's tail (bounded, so a livelock fails the test instead of
  /// hanging it).
  void PumpUntilConverged(size_t max_rounds = 10000) {
    const uint64_t tail = primary->journal->tail_state().next_lsn;
    for (size_t round = 0; round < max_rounds; ++round) {
      if (follower->applied_lsn() >= tail) return;
      (void)follower->Pump();
    }
    FAIL() << "follower did not converge within " << max_rounds << " rounds";
  }
};

TEST(Follower, TailsAndConvergesInStream) {
  Cluster cluster;
  cluster.base_options = NoAutoCompactOptions();
  ASSERT_TRUE(cluster.OpenPrimary().ok());
  ASSERT_TRUE(cluster.OpenFollower().ok());
  std::set<uint64_t> model;
  for (uint64_t i = 0; i < 20; ++i) {
    ASSERT_TRUE(cluster.primary->base
                    ->Insert(ShapeFor(i), ImageFor(i), LabelFor(i))
                    .ok());
    model.insert(i);
    if (i % 4 == 3) {
      const uint64_t victim = i - 3;
      ASSERT_TRUE(cluster.primary->base->Remove(victim).ok());
      model.erase(victim);
    }
  }
  cluster.PumpUntilConverged();
  EXPECT_TRUE(FollowerMatches(*cluster.follower, model));
  EXPECT_EQ(cluster.follower->NextId(), cluster.primary->base->NextId());
  EXPECT_EQ(cluster.follower->status().counters.resyncs, 0u);
  EXPECT_EQ(cluster.follower->lag(), 0u);

  // The follower's local WAL mirror is byte-identical to the primary's:
  // same head frame, same verbatim-mirrored records.
  auto primary_wal = cluster.env.ReadFileBytes(
      storage::WalPath(kPrimaryDir, cluster.primary->journal->generation()));
  auto follower_wal = cluster.env.ReadFileBytes(
      storage::WalPath("replica0", cluster.follower->generation()));
  ASSERT_TRUE(primary_wal.ok());
  ASSERT_TRUE(follower_wal.ok());
  EXPECT_EQ(*primary_wal, *follower_wal);
}

TEST(Follower, RotationProducesIdenticalCheckpoint) {
  Cluster cluster;
  cluster.base_options = NoAutoCompactOptions();
  ASSERT_TRUE(cluster.OpenPrimary(WalSyncPolicy::kOnCheckpoint).ok());
  ASSERT_TRUE(cluster.OpenFollower().ok());
  for (uint64_t i = 0; i < 12; ++i) {
    ASSERT_TRUE(cluster.primary->base
                    ->Insert(ShapeFor(i), ImageFor(i), LabelFor(i))
                    .ok());
    if (i == 5) {
      ASSERT_TRUE(cluster.primary->base->Remove(2).ok());
    }
    // Pump to the tail BEFORE compacting: a rotation is streamable only
    // by a converged follower (the old generation's log is deleted), so
    // this is the one schedule where rotations cost no resync.
    (void)cluster.follower->Pump();
    if (i % 5 == 4) {
      ASSERT_TRUE(cluster.primary->base->Compact().ok());
      (void)cluster.follower->Pump();
    }
  }
  cluster.PumpUntilConverged();
  const uint64_t generation = cluster.primary->journal->generation();
  ASSERT_GT(generation, 0u);
  EXPECT_EQ(cluster.follower->generation(), generation);
  EXPECT_GT(cluster.follower->status().counters.rotations, 0u);
  EXPECT_EQ(cluster.follower->status().counters.resyncs, 0u);

  // The follower rebuilt the checkpoint from its own replica of the
  // stream; the WAL carries original boundaries, so the bytes match the
  // primary's checkpoint exactly.
  auto primary_ckpt =
      cluster.env.ReadFileBytes(storage::CheckpointPath(kPrimaryDir,
                                                        generation));
  auto follower_ckpt =
      cluster.env.ReadFileBytes(storage::CheckpointPath("replica0",
                                                        generation));
  ASSERT_TRUE(primary_ckpt.ok());
  ASSERT_TRUE(follower_ckpt.ok());
  EXPECT_EQ(*primary_ckpt, *follower_ckpt);
}

TEST(Follower, RestartResumesFromLocalStateWithoutResync) {
  Cluster cluster;
  cluster.base_options = NoAutoCompactOptions();
  ASSERT_TRUE(cluster.OpenPrimary().ok());
  ASSERT_TRUE(cluster.OpenFollower().ok());
  for (uint64_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(cluster.primary->base
                    ->Insert(ShapeFor(i), ImageFor(i), LabelFor(i))
                    .ok());
  }
  cluster.PumpUntilConverged();
  const uint64_t resumed_from = cluster.follower->applied_lsn();
  cluster.follower.reset();

  // More writes while the follower is down.
  std::set<uint64_t> model;
  for (uint64_t i = 0; i < 10; ++i) model.insert(i);
  for (uint64_t i = 10; i < 16; ++i) {
    ASSERT_TRUE(cluster.primary->base
                    ->Insert(ShapeFor(i), ImageFor(i), LabelFor(i))
                    .ok());
    model.insert(i);
  }

  ASSERT_TRUE(cluster.OpenFollower().ok());
  // Local recovery restored everything the first incarnation applied —
  // no snapshot, no restart from zero.
  EXPECT_EQ(cluster.follower->applied_lsn(), resumed_from);
  cluster.PumpUntilConverged();
  EXPECT_TRUE(FollowerMatches(*cluster.follower, model));
  EXPECT_EQ(cluster.follower->status().counters.resyncs, 0u);
}

TEST(Follower, ReconnectAcrossRotationLeapsToTheNewHeadWithoutGapAbort) {
  Cluster cluster;
  cluster.base_options = NoAutoCompactOptions();
  ASSERT_TRUE(cluster.OpenPrimary().ok());
  ASSERT_TRUE(cluster.OpenFollower().ok());
  std::set<uint64_t> model;
  for (uint64_t i = 0; i < 6; ++i) {
    ASSERT_TRUE(cluster.primary->base
                    ->Insert(ShapeFor(i), ImageFor(i), LabelFor(i))
                    .ok());
    model.insert(i);
  }
  cluster.PumpUntilConverged();
  const uint64_t cursor = cluster.follower->applied_lsn();
  const FollowerCounters before = cluster.follower->status().counters;

  // The follower goes dark across a rotation that ships NO mutations:
  // the advisory compact-begin record at the follower's cursor is
  // deleted with the old generation's log, so on reconnect the stream
  // resumes at the new head commit, whose LSN lies PAST the cursor.
  // That is a legal commit-leap (the skipped record was advisory, state
  // converges), and it must be absorbed in-stream — neither reported as
  // a lost-record gap nor escalated to a snapshot resync.
  ASSERT_TRUE(cluster.primary->base->Compact().ok());
  ASSERT_GT(cluster.primary->journal->tail_state().next_lsn, cursor + 1);
  cluster.PumpUntilConverged();

  EXPECT_TRUE(FollowerMatches(*cluster.follower, model));
  EXPECT_EQ(cluster.follower->generation(),
            cluster.primary->journal->generation());
  const FollowerCounters counters = cluster.follower->status().counters;
  EXPECT_EQ(counters.rotations, before.rotations + 1);
  EXPECT_EQ(counters.gap_batches, before.gap_batches);
  EXPECT_EQ(counters.resyncs, 0u);
}

TEST(Follower, LaggedPastRotationSnapshotResyncs) {
  Cluster cluster;
  ASSERT_TRUE(cluster.OpenPrimary().ok());
  ASSERT_TRUE(cluster.OpenFollower().ok());
  std::set<uint64_t> model;
  // Two full rotations while the follower never pumps: the records it
  // needs no longer exist as a log.
  for (uint64_t i = 0; i < 12; ++i) {
    ASSERT_TRUE(cluster.primary->base
                    ->Insert(ShapeFor(i), ImageFor(i), LabelFor(i))
                    .ok());
    model.insert(i);
    if (i % 6 == 5) {
      ASSERT_TRUE(cluster.primary->base->Compact().ok());
    }
  }
  ASSERT_GT(cluster.primary->journal->generation(), 1u);
  cluster.PumpUntilConverged();
  EXPECT_TRUE(FollowerMatches(*cluster.follower, model));
  EXPECT_EQ(cluster.follower->status().counters.resyncs, 1u);
  EXPECT_EQ(cluster.follower->generation(),
            cluster.primary->journal->generation());
}

TEST(Follower, FaultyTransportConvergesDeterministically) {
  for (uint64_t seed : {1ull, 7ull, 42ull}) {
    TransportFaultPlan plan;
    plan.seed = seed;
    plan.drop_rate = 0.2;
    plan.duplicate_rate = 0.2;
    plan.reorder_rate = 0.2;
    plan.disconnect_rate = 0.05;
    plan.disconnect_ops = 3;
    plan.delay_rate = 0.0;

    Cluster cluster;
    ASSERT_TRUE(cluster.OpenPrimary().ok());
    ASSERT_TRUE(cluster.OpenFollower(&plan).ok());
    // Small fetch windows force many transport ops → many fault draws.
    std::set<uint64_t> model;
    for (uint64_t i = 0; i < 30; ++i) {
      ASSERT_TRUE(cluster.primary->base
                      ->Insert(ShapeFor(i), ImageFor(i), LabelFor(i))
                      .ok());
      model.insert(i);
      if (i % 5 == 4) {
        ASSERT_TRUE(cluster.primary->base->Remove(i - 4).ok());
        model.erase(i - 4);
      }
      (void)cluster.follower->Pump();
    }
    cluster.PumpUntilConverged();
    EXPECT_TRUE(FollowerMatches(*cluster.follower, model))
        << "seed " << seed;
    auto* faulty = static_cast<FaultInjectingTransport*>(
        cluster.transport.get());
    EXPECT_GT(faulty->injected_drops() + faulty->injected_duplicates() +
                  faulty->injected_reorders() + faulty->injected_disconnects(),
              0u)
        << "seed " << seed << " injected nothing — rates too low for "
        << faulty->ops() << " ops";
  }
}

TEST(Follower, DuplicatesAndReordersAreAbsorbedIdempotently) {
  TransportFaultPlan plan;
  plan.seed = 3;
  plan.duplicate_rate = 0.5;
  plan.reorder_rate = 0.3;

  Cluster cluster;
  ASSERT_TRUE(cluster.OpenPrimary().ok());
  ASSERT_TRUE(cluster.OpenFollower(&plan).ok());
  std::set<uint64_t> model;
  for (uint64_t i = 0; i < 24; ++i) {
    ASSERT_TRUE(cluster.primary->base
                    ->Insert(ShapeFor(i), ImageFor(i), LabelFor(i))
                    .ok());
    model.insert(i);
    (void)cluster.follower->Pump();
    (void)cluster.follower->Pump();
  }
  cluster.PumpUntilConverged();
  EXPECT_TRUE(FollowerMatches(*cluster.follower, model));
  const FollowerCounters counters = cluster.follower->status().counters;
  // The fault plan redelivered whole batches and swapped record pairs;
  // idempotent replay must have skipped and refetched rather than
  // double-applying (which FollowerMatches above would catch) — and the
  // paths must actually have fired.
  EXPECT_GT(counters.duplicates_skipped, 0u);
  EXPECT_GT(counters.gap_batches, 0u);
}

// --- Socket-backed followers (real loopback TCP) ---

TEST(Follower, ConvergesOverRealSocketsWithIdenticalMirror) {
  // The same catch-up contract as the in-process transport, but the log
  // ships through ReplicationServer + SocketLogTransport over loopback:
  // two followers, each on its own connection, one primary endpoint.
  Cluster cluster;
  cluster.base_options = NoAutoCompactOptions();
  ASSERT_TRUE(cluster.OpenPrimary().ok());

  ReplicationServerOptions server_options;
  server_options.env = &cluster.env;
  server_options.dir = kPrimaryDir;
  server_options.journal = cluster.primary->journal.get();
  auto server = ReplicationServer::Start(server_options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  std::unique_ptr<SocketLogTransport> transports[2];
  std::unique_ptr<Follower> followers[2];
  for (int i = 0; i < 2; ++i) {
    SocketTransportOptions transport_options;
    transport_options.host = "127.0.0.1";
    transport_options.port = (*server)->port();
    transport_options.reconnect = DefaultReconnectPolicy(/*jitter_seed=*/i + 1);
    transport_options.reconnect.base_backoff_us = 200;
    transport_options.reconnect.max_backoff_us = 5000;
    transports[i] = std::make_unique<SocketLogTransport>(transport_options);
    FollowerOptions options;
    options.env = &cluster.env;
    options.dir = "replica" + std::to_string(i);
    options.base = cluster.base_options;
    options.wal.sync_policy = WalSyncPolicy::kEveryRecord;
    options.replica_index = static_cast<uint32_t>(i);
    auto follower = Follower::Open(std::move(options), transports[i].get());
    ASSERT_TRUE(follower.ok()) << follower.status().ToString();
    followers[i] = std::move(follower).value();
  }

  std::set<uint64_t> model;
  for (uint64_t i = 0; i < 20; ++i) {
    ASSERT_TRUE(cluster.primary->base
                    ->Insert(ShapeFor(i), ImageFor(i), LabelFor(i))
                    .ok());
    model.insert(i);
    if (i % 5 == 4) {
      const uint64_t victim = i - 2;
      ASSERT_TRUE(cluster.primary->base->Remove(victim).ok());
      model.erase(victim);
    }
  }
  const uint64_t tail = cluster.primary->journal->tail_state().next_lsn;
  for (auto& follower : followers) {
    for (size_t round = 0; round < 10000 && follower->applied_lsn() < tail;
         ++round) {
      (void)follower->Pump();
    }
    ASSERT_EQ(follower->applied_lsn(), tail);
    EXPECT_TRUE(FollowerMatches(*follower, model));
    EXPECT_EQ(follower->NextId(), cluster.primary->base->NextId());
    EXPECT_EQ(follower->lag(), 0u);
    EXPECT_EQ(follower->status().counters.resyncs, 0u);
  }

  // Byte-shipped means byte-identical: each follower's WAL mirror equals
  // the primary's log, record for record, through the framed wire.
  auto primary_wal = cluster.env.ReadFileBytes(
      storage::WalPath(kPrimaryDir, cluster.primary->journal->generation()));
  ASSERT_TRUE(primary_wal.ok());
  for (int i = 0; i < 2; ++i) {
    auto follower_wal = cluster.env.ReadFileBytes(storage::WalPath(
        "replica" + std::to_string(i), followers[i]->generation()));
    ASSERT_TRUE(follower_wal.ok());
    EXPECT_EQ(*primary_wal, *follower_wal) << "replica " << i;
  }

  // A rotation (explicit compaction at a converged cursor) streams over
  // the socket exactly as in-process: checkpoint + fresh generation.
  ASSERT_TRUE(cluster.primary->base->Compact().ok());
  for (uint64_t i = 20; i < 26; ++i) {
    ASSERT_TRUE(cluster.primary->base
                    ->Insert(ShapeFor(i), ImageFor(i), LabelFor(i))
                    .ok());
    model.insert(i);
  }
  const uint64_t tail2 = cluster.primary->journal->tail_state().next_lsn;
  for (auto& follower : followers) {
    for (size_t round = 0; round < 10000 && follower->applied_lsn() < tail2;
         ++round) {
      (void)follower->Pump();
    }
    ASSERT_EQ(follower->applied_lsn(), tail2);
    EXPECT_TRUE(FollowerMatches(*follower, model));
    EXPECT_EQ(follower->generation(), cluster.primary->journal->generation());
    EXPECT_GT(follower->status().counters.rotations, 0u);
  }

  // Graceful teardown while clients hold live connections.
  (*server)->Stop();
  EXPECT_EQ((*server)->active_connections(), 0u);
}

// --- The replicated serving tier ---

ReplicatedOptions TierOptions() {
  ReplicatedOptions options;
  options.base = SmallBaseOptions();
  options.primary_wal.sync_policy = WalSyncPolicy::kEveryRecord;
  options.follower_wal.sync_policy = WalSyncPolicy::kEveryRecord;
  options.start_replication = false;
  return options;
}

std::vector<ReplicaSpec> Replicas(size_t n) {
  std::vector<ReplicaSpec> specs(n);
  for (size_t i = 0; i < n; ++i) {
    specs[i].dir = "replica" + std::to_string(i);
  }
  return specs;
}

TEST(ReplicatedTier, QueriesPinReplicaLsnAndReportStaleness) {
  MemEnv env;
  ReplicatedOptions options = TierOptions();
  options.env = &env;
  auto tier = ReplicatedShapeBase::Open(kPrimaryDir, Replicas(2), options);
  ASSERT_TRUE(tier.ok());
  for (uint64_t i = 0; i < 10; ++i) {
    ASSERT_TRUE((*tier)->Insert(ShapeFor(i), ImageFor(i), LabelFor(i)).ok());
  }
  ASSERT_TRUE((*tier)->WaitForCatchUp(util::Deadline::AfterMillis(5000)).ok());

  std::vector<core::MatchStats> stats;
  auto results = (*tier)->MatchBatch({ShapeFor(3), ShapeFor(7)}, /*k=*/1,
                                     &stats);
  ASSERT_TRUE(results.ok());
  ASSERT_EQ(results->size(), 2u);
  EXPECT_EQ((*results)[0].front().first, 3u);
  EXPECT_EQ((*results)[1].front().first, 7u);
  ASSERT_EQ(stats.size(), 2u);
  for (const core::MatchStats& entry : stats) {
    EXPECT_TRUE(entry.replicated);
    EXPECT_EQ(entry.replica_lsn, (*tier)->primary_next_lsn());
    EXPECT_EQ(entry.replica_lag, 0u);
  }
}

TEST(ReplicatedTier, RouterRedirectsAroundStaleFollower) {
  MemEnv env;
  ReplicatedOptions options = TierOptions();
  options.env = &env;
  options.max_staleness_records = 4;
  auto tier = ReplicatedShapeBase::Open(kPrimaryDir, Replicas(2), options);
  ASSERT_TRUE(tier.ok());
  for (uint64_t i = 0; i < 8; ++i) {
    ASSERT_TRUE((*tier)->Insert(ShapeFor(i), ImageFor(i), LabelFor(i)).ok());
  }
  ASSERT_TRUE((*tier)->WaitForCatchUp(util::Deadline::AfterMillis(5000)).ok());

  // Stall replica 1: ten more writes that only replica 0 applies.
  for (uint64_t i = 8; i < 18; ++i) {
    ASSERT_TRUE((*tier)->Insert(ShapeFor(i), ImageFor(i), LabelFor(i)).ok());
  }
  while ((*tier)->follower(0).applied_lsn() < (*tier)->primary_next_lsn()) {
    ASSERT_TRUE((*tier)->StepFollower(0).ok());
  }

  // Every batch lands on the fresh replica, none errors, and the fresh
  // replica's staleness stamp stays within the bound.
  for (int round = 0; round < 8; ++round) {
    std::vector<core::MatchStats> stats;
    auto results = (*tier)->MatchBatch({ShapeFor(12)}, 1, &stats);
    ASSERT_TRUE(results.ok()) << results.status().message();
    ASSERT_EQ(stats.size(), 1u);
    EXPECT_EQ(stats[0].replica, 0u);
    EXPECT_LE(stats[0].replica_lag, options.max_staleness_records);
    EXPECT_EQ((*results)[0].front().first, 12u);
  }
}

TEST(ReplicatedTier, ServeStalePolicyRoundRobinsThroughLaggards) {
  MemEnv env;
  ReplicatedOptions options = TierOptions();
  options.env = &env;
  options.max_staleness_records = 4;
  options.stale_policy = StaleRoutePolicy::kServeStale;
  auto tier = ReplicatedShapeBase::Open(kPrimaryDir, Replicas(2), options);
  ASSERT_TRUE(tier.ok());
  for (uint64_t i = 0; i < 8; ++i) {
    ASSERT_TRUE((*tier)->Insert(ShapeFor(i), ImageFor(i), LabelFor(i)).ok());
  }
  ASSERT_TRUE((*tier)->WaitForCatchUp(util::Deadline::AfterMillis(5000)).ok());
  for (uint64_t i = 8; i < 18; ++i) {
    ASSERT_TRUE((*tier)->Insert(ShapeFor(i), ImageFor(i), LabelFor(i)).ok());
  }
  while ((*tier)->follower(0).applied_lsn() < (*tier)->primary_next_lsn()) {
    ASSERT_TRUE((*tier)->StepFollower(0).ok());
  }

  bool served_stale = false;
  for (int round = 0; round < 8; ++round) {
    std::vector<core::MatchStats> stats;
    auto results = (*tier)->MatchBatch({ShapeFor(3)}, 1, &stats);
    ASSERT_TRUE(results.ok());
    if (stats[0].replica == 1) {
      served_stale = true;
      EXPECT_GT(stats[0].replica_lag, options.max_staleness_records);
    }
  }
  EXPECT_TRUE(served_stale)
      << "round-robin never reached the stale replica in 8 rounds";
}

TEST(ReplicatedTier, PrimaryServesWhenNoFollowers) {
  MemEnv env;
  ReplicatedOptions options = TierOptions();
  options.env = &env;
  auto tier = ReplicatedShapeBase::Open(kPrimaryDir, {}, options);
  ASSERT_TRUE(tier.ok());
  for (uint64_t i = 0; i < 5; ++i) {
    ASSERT_TRUE((*tier)->Insert(ShapeFor(i), ImageFor(i), LabelFor(i)).ok());
  }
  std::vector<core::MatchStats> stats;
  auto results = (*tier)->MatchBatch({ShapeFor(2)}, 1, &stats);
  ASSERT_TRUE(results.ok());
  EXPECT_EQ((*results)[0].front().first, 2u);
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_FALSE(stats[0].replicated);
  EXPECT_EQ(stats[0].replica_lag, 0u);
}

TEST(ReplicatedTier, PrimaryShedsAnExpiredDeadline) {
  // With no follower the primary answers the read. Its deadline bounds
  // the read as a follower's admission and matching do: an expired one
  // is shed, not answered in full.
  MemEnv env;
  ReplicatedOptions options = TierOptions();
  options.env = &env;
  auto tier = ReplicatedShapeBase::Open(kPrimaryDir, {}, options);
  ASSERT_TRUE(tier.ok());
  for (uint64_t i = 0; i < 5; ++i) {
    ASSERT_TRUE((*tier)->Insert(ShapeFor(i), ImageFor(i), LabelFor(i)).ok());
  }
  const util::Deadline expired = util::Deadline::AfterMicros(0);
  core::MatchStats stats;
  auto single = (*tier)->Match(ShapeFor(2), 1, &stats, expired);
  EXPECT_EQ(single.status().code(), util::StatusCode::kDeadlineExceeded);
  auto batch = (*tier)->MatchBatch({ShapeFor(2)}, 1, nullptr, expired);
  EXPECT_EQ(batch.status().code(), util::StatusCode::kDeadlineExceeded);
  auto later = (*tier)->Match(ShapeFor(2), 1, &stats,
                              util::Deadline::AfterMillis(60000));
  ASSERT_TRUE(later.ok()) << later.status().ToString();
  EXPECT_EQ(later->front().first, 2u);
  EXPECT_FALSE(stats.partial);
}

// --- Snapshot consistency under concurrent writes (TSan target) ---
//
// The contract: a query admitted at replica LSN L never observes a shape
// whose insert was logged at or after L. The writer records every
// insert's LSN; query threads check every id they get back against it,
// while the pump threads replay, rotate and compact underneath them.

TEST(ReplicatedTier, SnapshotConsistencyUnderConcurrentWrites) {
  constexpr uint64_t kInserts = 160;
  MemEnv env;
  ReplicatedOptions options = TierOptions();
  options.env = &env;
  options.start_replication = true;
  options.idle_backoff_us = 20;
  auto tier_or = ReplicatedShapeBase::Open(kPrimaryDir, Replicas(2), options);
  ASSERT_TRUE(tier_or.ok());
  ReplicatedShapeBase& tier = **tier_or;

  // insert_lsns[id] is published by the writer before the insert is
  // acknowledged; UINT64_MAX means "never inserted".
  std::vector<std::atomic<uint64_t>> insert_lsns(kInserts);
  for (auto& lsn : insert_lsns) lsn.store(UINT64_MAX);
  std::atomic<uint64_t> inserted{0};
  std::atomic<bool> done{false};
  std::atomic<int> violations{0};

  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&, t] {
      uint64_t probe = static_cast<uint64_t>(t);
      while (!done.load(std::memory_order_acquire)) {
        const uint64_t upper = inserted.load(std::memory_order_acquire);
        if (upper == 0) continue;
        probe = (probe * 31 + 17) % upper;
        std::vector<core::MatchStats> stats;
        auto results = tier.MatchBatch({ShapeFor(probe)}, /*k=*/2, &stats);
        if (!results.ok()) continue;  // Shed under load: retriable.
        for (const auto& per_query : *results) {
          for (const auto& [id, distance] : per_query) {
            if (id >= kInserts) {
              ++violations;
              continue;
            }
            const uint64_t lsn = insert_lsns[id].load();
            // Each of the ids served was applied on the replica, so its
            // insert LSN must lie strictly below the pinned bound.
            if (lsn == UINT64_MAX || lsn >= stats[0].replica_lsn) {
              ++violations;
            }
          }
        }
      }
    });
  }

  for (uint64_t i = 0; i < kInserts; ++i) {
    insert_lsns[i].store(tier.primary_next_lsn());
    ASSERT_TRUE(tier.Insert(ShapeFor(i), ImageFor(i), LabelFor(i)).ok());
    inserted.store(i + 1, std::memory_order_release);
    if (i % 9 == 8) {
      ASSERT_TRUE(tier.Remove(i - 8).ok());
    }
    if (i % 40 == 39) {
      ASSERT_TRUE(tier.Compact().ok());
    }
  }
  ASSERT_TRUE(tier.WaitForCatchUp(util::Deadline::AfterMillis(20000)).ok());
  done.store(true, std::memory_order_release);
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(violations.load(), 0);

  // Convergence after the dust settles.
  for (size_t i = 0; i < tier.replica_count(); ++i) {
    EXPECT_EQ(tier.follower(i).NextId(), tier.PrimaryNextId());
    EXPECT_EQ(tier.follower(i).LiveIds(), tier.PrimaryLiveIds());
  }
}

}  // namespace
}  // namespace geosir::replication
