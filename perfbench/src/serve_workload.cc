// serve_4k: a ReplicatedShapeBase (durable primary + 2 in-process
// followers, pumps running) loaded with 4*10^3 shapes and caught up in
// set-up, then driven by an open loop for the measured window: one
// writer on a fixed schedule (4 Inserts of fresh instances per Remove of
// a random live id) beside two readers on their own fixed schedules
// issuing routed Match(q, k=10). Every request is timed from when it was
// due. Below the envelope cliff, read latency is the matcher, the delta
// scan, router, admission and follower locking, contended by WAL apply
// and compaction rebuilds. After the window the tier is quiesced,
// checked for convergence, and its answers are scored against the exact
// tier over a ShapeBase the benchmark builds from its own model of the
// live shapes; the LSH and exact tiers are timed there too.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <unistd.h>
#include <unordered_map>
#include <vector>

#include "common.h"
#include "core/candidate_source.h"
#include "core/envelope_matcher.h"
#include "core/normalize.h"
#include "core/shape_base.h"
#include "layers.h"
#include "lsh/lsh_index.h"
#include "obs/metrics.h"
#include "replication/replicated_shape_base.h"
#include "storage/appendable_file.h"
#include "trace.h"
#include "util/deadline.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {
namespace {

using geosir::core::MatchResult;
using geosir::core::MatchStats;
using geosir::geom::Polyline;
using geosir::replication::ReplicatedShapeBase;

constexpr size_t kShapes = 4000;
constexpr size_t kQueries = 256;
constexpr size_t kReplicas = 2;
constexpr size_t kReaders = 2;
constexpr int kSetupReps = 3;
/// Offered load, fixed in the workload definition. Writes: 3750 in the
/// 25 s window, which the library's default thresholds turn into two
/// compactions of the primary, each followed by a rebuild on both
/// followers. Reads: a quiesced routed read takes ~40-55 ms here, so two
/// closed-loop clients manage ~40/s. Each reader is one synchronous
/// thread, so near half that rate its own queue dominated the latency;
/// and every read that lands on a follower rebuild stalls. At 6/s about
/// five reads per run stall, so the tail (the 11th slowest read) stays
/// among the ordinary slow reads instead of flipping between them and
/// the stalls from run to run.
constexpr double kReadsPerSecond = 6.0;
constexpr double kWritesPerSecond = 150.0;
constexpr size_t kInsertsPerRemove = 4;
/// A run whose generator started requests later than this (p99, beyond
/// any wait for its own previous request) is marked invalid.
constexpr double kMaxGeneratorLateMs = 20.0;
/// The quiesced LSH pass runs its queries this many times over (as in
/// static_20k).
constexpr size_t kLshRepeats = 2;
constexpr double kDistanceSlack = 1e-9;
constexpr int64_t kCatchUpMs = 30000;

using Tier = std::unique_ptr<ReplicatedShapeBase>;

/// Removes the run's storage directory on every exit path.
struct DirCleanup {
  std::string dir;
  ~DirCleanup() {
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }
};

geosir::replication::ReplicatedOptions TierOptions() {
  geosir::replication::ReplicatedOptions options;
  options.env = geosir::storage::Env::Posix();
  options.base.base.normalize.max_axes = 8;
  options.base.base.backend = geosir::core::IndexBackend::kKdTree;
  options.base.base.index_factory = &TimedSimplexIndex::MakeKdTree;
  options.base.match.measure = geosir::core::MatchMeasure::kDiscreteSymmetric;
  return options;
}

/// The benchmark's own record of what the tier should hold.
struct Model {
  std::vector<Polyline> boundary;  // By stable id.
  std::vector<uint8_t> live;
  std::vector<uint64_t> live_ids;  // Unordered, for random picks.
  std::unordered_map<uint64_t, size_t> slot;

  void Insert(uint64_t id, const Polyline& shape) {
    if (id >= boundary.size()) {
      boundary.resize(id + 1);
      live.resize(id + 1, 0);
    }
    boundary[id] = shape;
    live[id] = 1;
    slot[id] = live_ids.size();
    live_ids.push_back(id);
  }
  void Remove(uint64_t id) {
    live[id] = 0;
    const size_t s = slot[id];
    slot[live_ids.back()] = s;
    live_ids[s] = live_ids.back();
    live_ids.pop_back();
    slot.erase(id);
  }
  std::vector<uint64_t> SortedLive() const {
    std::vector<uint64_t> ids = live_ids;
    std::sort(ids.begin(), ids.end());
    return ids;
  }
};

/// The primary ships only what its WAL file holds, and with the default
/// sync policy the last records can sit in the file's buffer, so a
/// durability barrier comes before waiting for the followers.
geosir::util::Status SyncAndCatchUp(ReplicatedShapeBase* tier) {
  if (auto s = tier->SyncPrimary(); !s.ok()) return s;
  return tier->WaitForCatchUp(geosir::util::Deadline::AfterMillis(kCatchUpMs));
}

/// Opens a fresh tier under `dir`, loads the shapes and waits for the
/// followers to catch up.
Tier OpenAndLoad(const std::string& dir, const ShapeWorkload& w, Model* model,
                 Report* report) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);
  std::vector<geosir::replication::ReplicaSpec> replicas(kReplicas);
  for (size_t i = 0; i < kReplicas; ++i) {
    replicas[i].dir = dir + "/replica" + std::to_string(i);
    std::filesystem::create_directories(replicas[i].dir, ec);
  }
  std::filesystem::create_directories(dir + "/primary", ec);
  auto tier = ReplicatedShapeBase::Open(dir + "/primary", std::move(replicas),
                                        TierOptions());
  if (!tier.ok()) {
    report->Fail("ReplicatedShapeBase::Open: " + tier.status().ToString());
    return nullptr;
  }
  for (const Polyline& shape : w.shapes) {
    auto id = (*tier)->Insert(shape);
    ++report->attempted;
    if (!id.ok()) {
      ++report->failed;
      report->Fail("load Insert: " + id.status().ToString());
      return nullptr;
    }
    model->Insert(*id, shape);
  }
  if (auto s = SyncAndCatchUp(tier->get()); !s.ok()) {
    report->Fail("catch-up after load: " + s.ToString());
    return nullptr;
  }
  return std::move(*tier);
}

/// One open-loop request as the generator saw it.
struct Request {
  double latency_ms = 0.0;  // From due time to completion.
  double late_ms = 0.0;     // Start minus max(due, own previous end).
  bool ok = false;
  bool empty = false;
  uint32_t replica = 0;
  uint64_t lag = 0;
  uint64_t eval_cache_hits = 0;
  uint64_t reported = 0, accepted = 0, rounds = 0, candidates = 0;
  double index_ms = 0.0;
  uint64_t index_calls = 0;
  double normalize_us = 0.0;
  bool compaction = false;  // A write during which the generation advanced.
  double service_ms = 0.0;  // Start to completion.
};

/// Sleeps until `due`, returning when it actually resumed.
Clock::time_point WaitUntil(Clock::time_point due) {
  std::this_thread::sleep_until(due);
  return Clock::now();
}

void ReaderLoop(ReplicatedShapeBase* tier, const std::vector<Polyline>& queries,
                size_t reader, Clock::time_point start, Clock::time_point end,
                std::vector<Request>* out) {
  const auto period = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(static_cast<double>(kReaders) /
                                    kReadsPerSecond));
  // Readers are offset by half a period so their arrivals interleave.
  const Clock::time_point first =
      start + period * static_cast<int64_t>(reader) /
                  static_cast<int64_t>(kReaders);
  Clock::time_point previous_end = start;
  for (size_t j = 0;; ++j) {
    const Clock::time_point due = first + period * static_cast<int64_t>(j);
    if (due >= end) break;
    const Polyline& query = queries[(reader + kReaders * j) % queries.size()];
    const Clock::time_point begin = WaitUntil(due);
    Request r;
    r.late_ms = MsBetween(std::max(due, previous_end), begin);
    const IndexCallTally before = ThreadIndexTally();
    MatchStats stats;
    bool ok = false;
    bool empty = false;
    {
      trace::RequestScope request("read", "bench.read");
      trace::ScopedSpan span("replication.match");
      auto result = tier->Match(query, kTopK, &stats);
      ok = result.ok();
      empty = ok && result->empty();
    }
    previous_end = Clock::now();
    r.latency_ms = MsBetween(due, previous_end);
    r.service_ms = MsBetween(begin, previous_end);
    r.ok = ok;
    r.empty = empty;
    r.replica = stats.replica;
    r.lag = stats.replica_lag;
    r.eval_cache_hits = stats.eval_cache_hits;
    r.reported = stats.vertices_reported;
    r.accepted = stats.vertices_accepted;
    r.rounds = stats.iterations;
    r.candidates = stats.candidates_evaluated;
    const IndexCallTally& after = ThreadIndexTally();
    r.index_calls = after.calls - before.calls;
    r.index_ms = static_cast<double>(after.ns - before.ns) / 1e6;
    if (trace::Enabled()) {
      // The query's own normalization, timed apart from the request.
      const auto t = Clock::now();
      auto norm = geosir::core::NormalizeQuery(query);
      r.normalize_us = MsSince(t) * 1e3;
    }
    out->push_back(r);
  }
}

struct WriteLog {
  std::vector<Request> requests;
  uint64_t user_bytes = 0;
  size_t inserts = 0;
  size_t removes = 0;
};

void WriterLoop(ReplicatedShapeBase* tier, const std::vector<Polyline>& inserts,
                uint64_t seed, Clock::time_point start, Clock::time_point end,
                Model* model, WriteLog* log) {
  const auto period = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / kWritesPerSecond));
  geosir::util::Rng pick(seed);
  Clock::time_point previous_end = start;
  size_t next_insert = 0;
  for (size_t j = 0;; ++j) {
    const Clock::time_point due = start + period * static_cast<int64_t>(j);
    if (due >= end) break;
    const bool remove = j % (kInsertsPerRemove + 1) == kInsertsPerRemove &&
                        !model->live_ids.empty();
    uint64_t victim = 0;
    if (remove) {
      victim = model->live_ids[static_cast<size_t>(pick.UniformInt(
          0, static_cast<int64_t>(model->live_ids.size()) - 1))];
    }
    const Polyline& shape = inserts[next_insert % inserts.size()];
    const Clock::time_point begin = WaitUntil(due);
    Request r;
    r.late_ms = MsBetween(std::max(due, previous_end), begin);
    const uint64_t generation = tier->primary_generation();
    const auto call_start = Clock::now();
    bool ok = false;
    {
      trace::RequestScope request("write", "bench.write");
      if (remove) {
        trace::ScopedSpan span("replication.remove");
        ok = tier->Remove(victim).ok();
      } else {
        trace::ScopedSpan span("replication.insert");
        auto id = tier->Insert(shape);
        ok = id.ok();
        if (ok) model->Insert(*id, shape);
      }
    }
    previous_end = Clock::now();
    r.ok = ok;
    r.latency_ms = MsBetween(due, previous_end);
    r.service_ms = MsBetween(call_start, previous_end);
    r.compaction = tier->primary_generation() != generation;
    if (remove) {
      if (ok) model->Remove(victim);
      log->user_bytes += sizeof(uint64_t);
      ++log->removes;
    } else {
      log->user_bytes += shape.size() * 2 * sizeof(double);
      ++log->inserts;
      ++next_insert;
    }
    log->requests.push_back(r);
  }
}

struct FollowerTotals {
  uint64_t records = 0, batches = 0, rotations = 0, resyncs = 0;
};
FollowerTotals SumFollowers(ReplicatedShapeBase* tier) {
  FollowerTotals t;
  for (size_t i = 0; i < tier->replica_count(); ++i) {
    const auto c = tier->follower(i).status().counters;
    t.records += c.applied_records;
    t.batches += c.apply_batches;
    t.rotations += c.rotations;
    t.resyncs += c.resyncs;
  }
  return t;
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto i = static_cast<size_t>(p * static_cast<double>(v.size() - 1));
  return v[i];
}

}  // namespace

void RunServe(const RunArgs& args, Report* report, LayerValues* layers) {
  const ShapeWorkload w = ShapeWorkload::Make(args.seed, kShapes, kQueries);
  const std::string root = args.work_dir + "/serve-" + std::to_string(getpid());

  // Inputs of the window's inserts, drawn before anything is timed.
  geosir::util::Rng insert_rng(args.seed + 1);
  std::vector<Polyline> inserts;
  const auto planned = static_cast<size_t>(args.seconds * kWritesPerSecond) + 1;
  for (size_t i = 0; i < planned; ++i) inserts.push_back(w.FreshInstance(&insert_rng));

  // --- Set-up: open, load, catch up; repeated, the last tier serves. ---
  const DirCleanup cleanup{root};  // Declared before the tier: outlives it.
  std::vector<double> setup_s;
  Tier tier;
  Model model;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    tier.reset();
    model = Model{};
    const auto start = Clock::now();
    tier = OpenAndLoad(root + "/rep" + std::to_string(rep), w, &model, report);
    setup_s.push_back(MsSince(start) / 1e3);
    if (tier == nullptr) return;
  }
  report->Note("serve_4k: storage Env::Posix under " + root +
               ", WAL sync policy kEveryN (every 4096 records, the default)");

  // --- The measured window. ---
  trace::SetEnabled(args.trace);
  const auto snapshot_before = geosir::obs::MetricRegistry::Default().Snapshot();
  const FollowerTotals followers_before = SumFollowers(tier.get());
  const uint64_t wchar_before = ProcWcharBytes();
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(args.seconds));
  std::vector<std::vector<Request>> reads(kReaders);
  WriteLog writes;
  {
    std::vector<std::thread> threads;
    threads.emplace_back(WriterLoop, tier.get(), std::cref(inserts),
                         args.seed + 2, start, end, &model, &writes);
    for (size_t r = 0; r < kReaders; ++r) {
      threads.emplace_back(ReaderLoop, tier.get(), std::cref(w.queries), r,
                           start, end, &reads[r]);
    }
    for (std::thread& t : threads) t.join();
  }
  const uint64_t wchar_window = ProcWcharBytes() - wchar_before;
  trace::SetEnabled(false);
  const auto snapshot_after = geosir::obs::MetricRegistry::Default().Snapshot();
  const FollowerTotals followers_after = SumFollowers(tier.get());

  std::vector<Request> all_reads;
  for (const auto& r : reads) all_reads.insert(all_reads.end(), r.begin(), r.end());
  std::vector<double> read_ms, write_ms, late_ms, compaction_ms, lags;
  size_t read_failures = 0, write_failures = 0, empty_reads = 0;
  std::vector<size_t> served(kReplicas, 0);
  // A failed, shed or expired request misses any latency limit: it
  // enters the latency sample as taking the whole window.
  const double missed_ms = args.seconds * 1e3;
  for (const Request& r : all_reads) {
    read_ms.push_back(r.ok ? r.latency_ms : missed_ms);
    late_ms.push_back(r.late_ms);
    if (!r.ok) {
      ++read_failures;
      continue;
    }
    empty_reads += r.empty ? 1 : 0;
    lags.push_back(static_cast<double>(r.lag));
    if (r.replica < kReplicas) ++served[r.replica];
  }
  for (const Request& r : writes.requests) {
    write_ms.push_back(r.ok ? r.latency_ms : missed_ms);
    late_ms.push_back(r.late_ms);
    write_failures += r.ok ? 0 : 1;
    if (r.compaction) compaction_ms.push_back(r.service_ms);
  }
  report->attempted += all_reads.size() + writes.requests.size();
  report->failed += read_failures + write_failures;
  char line[240];
  std::snprintf(line, sizeof(line),
                "window: %zu reads (%zu failed or shed), %zu writes (%zu inserts, "
                "%zu removes, %zu failed), %zu compactions",
                all_reads.size(), read_failures, writes.requests.size(),
                writes.inserts, writes.removes, write_failures,
                compaction_ms.size());
  report->Note(line);
  const double gen_late = Percentile(late_ms, 0.99);
  if (gen_late > kMaxGeneratorLateMs) {
    report->Fail("load generator ran late: p99 " + std::to_string(gen_late) +
                 " ms; the run is invalid");
  }

  // --- Quiesce and check convergence. ---
  if (auto s = SyncAndCatchUp(tier.get()); !s.ok()) {
    report->Fail("catch-up after the window: " + s.ToString());
    return;
  }
  const std::vector<uint64_t> primary_live = tier->PrimaryLiveIds();
  const uint64_t primary_next = tier->PrimaryNextId();
  for (size_t i = 0; i < tier->replica_count(); ++i) {
    if (tier->follower(i).LiveIds() != primary_live ||
        tier->follower(i).NextId() != primary_next) {
      report->Fail("follower " + std::to_string(i) +
                   " did not converge to the primary");
    }
  }
  if (model.SortedLive() != primary_live) {
    report->Fail("primary live ids differ from the acknowledged writes");
  }
  std::snprintf(line, sizeof(line),
                "converged: %zu live shapes, next id %llu, on the primary and "
                "%zu followers",
                primary_live.size(), static_cast<unsigned long long>(primary_next),
                tier->replica_count());
  report->Note(line);

  // --- Truth over the benchmark's model of the live set. ---
  geosir::core::ShapeBaseOptions base_options;
  base_options.normalize.max_axes = 8;
  base_options.backend = geosir::core::IndexBackend::kKdTree;
  geosir::core::ShapeBase truth_base(base_options);
  std::vector<uint64_t> stable_of;  // Truth-base shape id -> stable id.
  for (uint64_t id : primary_live) {
    if (id >= model.boundary.size() || !model.live[id]) continue;
    if (!truth_base.AddShape(model.boundary[id]).ok()) {
      report->Fail("truth base AddShape");
      return;
    }
    stable_of.push_back(id);
  }
  if (!truth_base.Finalize().ok()) {
    report->Fail("truth base Finalize");
    return;
  }
  const geosir::core::MatchOptions options = TopTenOptions();
  auto stable_ids = [&](const std::vector<MatchResult>& results) {
    std::vector<uint64_t> ids;
    for (const auto& r : results) ids.push_back(stable_of[r.shape_id]);
    return ids;
  };
  const size_t checks = w.PassQueries(args.seconds);
  const auto lsh_start = Clock::now();
  auto lsh = geosir::lsh::LshCandidateSource::Build(&truth_base, {});
  const double lsh_build_s = MsSince(lsh_start) / 1e3;
  if (!lsh.ok()) {
    report->Fail("LshCandidateSource::Build: " + lsh.status().ToString());
    return;
  }

  // Closed-loop passes over the quiesced tier, interleaved query by query
  // like static_20k's: exact (the truth), routed reads (a traced run adds
  // a traced copy, for the tracing overhead), and LSH five times over.
  geosir::core::ExactEnumerationSource exhaustive(&truth_base);
  geosir::core::EnvelopeMatcher exact_matcher(&truth_base), lsh_matcher(&truth_base);
  std::vector<std::vector<MatchResult>> truth(checks);
  std::vector<std::vector<std::pair<uint64_t, double>>> routed(checks);
  std::vector<std::pair<size_t, std::vector<uint64_t>>> lsh_answers;
  std::vector<double> exact_ms, routed_ms, routed_traced_ms, lsh_ms;
  auto timed_match = [&](const Polyline& q, bool traced,
                         std::vector<double>* ms) {
    trace::SetEnabled(traced);
    const auto t = Clock::now();
    geosir::util::Result<std::vector<std::pair<uint64_t, double>>> result =
        std::vector<std::pair<uint64_t, double>>{};
    {
      trace::RequestScope request("check", "bench.read");
      trace::ScopedSpan span("replication.match");
      result = tier->Match(q, kTopK);
    }
    ms->push_back(MsSince(t));
    trace::SetEnabled(false);
    ++report->attempted;
    if (!result.ok()) ++report->failed;
    return result;
  };
  for (size_t i = 0; i < checks; ++i) {
    const auto t = Clock::now();
    auto exact = exact_matcher.MatchCandidates(w.queries[i], &exhaustive, options);
    exact_ms.push_back(MsSince(t));
    ++report->attempted;
    if (!exact.ok()) {
      ++report->failed;
      report->Fail("exact tier: " + exact.status().ToString());
      return;
    }
    truth[i] = std::move(*exact);
    auto answer = timed_match(w.queries[i], false, &routed_ms);
    if (answer.ok()) routed[i] = std::move(*answer);
    if (args.trace) timed_match(w.queries[i], true, &routed_traced_ms);
    for (size_t r = 0; r < kLshRepeats; ++r) {
      const size_t qi = (i * kLshRepeats + r) % checks;
      const auto l = Clock::now();
      auto result = lsh_matcher.MatchCandidates(w.queries[qi], lsh->get(), options);
      lsh_ms.push_back(MsSince(l));
      ++report->attempted;
      if (!result.ok()) {
        ++report->failed;
        report->Fail("lsh tier: " + result.status().ToString());
        continue;
      }
      lsh_answers.emplace_back(qi, stable_ids(*result));
    }
  }

  // Recall against the truth; routed answers never undercut its distances.
  double serve_recall = 0.0, lsh_recall = 0.0;
  for (size_t i = 0; i < checks; ++i) {
    std::vector<uint64_t> ids;
    for (const auto& [id, d] : routed[i]) ids.push_back(id);
    serve_recall += RecallOf(ids, stable_ids(truth[i]));
    const double kth = truth[i].size() == kTopK ? truth[i].back().distance : 0.0;
    for (const auto& [id, d] : routed[i]) {
      double floor = kth;
      for (const auto& t : truth[i]) {
        if (stable_of[t.shape_id] == id) floor = t.distance;
      }
      if (d < floor - kDistanceSlack) {
        report->Fail("routed read distance below the exact ranking's");
        break;
      }
    }
  }
  serve_recall /= static_cast<double>(std::max<size_t>(1, checks));
  for (const auto& [qi, ids] : lsh_answers) {
    lsh_recall += RecallOf(ids, stable_ids(truth[qi]));
  }
  lsh_recall /= static_cast<double>(std::max<size_t>(1, lsh_answers.size()));
  std::snprintf(line, sizeof(line),
                "quiesced over %zu queries: routed recall@10 %.3f (one "
                "closed-loop client, p50 %.3f ms), lsh recall@10 %.3f",
                checks, serve_recall, Median(routed_ms), lsh_recall);
  report->Note(line);

  if (!args.trace) {
    ReportLatency(report, "envelope.query", read_ms);
    report->Note("envelope.query = routed ReplicatedShapeBase::Match in the window, "
                 "from due time");
    ReportLatency(report, "lsh.query", lsh_ms);
    report->Metric("lsh.recall_at_10", lsh_recall, "ratio");
    ReportLatency(report, "exact.query", exact_ms);
    ReportLatency(report, "write", write_ms);
    report->Metric("setup_s", Median(setup_s), "s");
  } else {
    auto& L = *layers;
    std::vector<double> index_ms, index_calls, normalize_us, cache_hits;
    double reported = 0, accepted = 0, rounds = 0, candidates = 0;
    for (const Request& r : all_reads) {
      if (!r.ok) continue;
      reported += static_cast<double>(r.reported);
      accepted += static_cast<double>(r.accepted);
      rounds += static_cast<double>(r.rounds);
      candidates += static_cast<double>(r.candidates);
      index_ms.push_back(r.index_ms);
      index_calls.push_back(static_cast<double>(r.index_calls));
      normalize_us.push_back(r.normalize_us);
      cache_hits.push_back(static_cast<double>(r.eval_cache_hits));
    }
    const double answered = static_cast<double>(all_reads.size() - read_failures);
    if (answered > 0) {
      // MatchStats of a routed read describe its main-base envelope search.
      L["rangesearch.points_reported"] = reported / answered;
      L["core.ring_accept_ratio"] = reported > 0 ? accepted / reported : 0.0;
      L["core.envelope_rounds"] = rounds / answered;
      L["core.envelope_candidates"] = candidates / answered;
    }
    L["core.normalize_us"] = Median(normalize_us);
    L["rangesearch.query_ms"] = Median(index_ms);
    L["rangesearch.calls"] = Median(index_calls);
    L["core.read_empty_frac"] =
        all_reads.size() > read_failures
            ? static_cast<double>(empty_reads) /
                  static_cast<double>(all_reads.size() - read_failures)
            : 0.0;
    L["envelope.recall_at_10"] = serve_recall;
    L["core.eval_cache_hits.read"] =
        cache_hits.empty() ? 0.0
                           : std::accumulate(cache_hits.begin(), cache_hits.end(), 0.0) /
                                 static_cast<double>(cache_hits.size());
    L["lsh.build_s"] = lsh_build_s;
    L["replication.read_lag_records_p50"] = Median(lags);
    L["replication.read_lag_records_max"] =
        lags.empty() ? 0.0 : *std::max_element(lags.begin(), lags.end());
    const uint64_t batches = followers_after.batches - followers_before.batches;
    L["replication.records_per_batch"] =
        batches > 0 ? static_cast<double>(followers_after.records -
                                          followers_before.records) /
                          static_cast<double>(batches)
                    : 0.0;
    L["replication.rotations"] =
        static_cast<double>(followers_after.rotations - followers_before.rotations);
    L["replication.resyncs"] =
        static_cast<double>(followers_after.resyncs - followers_before.resyncs);
    const size_t ok_reads = all_reads.size() - read_failures;
    L["replication.read_share_max"] =
        ok_reads > 0 ? static_cast<double>(*std::max_element(served.begin(),
                                                             served.end())) /
                           static_cast<double>(ok_reads)
                     : 0.0;
    L["replication.router_redirected"] = static_cast<double>(
        CounterTotal(snapshot_after, "geosir_router_redirected_total") -
        CounterTotal(snapshot_before, "geosir_router_redirected_total"));
    double shed = 0.0, peak = 0.0;
    for (size_t i = 0; i < tier->replica_count(); ++i) {
      const auto s = tier->follower(i).admission().stats();
      shed += static_cast<double>(s.shed_queue_full + s.shed_timeout + s.shed_expired);
      peak = std::max(peak, static_cast<double>(s.peak_queued));
    }
    L["query.admission_shed"] = shed;
    L["query.admission_peak_queued"] = peak;
    const uint64_t admitted =
        CounterTotal(snapshot_after, "geosir_admission_admitted_total") -
        CounterTotal(snapshot_before, "geosir_admission_admitted_total");
    L["query.admission_wait_ms"] =
        admitted > 0 ? 1e3 *
                           (HistogramSum(snapshot_after, "geosir_admission_wait_seconds") -
                            HistogramSum(snapshot_before, "geosir_admission_wait_seconds")) /
                           static_cast<double>(admitted)
                     : 0.0;
    L["core.compaction_ms"] = Median(compaction_ms);
    L["core.compactions"] = static_cast<double>(compaction_ms.size());
    L["storage.wchar_per_user_byte"] =
        writes.user_bytes > 0 ? static_cast<double>(wchar_window) /
                                    static_cast<double>(writes.user_bytes)
                              : 0.0;
    L["storage.wal_syncs"] = static_cast<double>(
        CounterTotal(snapshot_after, "geosir_wal_syncs_total") -
        CounterTotal(snapshot_before, "geosir_wal_syncs_total"));
    L["bench.gen_late_ms"] = gen_late;
    const double untraced = std::accumulate(routed_ms.begin(), routed_ms.end(), 0.0);
    const double traced =
        std::accumulate(routed_traced_ms.begin(), routed_traced_ms.end(), 0.0);
    L["trace.overhead_pct"] = untraced > 0 ? 100.0 * (traced - untraced) / untraced : 0.0;
  }
}

}  // namespace perfbench
