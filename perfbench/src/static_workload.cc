// static_20k: a read-only ShapeBase of 2*10^4 shapes, queried by one
// closed-loop client in three passes, one per retrieval tier, each with
// its own EnvelopeMatcher so the per-query memo never carries over:
//   envelope  EnvelopeMatcher::Match (the paper's epsilon-envelope search)
//   lsh       MatchCandidates over an LshCandidateSource
//   exact     MatchCandidates over ExactEnumerationSource (recall truth)
// At this size the envelope search is past its cliff while LSH and the
// exhaustive scan are not. Storage, replication and admission do no work.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common.h"
#include "core/candidate_source.h"
#include "core/envelope_matcher.h"
#include "core/normalize.h"
#include "core/shape_base.h"
#include "core/similarity.h"
#include "layers.h"
#include "lsh/lsh_index.h"
#include "obs/metrics.h"
#include "trace.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {
namespace {

using geosir::core::EnvelopeMatcher;
using geosir::core::MatchResult;
using geosir::core::MatchStats;
using geosir::core::ShapeBase;
using geosir::geom::Polyline;

constexpr size_t kShapes = 20000;
constexpr size_t kStreamQueries = 256;
/// Set-up is repeated and its median reported, so one slow build does
/// not decide setup_s.
constexpr int kSetupReps = 3;
/// Queries the bench-side oracle re-ranks from scratch.
constexpr size_t kOracleSample = 2;
/// The envelope and LSH passes run their queries twice over: their cost
/// varies more from query to query than the exact scan's, and with two
/// samples per query the tail lands mid-way into the largest queries'
/// stratum instead of on its edge.
constexpr size_t kRepeats = 2;
constexpr double kDistanceSlack = 1e-9;

struct TierSetup {
  std::unique_ptr<ShapeBase> base;
  std::unique_ptr<geosir::lsh::LshCandidateSource> lsh;
};

/// Builds the base (timing every AddShape) and the LSH index over it.
TierSetup Build(const ShapeWorkload& w, std::vector<double>* add_ms,
                double* base_s, double* lsh_s, Report* report) {
  TierSetup setup;
  geosir::core::ShapeBaseOptions options;
  options.normalize.max_axes = 8;
  options.backend = geosir::core::IndexBackend::kKdTree;
  options.index_factory = &TimedSimplexIndex::MakeKdTree;
  const auto start = Clock::now();
  setup.base = std::make_unique<ShapeBase>(options);
  for (const Polyline& shape : w.shapes) {
    const auto t = Clock::now();
    auto id = setup.base->AddShape(shape);
    add_ms->push_back(MsSince(t));
    ++report->attempted;
    if (!id.ok()) {
      ++report->failed;
      report->Fail("AddShape: " + id.status().ToString());
    }
  }
  if (auto s = setup.base->Finalize(); !s.ok()) {
    report->Fail("Finalize: " + s.ToString());
  }
  *base_s = MsSince(start) / 1e3;
  const auto lsh_start = Clock::now();
  auto lsh = geosir::lsh::LshCandidateSource::Build(setup.base.get(), {});
  *lsh_s = MsSince(lsh_start) / 1e3;
  if (!lsh.ok()) {
    report->Fail("LshCandidateSource::Build: " + lsh.status().ToString());
  } else {
    setup.lsh = std::move(*lsh);
  }
  return setup;
}

using TierCall = std::function<geosir::util::Result<std::vector<MatchResult>>(
    const Polyline& query, MatchStats* stats)>;

/// One tier's pass over the query stream: its own matcher (inside
/// `call`), and per sample the latency of the timed call, the stream
/// index of the query, its answer and its stats.
struct TierPass {
  TierPass(const char* pass_name, size_t queries_per_round, TierCall tier_call,
           bool spans = false)
      : name(pass_name),
        per_round(queries_per_round),
        call(std::move(tier_call)),
        traced(spans) {}

  const char* name = "";
  /// Queries per interleaving round; query r of round i is stream entry
  /// (i * per_round + r) % n, so a query never follows itself.
  size_t per_round = 1;
  TierCall call;
  /// Runs untimed after each call, with the sample's index.
  std::function<void(size_t sample)> after;
  bool traced = false;  // Spans on around this pass's calls.
  std::vector<double> ms;
  std::vector<size_t> query;
  std::vector<std::vector<MatchResult>> results;
  std::vector<MatchStats> stats;
  uint64_t kernel_edges = 0;  // Counted when the run is traced.
};

uint64_t KernelEdges() {
  return CounterTotal(geosir::obs::MetricRegistry::Default().Snapshot(),
                      "geosir_geom_kernel_batched_edges_total");
}

/// Runs the passes interleaved, round by round, so every tier samples the
/// whole window instead of one slice of it: a slow spell on the machine
/// then moves all tiers a little rather than one tier a lot.
void RunInterleaved(const std::vector<TierPass*>& passes,
                    const std::vector<Polyline>& queries, size_t n,
                    bool count_edges, Report* report) {
  for (size_t round = 0; round < n; ++round) {
    for (TierPass* p : passes) {
      for (size_t r = 0; r < p->per_round; ++r) {
        const size_t qi = (round * p->per_round + r) % n;
        const uint64_t edges_before = count_edges ? KernelEdges() : 0;
        MatchStats stats;
        geosir::util::Result<std::vector<MatchResult>> result =
            std::vector<MatchResult>{};
        trace::SetEnabled(p->traced);
        const auto t = Clock::now();
        {
          trace::RequestScope request(p->name, "bench.request");
          result = p->call(queries[qi], &stats);
        }
        p->ms.push_back(MsSince(t));
        trace::SetEnabled(false);
        if (count_edges) p->kernel_edges += KernelEdges() - edges_before;
        ++report->attempted;
        if (!result.ok()) {
          ++report->failed;
          report->Fail(std::string(p->name) +
                       " query: " + result.status().ToString());
          p->results.emplace_back();
        } else {
          p->results.push_back(std::move(*result));
        }
        p->query.push_back(qi);
        p->stats.push_back(stats);
        if (p->after) p->after(p->ms.size() - 1);
      }
    }
  }
}

/// Sorted by (distance, id), at most k entries, valid ids, finite.
void CheckWellFormed(const char* tier, const std::vector<MatchResult>& r,
                     size_t num_shapes, Report* report) {
  if (r.size() > kTopK) report->Fail(std::string(tier) + ": more than k");
  for (size_t i = 0; i < r.size(); ++i) {
    if (r[i].shape_id >= num_shapes || !std::isfinite(r[i].distance)) {
      report->Fail(std::string(tier) + ": bad id or distance");
      return;
    }
    if (i > 0 && (r[i].distance < r[i - 1].distance ||
                  (r[i].distance == r[i - 1].distance &&
                   r[i].shape_id <= r[i - 1].shape_id))) {
      report->Fail(std::string(tier) + ": ranking out of order");
      return;
    }
  }
}

/// An approximate tier may miss shapes or see fewer copies of a shape,
/// but never reports a distance below the shape's true best distance (or,
/// for a shape outside the true top-k, below the k-th true distance).
void CheckAgainstTruth(const char* tier, const std::vector<MatchResult>& got,
                       const std::vector<MatchResult>& truth, Report* report) {
  std::unordered_map<uint64_t, double> true_distance;
  for (const auto& t : truth) true_distance[t.shape_id] = t.distance;
  const double kth = truth.size() == kTopK ? truth.back().distance : 0.0;
  for (const auto& g : got) {
    const auto it = true_distance.find(g.shape_id);
    const double floor = it != true_distance.end() ? it->second : kth;
    if (g.distance < floor - kDistanceSlack) {
      report->Fail(std::string(tier) + ": distance below the exact ranking's");
      return;
    }
  }
}

/// The bench-side oracle: scores every stored copy with the public
/// similarity functions (the symmetric discrete measure is the max of the
/// two directed vertex averages), keeps each shape's best copy and ranks
/// by (distance, id).
std::vector<MatchResult> OracleTopTen(const ShapeBase& base,
                                      const Polyline& query) {
  auto qnorm = geosir::core::NormalizeQuery(query);
  if (!qnorm.ok()) return {};
  const Polyline& q = qnorm->shape;
  std::vector<double> best(base.NumShapes(),
                           std::numeric_limits<double>::infinity());
  for (const auto& copy : base.copies()) {
    const double d =
        std::max(geosir::core::DiscreteAvgMinDistance(copy.shape, q),
                 geosir::core::DiscreteAvgMinDistance(q, copy.shape));
    best[copy.shape_id] = std::min(best[copy.shape_id], d);
  }
  std::vector<MatchResult> ranked;
  for (size_t id = 0; id < best.size(); ++id) {
    ranked.push_back(MatchResult{static_cast<geosir::core::ShapeId>(id),
                                 best[id], 0});
  }
  const size_t k = std::min(kTopK, ranked.size());
  std::partial_sort(ranked.begin(), ranked.begin() + static_cast<long>(k),
                    ranked.end(), [](const MatchResult& a, const MatchResult& b) {
                      if (a.distance != b.distance) return a.distance < b.distance;
                      return a.shape_id < b.shape_id;
                    });
  ranked.resize(k);
  return ranked;
}

double Sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

double Mean(double total, size_t n) {
  return n == 0 ? 0.0 : total / static_cast<double>(n);
}

}  // namespace

void RunStatic(const RunArgs& args, Report* report, LayerValues* layers) {
  const ShapeWorkload w = ShapeWorkload::Make(args.seed, kShapes, kStreamQueries);
  // Per query, exact takes ~120 ms, envelope ~65 ms and LSH ~1.4 ms on a
  // 4-core x86 VM, so the passes take about the window (~30 s at 25 s).
  const size_t n = w.PassQueries(args.seconds);
  const geosir::core::MatchOptions options = TopTenOptions();

  // --- Set-up: base build + LSH build, repeated; the last one serves. ---
  // Write latency (AddShape) is sampled from the builds after the first,
  // which finds the allocator cold and pays its page faults.
  std::vector<double> setup_s, base_s, lsh_s, add_ms, cold_add_ms;
  TierSetup tier;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    tier = TierSetup{};  // Free the previous build before the next.
    double b = 0.0, l = 0.0;
    tier = Build(w, rep == 0 ? &cold_add_ms : &add_ms, &b, &l, report);
    base_s.push_back(b);
    lsh_s.push_back(l);
    setup_s.push_back(b + l);
  }
  if (!report->correct() || tier.lsh == nullptr) return;
  const ShapeBase& base = *tier.base;
  char line[200];
  std::snprintf(line, sizeof(line),
                "static_20k: %zu shapes, %zu copies, %zu pooled vertices",
                base.NumShapes(), base.NumCopies(), base.NumVertices());
  report->Note(line);

  // The three tier passes, interleaved. A traced run adds a second copy
  // of each pass, with spans on and fresh matchers, over the same
  // queries; the difference between the copies is the tracing overhead.
  const bool traced = args.trace;
  geosir::core::ExactEnumerationSource exhaustive(&base);
  TimedSource timed_lsh(tier.lsh.get());
  geosir::core::CandidateSource* lsh_source =
      traced ? static_cast<geosir::core::CandidateSource*>(&timed_lsh)
             : tier.lsh.get();
  // One matcher per pass, so the per-query memo never carries over.
  EnvelopeMatcher exact_matcher(&base), envelope_matcher(&base),
      lsh_matcher(&base);
  auto exact_pass = [&](EnvelopeMatcher* m) {
    return [&options, &exhaustive, m](const Polyline& q, MatchStats* st) {
      trace::ScopedSpan span("core.match_candidates");
      return m->MatchCandidates(q, &exhaustive, options, st);
    };
  };
  auto envelope_pass = [&](EnvelopeMatcher* m) {
    return [&options, m](const Polyline& q, MatchStats* st) {
      trace::ScopedSpan span("core.match");
      return m->Match(q, options, st);
    };
  };
  auto lsh_pass = [&](EnvelopeMatcher* m) {
    return [&options, lsh_source, m](const Polyline& q, MatchStats* st) {
      trace::ScopedSpan span("core.match_candidates");
      return m->MatchCandidates(q, lsh_source, options, st);
    };
  };
  TierPass exact{"exact", 1, exact_pass(&exact_matcher)};
  TierPass envelope{"envelope", kRepeats, envelope_pass(&envelope_matcher)};
  TierPass lsh{"lsh", kRepeats, lsh_pass(&lsh_matcher)};
  std::vector<TierPass*> passes = {&exact, &envelope, &lsh};

  // Traced copies. Envelope: NormalizeQuery timed on its own and index
  // calls tallied by the decorator. LSH: after the tier call, untimed,
  // the probe alone and the verifier alone over a replay of the probe's
  // candidates.
  EnvelopeMatcher exact_traced_matcher(&base), envelope_traced_matcher(&base),
      lsh_traced_matcher(&base), replay_matcher(&base);
  TierPass exact_t{"exact", 1, exact_pass(&exact_traced_matcher), true};
  TierPass envelope_t{"envelope", kRepeats,
                      envelope_pass(&envelope_traced_matcher), true};
  TierPass lsh_t{"lsh", kRepeats, lsh_pass(&lsh_traced_matcher), true};
  std::vector<double> normalize_us, index_ms, index_calls;
  std::vector<double> probe_ms, verify_ms, candidates;
  std::vector<std::vector<uint32_t>> probed;  // Per lsh_t sample.
  ReplaySource replay;
  IndexCallTally before{};
  if (traced) {
    const TierCall inner = envelope_t.call;
    envelope_t.call = [&before, inner](const Polyline& q, MatchStats* st) {
      before = ThreadIndexTally();
      return inner(q, st);
    };
    envelope_t.after = [&](size_t sample) {
      const IndexCallTally& now = ThreadIndexTally();
      index_calls.push_back(static_cast<double>(now.calls - before.calls));
      index_ms.push_back(static_cast<double>(now.ns - before.ns) / 1e6);
      const auto t = Clock::now();
      auto norm = geosir::core::NormalizeQuery(w.queries[envelope_t.query[sample]]);
      normalize_us.push_back(MsSince(t) * 1e3);
      if (!norm.ok()) report->Fail("NormalizeQuery: " + norm.status().ToString());
    };
    lsh_t.after = [&](size_t sample) {
      const Polyline& q = w.queries[lsh_t.query[sample]];
      auto norm = geosir::core::NormalizeQuery(q);
      if (!norm.ok()) return;
      std::vector<uint32_t> out;
      const auto t = Clock::now();
      auto generated = tier.lsh->Generate(norm->shape, 0, options, &out, nullptr);
      probe_ms.push_back(MsSince(t));
      if (!generated.ok()) report->Fail("lsh Generate: " + generated.ToString());
      candidates.push_back(static_cast<double>(out.size()));
      replay.Set(out);
      probed.push_back(std::move(out));
      const auto v = Clock::now();
      auto verified = replay_matcher.MatchCandidates(q, &replay, options);
      verify_ms.push_back(MsSince(v));
      if (!verified.ok()) {
        report->Fail("replay verify: " + verified.status().ToString());
      }
    };
    passes = {&exact, &exact_t, &envelope, &envelope_t, &lsh, &lsh_t};
  }
  RunInterleaved(passes, w.queries, n, traced, report);

  // The exact pass answered stream entry i as its i-th sample: the truth.
  const std::vector<std::vector<MatchResult>>& truth = exact.results;

  // --- correctness ---
  for (const TierPass* p : passes) {
    for (size_t s = 0; s < p->results.size(); ++s) {
      CheckWellFormed(p->name, p->results[s], base.NumShapes(), report);
      CheckAgainstTruth(p->name, p->results[s], truth[p->query[s]], report);
    }
  }
  geosir::util::Rng pick(args.seed ^ 0x9e3779b97f4a7c15ULL);
  for (size_t s = 0; s < kOracleSample; ++s) {
    const auto i =
        static_cast<size_t>(pick.UniformInt(0, static_cast<int64_t>(n) - 1));
    const std::vector<MatchResult> oracle = OracleTopTen(base, w.queries[i]);
    if (RankedIds(oracle) != RankedIds(truth[i])) {
      report->Fail("exact tier ranking differs from the oracle on query " +
                   std::to_string(i));
      continue;
    }
    for (size_t r = 0; r < oracle.size(); ++r) {
      if (std::fabs(oracle[r].distance - truth[i][r].distance) > kDistanceSlack) {
        report->Fail("exact tier distance differs from the oracle");
        break;
      }
    }
  }
  std::snprintf(line, sizeof(line),
                "correctness: exact == oracle on %zu sampled queries; %zu "
                "queries, every tier's answers checked against exact",
                kOracleSample, n);
  report->Note(line);

  // Recall against the exact tier's answer to the same query.
  auto recall = [&](const TierPass& p) {
    double sum = 0.0;
    for (size_t s = 0; s < p.results.size(); ++s) {
      sum += RecallOf(RankedIds(p.results[s]), RankedIds(truth[p.query[s]]));
    }
    return Mean(sum, p.results.size());
  };

  if (!traced) {
    ReportLatency(report, "envelope.query", envelope.ms);
    ReportLatency(report, "lsh.query", lsh.ms);
    report->Metric("lsh.recall_at_10", recall(lsh), "ratio");
    ReportLatency(report, "exact.query", exact.ms);
    ReportLatency(report, "write", add_ms);
    report->Note("write = ShapeBase::AddShape during set-up");
    report->Metric("setup_s", Median(setup_s), "s");
    std::snprintf(line, sizeof(line),
                  "envelope recall@10 %.3f over %zu queries (diagnostic; "
                  "per-layer metric)",
                  recall(envelope), envelope.results.size());
    report->Note(line);
    return;
  }

  auto& L = *layers;
  L["core.normalize_us"] = Median(normalize_us);
  L["rangesearch.query_ms"] = Median(index_ms);
  L["rangesearch.calls"] = Median(index_calls);
  double reported = 0, accepted = 0, rounds = 0, evaluated = 0, empty = 0;
  for (size_t s = 0; s < envelope_t.stats.size(); ++s) {
    const MatchStats& st = envelope_t.stats[s];
    reported += static_cast<double>(st.vertices_reported);
    accepted += static_cast<double>(st.vertices_accepted);
    rounds += static_cast<double>(st.iterations);
    evaluated += static_cast<double>(st.candidates_evaluated);
    empty += envelope_t.results[s].empty() ? 1.0 : 0.0;
  }
  const size_t ne = envelope_t.stats.size();
  L["rangesearch.points_reported"] = Mean(reported, ne);
  L["core.ring_accept_ratio"] = reported > 0 ? accepted / reported : 0.0;
  L["core.envelope_rounds"] = Mean(rounds, ne);
  L["core.envelope_candidates"] = Mean(evaluated, ne);
  L["core.envelope_empty_frac"] = Mean(empty, ne);
  L["envelope.recall_at_10"] = recall(envelope);
  // Candidate quality against the truth: yield = candidates that are a
  // copy of a true top-10 shape / candidates; coverage = true top-10
  // shapes with a copy among the candidates / 10.
  double yield = 0.0, coverage = 0.0;
  for (size_t s = 0; s < probed.size(); ++s) {
    std::unordered_set<uint64_t> true_ids;
    for (const auto& r : truth[lsh_t.query[s]]) true_ids.insert(r.shape_id);
    std::unordered_set<uint64_t> found;
    size_t useful = 0;
    for (uint32_t c : probed[s]) {
      const uint64_t id = base.copy(c).shape_id;
      if (true_ids.count(id) != 0) {
        ++useful;
        found.insert(id);
      }
    }
    yield += probed[s].empty() ? 0.0
                               : static_cast<double>(useful) /
                                     static_cast<double>(probed[s].size());
    coverage += true_ids.empty() ? 1.0
                                 : static_cast<double>(found.size()) /
                                       static_cast<double>(true_ids.size());
  }
  L["lsh.probe_ms"] = Median(probe_ms);
  L["lsh.candidates"] = Median(candidates);
  L["lsh.candidate_yield"] = Mean(yield, probed.size());
  L["lsh.truth_coverage"] = Mean(coverage, probed.size());
  L["core.verify_ms"] = Median(verify_ms);
  L["core.exact_us_per_copy"] =
      Median(exact.ms) * 1e3 / static_cast<double>(base.NumCopies());
  L["geom.kernel_edges.exact"] = Mean(static_cast<double>(exact.kernel_edges), exact.ms.size());
  L["geom.kernel_edges.envelope"] =
      Mean(static_cast<double>(envelope.kernel_edges), envelope.ms.size());
  L["geom.kernel_edges.lsh"] = Mean(static_cast<double>(lsh.kernel_edges), lsh.ms.size());
  auto cache_hits = [](const TierPass& p) {
    double hits = 0;
    for (const auto& st : p.stats) hits += static_cast<double>(st.eval_cache_hits);
    return Mean(hits, p.stats.size());
  };
  L["core.eval_cache_hits.envelope"] = cache_hits(envelope);
  L["core.eval_cache_hits.lsh"] = cache_hits(lsh);
  L["core.eval_cache_hits.exact"] = cache_hits(exact);
  L["core.base_build_s"] = Median(base_s);
  L["lsh.build_s"] = Median(lsh_s);
  const double untraced_ms = Sum(exact.ms) + Sum(envelope.ms) + Sum(lsh.ms);
  const double traced_ms = Sum(exact_t.ms) + Sum(envelope_t.ms) + Sum(lsh_t.ms);
  L["trace.overhead_pct"] =
      untraced_ms > 0 ? 100.0 * (traced_ms - untraced_ms) / untraced_ms : 0.0;
}

}  // namespace perfbench
