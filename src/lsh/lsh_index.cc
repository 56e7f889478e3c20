#include "lsh/lsh_index.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <mutex>

#include "core/shape_base.h"
#include "obs/metrics.h"

namespace geosir::lsh {
namespace {

/// SplitMix64 stream: the seed-deterministic source of the per-table
/// quantization offsets and the bucket-key mixer.
uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Mixes one 64-bit word into a running bucket-key hash.
uint64_t MixKey(uint64_t h, uint64_t word) {
  h ^= word + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  uint64_t s = h;
  return SplitMix64(&s);
}

/// Uniform double in (0, 1] from the SplitMix64 stream (never 0, so the
/// Box-Muller log below is always finite).
double NextUnit(uint64_t* state) {
  return (static_cast<double>(SplitMix64(state) >> 11) + 1.0) * 0x1.0p-53;
}

/// Standard normal via Box-Muller on the deterministic stream.
double NextGaussian(uint64_t* state) {
  const double u = NextUnit(state);
  const double v = NextUnit(state);
  return std::sqrt(-2.0 * std::log(u)) *
         std::cos(2.0 * 3.14159265358979323846 * v);
}

/// Process-wide LSH metric families (DESIGN.md section 14.4), resolved
/// once; per-query cost is a few relaxed adds at probe exit.
struct LshMetrics {
  obs::Counter* queries;
  obs::Counter* tables_probed;
  obs::Counter* buckets_probed;
  obs::Counter* candidates;
  obs::Counter* truncated;
  obs::Counter* inserts;
  obs::Counter* removes;
  obs::Gauge* sketches;
  obs::Histogram* probe_latency;

  static const LshMetrics& Get() {
    static const LshMetrics* metrics = [] {
      obs::MetricRegistry& r = obs::MetricRegistry::Default();
      auto* m = new LshMetrics();
      m->queries = r.GetCounter("geosir_lsh_queries_total",
                                "LSH candidate-generation probes");
      m->tables_probed = r.GetCounter("geosir_lsh_tables_probed_total",
                                      "Hash tables consulted across probes");
      m->buckets_probed =
          r.GetCounter("geosir_lsh_buckets_probed_total",
                       "Non-empty buckets read across probes");
      m->candidates = r.GetCounter("geosir_lsh_candidates_total",
                                   "Candidate ids emitted to verifiers");
      m->truncated =
          r.GetCounter("geosir_lsh_truncated_total",
                       "Probes whose ranked list hit max_candidates");
      m->inserts = r.GetCounter("geosir_lsh_inserts_total",
                                "Sketches inserted into the tables");
      m->removes = r.GetCounter("geosir_lsh_removes_total",
                                "Ids erased from the tables");
      m->sketches =
          r.GetGauge("geosir_lsh_sketches", "Sketches currently indexed");
      m->probe_latency = r.GetHistogram(
          "geosir_lsh_probe_seconds", "LSH candidate-generation latency",
          obs::MicroLatencyBucketsSeconds());
      return m;
    }();
    return *metrics;
  }
};

}  // namespace

LshIndex::LshIndex(LshOptions options) : options_(options) {
  samples_ = static_cast<size_t>(options_.bands) *
             static_cast<size_t>(options_.rows);
  features_ = samples_ * FeaturesPerSample(options_.kind);
  // One offset stream for the whole index: offsets depend only on
  // (seed, tables, features), never on insertion order.
  uint64_t state = options_.seed;
  offsets_.resize(static_cast<size_t>(options_.tables) * features_);
  for (double& off : offsets_) {
    const double unit =
        static_cast<double>(SplitMix64(&state) >> 11) * 0x1.0p-53;
    off = unit * options_.quantum;
  }
  buckets_.resize(static_cast<size_t>(options_.tables) *
                  static_cast<size_t>(options_.bands));
  // One Gaussian direction per hash row, drawn after the offsets from the
  // same stream.
  const size_t hash_rows = static_cast<size_t>(options_.tables) *
                           static_cast<size_t>(options_.bands) *
                           static_cast<size_t>(options_.rows);
  projections_.resize(hash_rows * features_);
  for (double& a : projections_) a = NextGaussian(&state);
}

util::Result<std::unique_ptr<LshIndex>> LshIndex::Create(LshOptions options) {
  if (options.tables < 1 || options.tables > 64) {
    return util::Status::InvalidArgument("LshOptions.tables must be in [1, 64]");
  }
  if (options.bands < 1 || options.bands > 64) {
    return util::Status::InvalidArgument("LshOptions.bands must be in [1, 64]");
  }
  if (options.rows < 1 || options.rows > 64) {
    return util::Status::InvalidArgument("LshOptions.rows must be in [1, 64]");
  }
  if (!(options.quantum > 0.0) || !std::isfinite(options.quantum)) {
    return util::Status::InvalidArgument(
        "LshOptions.quantum must be positive and finite");
  }
  return std::unique_ptr<LshIndex>(new LshIndex(options));
}

util::Result<std::unique_ptr<LshIndex>> LshIndex::BuildFromBase(
    const core::ShapeBase& base, LshOptions options) {
  if (!base.finalized()) {
    return util::Status::FailedPrecondition(
        "LshIndex::BuildFromBase requires a finalized base");
  }
  GEOSIR_ASSIGN_OR_RETURN(std::unique_ptr<LshIndex> index,
                          Create(options));
  for (size_t idx = 0; idx < base.NumCopies(); ++idx) {
    index->Insert(static_cast<uint64_t>(idx), base.copy(idx).shape);
  }
  return index;
}

std::vector<uint64_t> LshIndex::BucketKeys(
    const geom::Polyline& normalized) const {
  const std::vector<double> sketch =
      ComputeSketch(normalized, options_.kind, samples_);
  const size_t rows = static_cast<size_t>(options_.rows);
  std::vector<uint64_t> keys;
  keys.reserve(buckets_.size());
  for (int t = 0; t < options_.tables; ++t) {
    const double* off = &offsets_[static_cast<size_t>(t) * features_];
    for (int b = 0; b < options_.bands; ++b) {
      uint64_t h = MixKey(options_.seed,
                          (static_cast<uint64_t>(t) << 32) |
                              static_cast<uint64_t>(b));
      // p-stable rows: floor((a . sketch + offset) / w), one Gaussian
      // direction per (table, band, row) over the full sketch.
      const size_t row0 = (static_cast<size_t>(t) *
                               static_cast<size_t>(options_.bands) +
                           static_cast<size_t>(b)) *
                          rows;
      for (size_t r = 0; r < rows; ++r) {
        const double* a = &projections_[(row0 + r) * features_];
        double dot = 0.0;
        for (size_t f = 0; f < features_; ++f) dot += a[f] * sketch[f];
        const double cell = std::floor(
            (dot + off[static_cast<size_t>(b) * rows + r]) / options_.quantum);
        h = MixKey(h, static_cast<uint64_t>(static_cast<int64_t>(cell)));
      }
      keys.push_back(h);
    }
  }
  return keys;
}

size_t LshIndex::NumSketches() const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  return num_sketches_;
}

void LshIndex::Insert(uint64_t id, const geom::Polyline& normalized) {
  const std::vector<uint64_t> keys = BucketKeys(normalized);
  {
    std::unique_lock<std::shared_mutex> lock(mutex_);
    for (size_t slot = 0; slot < keys.size(); ++slot) {
      buckets_[slot][keys[slot]].push_back(id);
    }
    if (options_.track_keys) {
      std::vector<std::pair<uint32_t, uint64_t>>& recorded = keys_of_[id];
      recorded.reserve(recorded.size() + keys.size());
      for (size_t slot = 0; slot < keys.size(); ++slot) {
        recorded.emplace_back(static_cast<uint32_t>(slot), keys[slot]);
      }
    }
    max_id_ = std::max(max_id_, id);
    ++num_sketches_;
  }
  const LshMetrics& metrics = LshMetrics::Get();
  metrics.inserts->Inc();
  metrics.sketches->Add(1);
}

void LshIndex::InsertCopies(uint64_t id,
                            const std::vector<core::NormalizedCopy>& copies) {
  for (const core::NormalizedCopy& copy : copies) {
    Insert(id, copy.shape);
  }
}

util::Status LshIndex::Remove(uint64_t id) {
  if (!options_.track_keys) {
    return util::Status::FailedPrecondition(
        "LshIndex::Remove requires LshOptions.track_keys");
  }
  size_t erased_sketches = 0;
  {
    std::unique_lock<std::shared_mutex> lock(mutex_);
    auto it = keys_of_.find(id);
    if (it == keys_of_.end()) {
      return util::Status::NotFound("id not in LSH index");
    }
    erased_sketches = it->second.size() / buckets_.size();
    for (const auto& [slot, key] : it->second) {
      auto bucket_it = buckets_[slot].find(key);
      if (bucket_it == buckets_[slot].end()) continue;
      std::vector<uint64_t>& ids = bucket_it->second;
      // One erase per recorded (slot, key) pair: an id inserted with
      // several copies holds one pair per copy, so multiplicity survives
      // exactly.
      auto pos = std::find(ids.begin(), ids.end(), id);
      if (pos != ids.end()) ids.erase(pos);
      if (ids.empty()) buckets_[slot].erase(bucket_it);
    }
    keys_of_.erase(it);
    num_sketches_ -= std::min(num_sketches_, erased_sketches);
  }
  const LshMetrics& metrics = LshMetrics::Get();
  metrics.removes->Inc();
  metrics.sketches->Add(-static_cast<int64_t>(erased_sketches));
  return util::Status::OK();
}

util::Status LshIndex::Query(const geom::Polyline& normalized_query,
                             size_t max_candidates,
                             const util::QueryControl& control,
                             std::vector<uint64_t>* out,
                             QueryStats* stats) const {
  const auto probe_start = std::chrono::steady_clock::now();
  out->clear();
  QueryStats local;

  const std::vector<uint64_t> keys = BucketKeys(normalized_query);

  // Collision counting. Ids are dense in every supported deployment
  // (copy indices of a finalized base, shape ids of the dynamic tier),
  // so the common path counts in a flat thread-local array reset via a
  // touched-list — ~10x cheaper per collision than a hash map. Sparse
  // id spaces (external callers inserting arbitrary 64-bit ids) fall
  // back to the map. Both paths feed the same total order, so results
  // are bit-identical either way.
  std::unordered_map<uint64_t, uint32_t> sparse;
  static thread_local std::vector<uint32_t> dense;
  std::vector<uint64_t> touched;
  util::Status stop;
  {
    std::shared_lock<std::shared_mutex> lock(mutex_);
    const bool use_dense = max_id_ < 4 * num_sketches_ + 4096;
    if (use_dense) {
      if (dense.size() <= max_id_) dense.resize(max_id_ + 1, 0);
      touched.reserve(256);
    }
    for (int t = 0; t < options_.tables; ++t) {
      stop = control.Check();
      if (!stop.ok()) break;
      for (int b = 0; b < options_.bands; ++b) {
        const size_t slot = static_cast<size_t>(t) *
                                static_cast<size_t>(options_.bands) +
                            static_cast<size_t>(b);
        auto it = buckets_[slot].find(keys[slot]);
        if (it == buckets_[slot].end()) continue;
        ++local.buckets_probed;
        if (use_dense) {
          for (uint64_t id : it->second) {
            if (dense[id]++ == 0) touched.push_back(id);
          }
        } else {
          for (uint64_t id : it->second) ++sparse[id];
        }
      }
      ++local.tables_probed;
    }
  }
  // Rank by collision multiplicity (descending), ties by ascending id:
  // a deterministic preference order regardless of hash-map iteration.
  std::vector<std::pair<uint32_t, uint64_t>> ranked;
  ranked.reserve(touched.size() + sparse.size());
  for (uint64_t id : touched) {
    ranked.emplace_back(dense[id], id);
    dense[id] = 0;  // Reset the scratch for the next query on this thread.
  }
  for (const auto& [id, count] : sparse) ranked.emplace_back(count, id);
  std::sort(ranked.begin(), ranked.end(),
            [](const auto& a, const auto& b) {
              if (a.first != b.first) return a.first > b.first;
              return a.second < b.second;
            });
  local.truncated =
      max_candidates != 0 && ranked.size() > max_candidates && stop.ok();
  const size_t limit = max_candidates == 0
                           ? ranked.size()
                           : std::min(ranked.size(), max_candidates);
  out->reserve(limit);
  for (size_t i = 0; i < limit; ++i) out->push_back(ranked[i].second);
  local.candidates = out->size();

  const LshMetrics& metrics = LshMetrics::Get();
  metrics.queries->Inc();
  metrics.tables_probed->Inc(local.tables_probed);
  metrics.buckets_probed->Inc(local.buckets_probed);
  metrics.candidates->Inc(local.candidates);
  if (local.truncated) metrics.truncated->Inc();
  metrics.probe_latency->Observe(
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    probe_start)
          .count());
  if (stats != nullptr) *stats = local;
  return stop;
}

util::Result<std::unique_ptr<LshCandidateSource>> LshCandidateSource::Build(
    const core::ShapeBase* base, LshOptions options) {
  if (base == nullptr) {
    return util::Status::InvalidArgument(
        "LshCandidateSource::Build requires a base");
  }
  GEOSIR_ASSIGN_OR_RETURN(std::unique_ptr<LshIndex> index,
                          LshIndex::BuildFromBase(*base, options));
  return std::unique_ptr<LshCandidateSource>(
      new LshCandidateSource(std::move(index)));
}

util::Status LshCandidateSource::Generate(
    const geom::Polyline& normalized_query, size_t max_candidates,
    const core::MatchOptions& options, std::vector<uint32_t>* out,
    core::CandidateSourceStats* stats) {
  out->clear();
  if (stats != nullptr) *stats = core::CandidateSourceStats{};
  util::QueryControl control{options.deadline, options.cancel_token};
  std::vector<uint64_t> ids;
  LshIndex::QueryStats probe;
  util::Status st =
      index_->Query(normalized_query, max_candidates, control, &ids, &probe);
  out->reserve(ids.size());
  for (uint64_t id : ids) out->push_back(static_cast<uint32_t>(id));
  if (stats != nullptr) {
    stats->tables_probed = probe.tables_probed;
    stats->buckets_probed = probe.buckets_probed;
    stats->candidates_emitted = out->size();
    stats->truncated = probe.truncated;
    stats->termination = st;
  }
  return st;
}

}  // namespace geosir::lsh
