#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <sstream>
#include <unordered_set>

#include "workload/noise.h"
#include "workload/polygon_gen.h"

namespace perfbench {

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_[name] = Entry{value, unit};
}

void Report::Fail(const std::string& what) {
  correct_ = false;
  std::printf("CHECK FAILED: %s\n", what.c_str());
  std::fflush(stdout);
}

void Report::Note(const std::string& line) {
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

std::string Report::Json(const std::vector<std::string>& names) const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct_ ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  char value[64];
  bool first = true;
  for (const std::string& name : names) {
    const auto it = metrics_.find(name);
    if (it == metrics_.end()) continue;
    const Entry& m = it->second;
    // %.17g keeps every digit; JSON has no NaN/Inf, so those become null
    // and the run is already marked incorrect by the check that saw them.
    if (std::isfinite(m.value)) {
      std::snprintf(value, sizeof(value), "%.17g", m.value);
    } else {
      std::snprintf(value, sizeof(value), "null");
    }
    out << (first ? "" : ", ") << '"' << name << "\": {\"value\": " << value
        << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  out << "}}";
  return out.str();
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

LatencySummary Summarize(std::vector<double> samples) {
  LatencySummary s;
  s.n = samples.size();
  if (samples.empty()) return s;
  s.p50 = Median(samples);
  std::sort(samples.begin(), samples.end());
  constexpr size_t kBeyond = 10;
  if (s.n > kBeyond) {
    s.tail = samples[s.n - kBeyond - 1];
    s.tail_pct = 100.0 * static_cast<double>(s.n - kBeyond) /
                 static_cast<double>(s.n);
  } else {
    s.tail = samples.back();
  }
  return s;
}

void ReportLatency(Report* report, const std::string& prefix,
                   const std::vector<double>& samples_ms) {
  const LatencySummary s = Summarize(samples_ms);
  report->Metric(prefix + "_p50_ms", s.p50, "ms");
  report->Metric(prefix + "_tail_ms", s.tail, "ms");
  char line[160];
  std::snprintf(line, sizeof(line),
                "%s: p50 %.3f ms, tail p%.1f %.3f ms over %zu samples",
                prefix.c_str(), s.p50, s.tail_pct, s.tail, s.n);
  report->Note(line);
}

ShapeWorkload ShapeWorkload::Make(uint64_t seed, size_t num_shapes,
                                  size_t num_queries) {
  ShapeWorkload w;
  geosir::util::Rng rng(seed);
  geosir::workload::PolygonGenOptions polygon;
  polygon.min_vertices = 8;
  polygon.max_vertices = 16;
  const size_t num_protos = num_shapes / kInstances;
  w.prototypes.reserve(num_protos);
  for (size_t p = 0; p < num_protos; ++p) {
    w.prototypes.push_back(geosir::workload::RandomStarPolygon(&rng, polygon));
  }
  w.shapes.reserve(num_protos * kInstances);
  for (size_t p = 0; p < num_protos; ++p) {
    for (size_t i = 0; i < kInstances; ++i) {
      w.shapes.push_back(geosir::workload::JitterVertices(
          w.prototypes[p], kInstanceJitter, &rng));
    }
  }
  // Query cost grows with the query's vertex count, so the stream is
  // stratified by it: every block of kSizeStrata consecutive queries holds
  // one prototype of each count from 8 to 16, in random order. The mix a
  // pass sees is then the same for every seed, and only the shapes vary.
  std::vector<std::vector<size_t>> by_size(kSizeStrata);
  for (size_t p = 0; p < num_protos; ++p) {
    const size_t v = w.prototypes[p].size();
    if (v >= 8 && v < 8 + kSizeStrata) by_size[v - 8].push_back(p);
  }
  size_t blocks = num_protos;
  for (auto& group : by_size) {
    rng.Shuffle(&group);
    blocks = std::min(blocks, group.size());
  }
  blocks = std::min(blocks, (num_queries + kSizeStrata - 1) / kSizeStrata);
  std::vector<size_t> stratum(kSizeStrata);
  std::iota(stratum.begin(), stratum.end(), size_t{0});
  for (size_t b = 0; b < blocks; ++b) {
    rng.Shuffle(&stratum);
    for (size_t s : stratum) {
      w.queries.push_back(geosir::workload::JitterVertices(
          w.prototypes[by_size[s][b]], kQueryJitter, &rng));
    }
  }
  return w;
}

size_t ShapeWorkload::PassQueries(double seconds) const {
  const auto blocks =
      std::max<long>(1, std::lround(seconds / 2.0));
  return std::min(queries.size(), kSizeStrata * static_cast<size_t>(blocks));
}

geosir::geom::Polyline ShapeWorkload::FreshInstance(
    geosir::util::Rng* rng) const {
  const auto p = static_cast<size_t>(
      rng->UniformInt(0, static_cast<int64_t>(prototypes.size()) - 1));
  return geosir::workload::JitterVertices(prototypes[p], kInstanceJitter, rng);
}

geosir::core::MatchOptions TopTenOptions() {
  geosir::core::MatchOptions options;
  options.k = kTopK;
  options.measure = geosir::core::MatchMeasure::kDiscreteSymmetric;
  return options;
}

std::vector<uint64_t> RankedIds(
    const std::vector<geosir::core::MatchResult>& results) {
  std::vector<uint64_t> ids;
  ids.reserve(results.size());
  for (const auto& r : results) ids.push_back(r.shape_id);
  return ids;
}

double RecallOf(const std::vector<uint64_t>& got,
                const std::vector<uint64_t>& truth) {
  if (truth.empty()) return 1.0;
  const std::unordered_set<uint64_t> have(got.begin(), got.end());
  size_t hits = 0;
  for (uint64_t id : truth) hits += have.count(id);
  return static_cast<double>(hits) / static_cast<double>(truth.size());
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB.
}

uint64_t ProcWcharBytes() {
  std::ifstream io("/proc/self/io");
  std::string key;
  uint64_t value = 0;
  while (io >> key >> value) {
    if (key == "wchar:") return value;
  }
  return 0;
}

uint64_t CounterTotal(const geosir::obs::RegistrySnapshot& snapshot,
                      const std::string& family) {
  uint64_t total = 0;
  for (const auto& sample : snapshot.samples) {
    if (sample.name == family) total += sample.counter_value;
  }
  return total;
}

double HistogramSum(const geosir::obs::RegistrySnapshot& snapshot,
                    const std::string& family) {
  double total = 0.0;
  for (const auto& sample : snapshot.samples) {
    if (sample.name == family) total += sample.histogram.sum;
  }
  return total;
}

}  // namespace perfbench
