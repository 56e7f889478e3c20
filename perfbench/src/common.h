#ifndef GEOSIR_PERFBENCH_COMMON_H_
#define GEOSIR_PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/match_types.h"
#include "geom/polyline.h"
#include "obs/metrics.h"
#include "util/rng.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double MsSince(Clock::time_point a) { return MsBetween(a, Clock::now()); }

/// Command-line arguments of one run.
struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory inside the checkout (storage files, span dumps).
  std::string work_dir = ".bench_build/work";
};

/// The result line of one run plus the human-readable lines before it.
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  /// A failed correctness check: printed at once, and the run reports
  /// correct=false and exits non-zero.
  void Fail(const std::string& what);
  /// Free-form line on stdout (never the last one).
  void Note(const std::string& line);

  bool correct() const { return correct_; }
  bool Has(const std::string& name) const { return metrics_.count(name) != 0; }
  uint64_t attempted = 0;
  uint64_t failed = 0;

  /// The single JSON line the benchmark ends with, holding the named
  /// metrics in the given order.
  std::string Json(const std::vector<std::string>& names) const;

 private:
  struct Entry {
    double value;
    std::string unit;
  };
  std::map<std::string, Entry> metrics_;
  bool correct_ = true;
};

/// Median and tail of a latency sample. The tail is the highest
/// percentile with at least 10 samples beyond it (the maximum when there
/// are fewer than 11 samples); `tail_pct` says which percentile that was.
struct LatencySummary {
  double p50 = 0.0;
  double tail = 0.0;
  double tail_pct = 100.0;
  size_t n = 0;
};
LatencySummary Summarize(std::vector<double> samples);
double Median(std::vector<double> values);

/// Adds `<prefix>_p50_ms` and `<prefix>_tail_ms` and notes the tail's
/// percentile and sample count.
void ReportLatency(Report* report, const std::string& prefix,
                   const std::vector<double>& samples_ms);

/// The shared input family (the `bench_lsh_retrieval` workload): random
/// star prototypes with 8-16 vertices, `kInstances` instances each with
/// 1% vertex jitter; queries are 1.2%-jittered instances of distinct
/// prototypes. Everything is a function of the seed.
struct ShapeWorkload {
  static constexpr size_t kInstances = 10;
  static constexpr double kInstanceJitter = 0.01;
  static constexpr double kQueryJitter = 0.012;
  /// Query vertex counts 8..16, one of each per block of the stream.
  static constexpr size_t kSizeStrata = 9;

  std::vector<geosir::geom::Polyline> prototypes;
  /// prototypes.size() * kInstances stored shapes, prototype-major.
  std::vector<geosir::geom::Polyline> shapes;
  /// Distinct queries of distinct prototypes, stratified by vertex count
  /// (see Make); the size is `num_queries` rounded up to whole blocks,
  /// capped by the prototypes available.
  std::vector<geosir::geom::Polyline> queries;

  static ShapeWorkload Make(uint64_t seed, size_t num_shapes,
                            size_t num_queries);
  /// Queries a closed-loop tier pass runs in a window of `seconds`: whole
  /// blocks of the stream, about one query per two seconds.
  size_t PassQueries(double seconds) const;
  /// A fresh instance of a random prototype (the serving writer's inserts).
  geosir::geom::Polyline FreshInstance(geosir::util::Rng* rng) const;
};

/// k = 10, kDiscreteSymmetric, every other MatchOptions field at its
/// library default.
geosir::core::MatchOptions TopTenOptions();
constexpr size_t kTopK = 10;

/// Shape ids of a ranking, in order.
std::vector<uint64_t> RankedIds(
    const std::vector<geosir::core::MatchResult>& results);
/// |got ∩ truth| / |truth| over shape ids (1 when truth is empty).
double RecallOf(const std::vector<uint64_t>& got,
                const std::vector<uint64_t>& truth);

/// Peak resident set size of this process so far, in MiB (getrusage).
double PeakRssMb();
/// Bytes this process has passed to write-like syscalls
/// (/proc/self/io wchar); 0 where the file is unavailable.
uint64_t ProcWcharBytes();

/// Sum of every series of a counter family in a registry snapshot (0 when
/// absent), and the summed sample sum of a histogram family.
uint64_t CounterTotal(const geosir::obs::RegistrySnapshot& snapshot,
                      const std::string& family);
double HistogramSum(const geosir::obs::RegistrySnapshot& snapshot,
                    const std::string& family);

}  // namespace perfbench

#endif  // GEOSIR_PERFBENCH_COMMON_H_
