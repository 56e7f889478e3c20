// geosir_perfbench: runs one named workload of the GeoSIR benchmark.
//
//   geosir_perfbench --workload static_20k|serve_4k --seed N --seconds S
//                    --trace 0|1 [--work-dir DIR]
//
// Untraced (--trace 0) it prints every end-to-end metric; traced
// (--trace 1) every per-layer metric, the per-layer self times and the
// tracing overhead. Notes go to stdout first; the last line is one JSON
// object {correct, attempted, failed, metrics}. Exits 1 when a
// correctness check failed. README.md explains each metric.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "common.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Printed by every untraced run, in this order (BENCHMARK.json lists the
/// same names).
constexpr MetricSpec kEndToEndMetrics[] = {
    {"envelope.query_p50_ms", "ms"}, {"envelope.query_tail_ms", "ms"},
    {"lsh.query_p50_ms", "ms"},      {"lsh.query_tail_ms", "ms"},
    {"lsh.recall_at_10", "ratio"},   {"exact.query_p50_ms", "ms"},
    {"exact.query_tail_ms", "ms"},   {"write_p50_ms", "ms"},
    {"write_tail_ms", "ms"},         {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},          {"ok_rate", "ratio"},
};

/// Printed by every traced run. A layer the workload bypasses reads 0.
constexpr MetricSpec kPerLayerMetrics[] = {
    {"core.normalize_us", "us"},
    {"rangesearch.query_ms", "ms"},
    {"rangesearch.calls", "count"},
    {"rangesearch.points_reported", "count"},
    {"core.ring_accept_ratio", "ratio"},
    {"core.envelope_rounds", "count"},
    {"core.envelope_candidates", "count"},
    {"core.envelope_empty_frac", "ratio"},
    {"core.read_empty_frac", "ratio"},
    {"envelope.recall_at_10", "ratio"},
    {"lsh.probe_ms", "ms"},
    {"lsh.candidates", "count"},
    {"lsh.candidate_yield", "ratio"},
    {"lsh.truth_coverage", "ratio"},
    {"core.verify_ms", "ms"},
    {"core.exact_us_per_copy", "us"},
    {"geom.kernel_edges.envelope", "count"},
    {"geom.kernel_edges.lsh", "count"},
    {"geom.kernel_edges.exact", "count"},
    {"core.eval_cache_hits.envelope", "count"},
    {"core.eval_cache_hits.lsh", "count"},
    {"core.eval_cache_hits.exact", "count"},
    {"core.eval_cache_hits.read", "count"},
    {"core.base_build_s", "s"},
    {"lsh.build_s", "s"},
    {"replication.read_lag_records_p50", "count"},
    {"replication.read_lag_records_max", "count"},
    {"replication.records_per_batch", "count"},
    {"replication.rotations", "count"},
    {"replication.resyncs", "count"},
    {"replication.read_share_max", "ratio"},
    {"replication.router_redirected", "count"},
    {"query.admission_shed", "count"},
    {"query.admission_peak_queued", "count"},
    {"query.admission_wait_ms", "ms"},
    {"core.compaction_ms", "ms"},
    {"core.compactions", "count"},
    {"storage.wchar_per_user_byte", "ratio"},
    {"storage.wal_syncs", "count"},
    {"bench.gen_late_ms", "ms"},
    {"self_ms.exact.core", "ms"},
    {"self_ms.envelope.core", "ms"},
    {"self_ms.envelope.rangesearch", "ms"},
    {"self_ms.lsh.core", "ms"},
    {"self_ms.lsh.lsh", "ms"},
    {"self_ms.read.replication", "ms"},
    {"self_ms.read.rangesearch", "ms"},
    {"self_ms.write.replication", "ms"},
    {"self_ms.write.rangesearch", "ms"},
    {"trace.spans", "count"},
    {"trace.overhead_pct", "%"},
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "%s\nusage: geosir_perfbench --workload static_20k|serve_4k "
               "--seed N --seconds S --trace 0|1 [--work-dir DIR]\n",
               why);
  std::exit(2);
}

RunArgs Parse(int argc, char** argv) {
  RunArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.workload != "static_20k" && args.workload != "serve_4k") {
    Usage("unknown workload");
  }
  if (!(args.seconds > 0.0)) Usage("--seconds must be positive");
  return args;
}

}  // namespace

void FinishTrace(const RunArgs& args, Report* report, LayerValues* layers) {
  const std::vector<trace::Span> spans = trace::Collect();
  (*layers)["trace.spans"] = static_cast<double>(spans.size());
  for (const trace::SelfTime& s : trace::SelfTimes(spans)) {
    const size_t requests = trace::RequestCount(spans, s.pass);
    const double per_request =
        requests > 0 ? s.total_ms / static_cast<double>(requests) : 0.0;
    const std::string pass = s.pass.empty() ? "background" : s.pass;
    char line[200];
    std::snprintf(line, sizeof(line),
                  "self time: pass %-10s layer %-12s %10.3f ms total, "
                  "%8.4f ms per request (%zu requests)",
                  pass.c_str(), s.layer.c_str(), s.total_ms, per_request,
                  requests);
    report->Note(line);
    (*layers)["self_ms." + pass + "." + s.layer] = per_request;
  }
  const std::string path = args.work_dir + "/spans-" + args.workload + "-" +
                           std::to_string(args.seed) + ".jsonl";
  if (trace::WriteJsonl(path, spans)) {
    report->Note("spans written to " + path);
  } else {
    report->Note("could not write spans to " + path);
  }
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const RunArgs args = Parse(argc, argv);
  std::error_code ec;
  std::filesystem::create_directories(args.work_dir, ec);

  Report report;
  LayerValues layers;
  if (args.workload == "static_20k") {
    RunStatic(args, &report, &layers);
  } else {
    RunServe(args, &report, &layers);
  }

  std::vector<std::string> names;
  if (args.trace) {
    FinishTrace(args, &report, &layers);
    for (const MetricSpec& m : kPerLayerMetrics) {
      const auto it = layers.find(m.name);
      report.Metric(m.name, it == layers.end() ? 0.0 : it->second, m.unit);
      names.push_back(m.name);
    }
  } else {
    report.Metric("peak_rss_mb", PeakRssMb(), "MiB");
    const double attempted = static_cast<double>(report.attempted);
    report.Metric("ok_rate",
                  attempted > 0
                      ? (attempted - static_cast<double>(report.failed)) / attempted
                      : 0.0,
                  "ratio");
    for (const MetricSpec& m : kEndToEndMetrics) names.push_back(m.name);
  }
  for (const std::string& name : names) {
    if (!report.Has(name)) report.Fail("metric not measured: " + name);
  }
  std::printf("%s\n", report.Json(names).c_str());
  return report.correct() ? 0 : 1;
}
