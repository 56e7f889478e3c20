#ifndef GEOSIR_PERFBENCH_WORKLOADS_H_
#define GEOSIR_PERFBENCH_WORKLOADS_H_

#include <map>
#include <string>

#include "common.h"

namespace perfbench {

/// Per-layer figures of a traced run, keyed by the names in
/// kPerLayerMetrics (main.cc). A workload fills what its layers did; the
/// rest print as 0, the count of a layer the workload bypasses.
using LayerValues = std::map<std::string, double>;

/// static_20k: three closed-loop tier passes over a read-only ShapeBase
/// of 2*10^4 shapes. See README.md.
void RunStatic(const RunArgs& args, Report* report, LayerValues* layers);

/// serve_4k: an open-loop read/write mix against a ReplicatedShapeBase
/// with two in-process followers. See README.md.
void RunServe(const RunArgs& args, Report* report, LayerValues* layers);

/// Reports the trace's per-layer self times and writes the spans to
/// `<work_dir>/spans-<workload>-<seed>.jsonl`.
void FinishTrace(const RunArgs& args, Report* report, LayerValues* layers);

}  // namespace perfbench

#endif  // GEOSIR_PERFBENCH_WORKLOADS_H_
