#ifndef GEOSIR_PERFBENCH_TRACE_H_
#define GEOSIR_PERFBENCH_TRACE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace perfbench::trace {

/// The traced run's span recorder. Spans are taken from the benchmark's
/// own code, around each call into a layer of the library (and inside the
/// decorators the benchmark installs at layer seams), never from inside
/// the library. They are kept in per-thread memory and written out when
/// the run ends. When disabled (the untraced runs) every span is a single
/// branch.

/// Turns recording on or off. Set before worker threads start.
void SetEnabled(bool enabled);
bool Enabled();

struct Span {
  const char* name = "";  // "<layer>.<call>", e.g. "rangesearch.report".
  const char* pass = "";  // Workload pass of the request ("envelope", ...).
  uint64_t request = 0;   // Per-request id; 0 outside any request.
  uint64_t id = 0;
  uint64_t parent = 0;    // 0 for a request's root span.
  int64_t start_ns = 0;   // steady_clock.
  int64_t end_ns = 0;
};

/// Records one span over its lifetime, as a child of the span open on
/// this thread. `name` must be a string literal.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  bool active_ = false;
  const char* name_ = "";
  uint64_t id_ = 0;
  uint64_t parent_ = 0;
  int64_t start_ns_ = 0;
};

/// Opens a request on this thread: a fresh request id, the pass label
/// every span of the request carries, and the request's root span.
class RequestScope {
 public:
  RequestScope(const char* pass, const char* root_name);
  ~RequestScope();
  RequestScope(const RequestScope&) = delete;
  RequestScope& operator=(const RequestScope&) = delete;

 private:
  bool active_ = false;
  const char* saved_pass_ = "";
  uint64_t saved_request_ = 0;
  std::optional<ScopedSpan> root_;  // Declared last: closes first.
};

/// Every span recorded so far, on all threads. Call after the threads
/// that record have been joined.
std::vector<Span> Collect();

/// Total self time (span duration minus the part its children cover) of
/// one layer within one pass, with the number of requests of that pass.
struct SelfTime {
  std::string pass;
  std::string layer;
  double total_ms = 0.0;
};
std::vector<SelfTime> SelfTimes(const std::vector<Span>& spans);
/// Requests (root spans) per pass.
size_t RequestCount(const std::vector<Span>& spans, const std::string& pass);

/// One JSON object per span. Returns false when the file cannot be written.
bool WriteJsonl(const std::string& path, const std::vector<Span>& spans);

}  // namespace perfbench::trace

#endif  // GEOSIR_PERFBENCH_TRACE_H_
