#include "trace.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>

namespace perfbench::trace {
namespace {

std::atomic<bool> g_enabled{false};
std::atomic<uint64_t> g_next_id{1};
std::atomic<uint64_t> g_next_request{1};

/// One thread's spans. Owned by the registry so the spans outlive the
/// thread that recorded them.
struct ThreadBuffer {
  std::vector<Span> spans;
};

struct Registry {
  std::mutex mutex;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers;  // Guarded by mutex.
};

Registry& GetRegistry() {
  static Registry registry;
  return registry;
}

struct ThreadState {
  ThreadBuffer* buffer = nullptr;
  const char* pass = "";
  uint64_t request = 0;
  uint64_t open_span = 0;  // Innermost open span on this thread.
};

ThreadState& State() {
  thread_local ThreadState state;
  if (state.buffer == nullptr) {
    Registry& registry = GetRegistry();
    std::lock_guard<std::mutex> lock(registry.mutex);
    registry.buffers.push_back(std::make_unique<ThreadBuffer>());
    state.buffer = registry.buffers.back().get();
  }
  return state;
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string LayerOf(const char* name) {
  const std::string s(name);
  const size_t dot = s.find('.');
  return dot == std::string::npos ? s : s.substr(0, dot);
}

}  // namespace

void SetEnabled(bool enabled) { g_enabled.store(enabled); }
bool Enabled() { return g_enabled.load(std::memory_order_relaxed); }

ScopedSpan::ScopedSpan(const char* name) {
  if (!Enabled()) return;
  ThreadState& state = State();
  active_ = true;
  name_ = name;
  id_ = g_next_id.fetch_add(1, std::memory_order_relaxed);
  parent_ = state.open_span;
  state.open_span = id_;
  start_ns_ = NowNs();
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  const int64_t end_ns = NowNs();
  ThreadState& state = State();
  state.open_span = parent_;
  state.buffer->spans.push_back(
      Span{name_, state.pass, state.request, id_, parent_, start_ns_, end_ns});
}

RequestScope::RequestScope(const char* pass, const char* root_name) {
  if (!Enabled()) return;
  ThreadState& state = State();
  active_ = true;
  saved_pass_ = state.pass;
  saved_request_ = state.request;
  state.pass = pass;
  state.request = g_next_request.fetch_add(1, std::memory_order_relaxed);
  root_.emplace(root_name);
}

RequestScope::~RequestScope() {
  if (!active_) return;
  root_.reset();  // Recorded under this request before it is closed.
  ThreadState& state = State();
  state.pass = saved_pass_;
  state.request = saved_request_;
}

std::vector<Span> Collect() {
  Registry& registry = GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mutex);
  std::vector<Span> all;
  for (const auto& buffer : registry.buffers) {
    all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
  }
  return all;
}

std::vector<SelfTime> SelfTimes(const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, int64_t> child_ns;
  for (const Span& s : spans) {
    if (s.parent != 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  std::map<std::pair<std::string, std::string>, int64_t> self_ns;
  for (const Span& s : spans) {
    const auto it = child_ns.find(s.id);
    const int64_t children = it == child_ns.end() ? 0 : it->second;
    self_ns[{s.pass, LayerOf(s.name)}] += (s.end_ns - s.start_ns) - children;
  }
  std::vector<SelfTime> out;
  for (const auto& [key, ns] : self_ns) {
    out.push_back(SelfTime{key.first, key.second, static_cast<double>(ns) / 1e6});
  }
  return out;
}

size_t RequestCount(const std::vector<Span>& spans, const std::string& pass) {
  size_t n = 0;
  for (const Span& s : spans) {
    if (s.parent == 0 && s.request != 0 && pass == s.pass) ++n;
  }
  return n;
}

bool WriteJsonl(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"pass\":\"%s\",\"request\":%llu,"
                 "\"id\":%llu,\"parent\":%llu,\"start_ns\":%lld,"
                 "\"end_ns\":%lld}\n",
                 s.name, s.pass, static_cast<unsigned long long>(s.request),
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench::trace
