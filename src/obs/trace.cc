#include "obs/trace.h"

#include <cstdio>

namespace geosir::obs {

namespace {

std::string JsonEscaped(const std::string& raw) {
  std::string out;
  out.reserve(raw.size());
  for (char c : raw) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;  // Drop control chars.
    out += c;
  }
  return out;
}

std::string NumStr(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  return buf;
}

}  // namespace

void QueryTrace::Start(std::string label) {
  label_ = std::move(label);
  start_ = std::chrono::steady_clock::now();
  started_ = true;
  total_ms_ = 0.0;
  termination_.clear();
  partial_ = false;
  degraded_ = false;
  rounds_.clear();
  events_.clear();
}

double QueryTrace::ElapsedMs() const {
  if (!started_) return 0.0;
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start_)
      .count();
}

void QueryTrace::AddEvent(std::string kind, std::string detail) {
  events_.push_back(TraceEvent{ElapsedMs(), std::move(kind), std::move(detail)});
}

void QueryTrace::Finish(std::string termination, bool partial, bool degraded) {
  total_ms_ = ElapsedMs();
  termination_ = std::move(termination);
  partial_ = partial;
  degraded_ = degraded;
}

std::string QueryTrace::ToJson() const {
  std::string out = "{\"label\":\"" + JsonEscaped(label_) + "\"";
  out += ",\"total_ms\":" + NumStr(total_ms_);
  out += ",\"termination\":\"" + JsonEscaped(termination_) + "\"";
  out += ",\"partial\":";
  out += partial_ ? "true" : "false";
  out += ",\"degraded\":";
  out += degraded_ ? "true" : "false";
  out += ",\"rounds\":[";
  for (size_t i = 0; i < rounds_.size(); ++i) {
    const RoundTrace& r = rounds_[i];
    if (i > 0) out += ",";
    out += "{\"round\":" + std::to_string(r.round);
    out += ",\"epsilon\":" + NumStr(r.epsilon);
    out += ",\"elapsed_ms\":" + NumStr(r.elapsed_ms);
    out += ",\"vertices_reported\":" + std::to_string(r.vertices_reported);
    out += ",\"vertices_accepted\":" + std::to_string(r.vertices_accepted);
    out += ",\"candidates_admitted\":" + std::to_string(r.candidates_admitted);
    out += ",\"candidates_skipped\":" + std::to_string(r.candidates_skipped);
    out += ",\"candidates_abandoned\":" +
           std::to_string(r.candidates_abandoned);
    out += ",\"index_nodes_visited\":" + std::to_string(r.index_nodes_visited);
    out += ",\"subtrees_skipped\":" + std::to_string(r.subtrees_skipped);
    out += "}";
  }
  out += "],\"events\":[";
  for (size_t i = 0; i < events_.size(); ++i) {
    const TraceEvent& e = events_[i];
    if (i > 0) out += ",";
    out += "{\"at_ms\":" + NumStr(e.at_ms);
    out += ",\"kind\":\"" + JsonEscaped(e.kind) + "\"";
    out += ",\"detail\":\"" + JsonEscaped(e.detail) + "\"}";
  }
  out += "]}";
  return out;
}

TraceSpan::~TraceSpan() {
  if (trace_ == nullptr) return;
  const double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - start_)
                        .count();
  trace_->AddEvent("span", std::string(name_) + " " + NumStr(ms) + "ms");
}

}  // namespace geosir::obs
