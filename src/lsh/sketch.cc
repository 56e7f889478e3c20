#include "lsh/sketch.h"

#include <algorithm>
#include <cmath>

namespace geosir::lsh {
namespace {

constexpr double kPi = 3.14159265358979323846;

/// Vertex order with the canonical start first and canonical traversal
/// direction (counterclockwise for closed shapes, origin-near endpoint
/// first for open ones). Relabeled or reversed encodings of the same
/// geometry canonicalize identically, which is what makes the sketch a
/// function of the shape rather than of its encoding.
std::vector<geom::Point> CanonicalVertices(const geom::Polyline& shape) {
  const std::vector<geom::Point>& v = shape.vertices();
  const size_t n = v.size();
  if (n == 0) return {};
  if (!shape.closed()) {
    const double d_front = v.front().x * v.front().x + v.front().y * v.front().y;
    const double d_back = v.back().x * v.back().x + v.back().y * v.back().y;
    if (d_back < d_front) {
      return std::vector<geom::Point>(v.rbegin(), v.rend());
    }
    return v;
  }
  size_t start = 0;
  double best = v[0].x * v[0].x + v[0].y * v[0].y;
  for (size_t i = 1; i < n; ++i) {
    const double d = v[i].x * v[i].x + v[i].y * v[i].y;
    if (d < best) {
      best = d;
      start = i;
    }
  }
  const bool ccw = shape.SignedArea() >= 0.0;
  std::vector<geom::Point> out(n);
  for (size_t i = 0; i < n; ++i) {
    const size_t src = ccw ? (start + i) % n : (start + n - i) % n;
    out[i] = v[src];
  }
  return out;
}

struct ArcWalk {
  std::vector<geom::Point> vertices;  // Canonical order; closed wraps.
  std::vector<double> prefix;         // prefix[i] = length before edge i.
  double total = 0.0;
  bool closed = false;

  explicit ArcWalk(const geom::Polyline& shape)
      : vertices(CanonicalVertices(shape)), closed(shape.closed()) {
    const size_t n = vertices.size();
    const size_t edges = n < 2 ? 0 : (closed ? n : n - 1);
    prefix.reserve(edges + 1);
    prefix.push_back(0.0);
    for (size_t i = 0; i < edges; ++i) {
      const geom::Point a = vertices[i];
      const geom::Point b = vertices[(i + 1) % n];
      total += std::hypot(b.x - a.x, b.y - a.y);
      prefix.push_back(total);
    }
  }

  size_t NumEdges() const { return prefix.size() - 1; }

  /// Index of the edge containing arc position s (s in [0, total]).
  size_t EdgeAt(double s) const {
    const auto it = std::upper_bound(prefix.begin(), prefix.end(), s);
    const size_t idx = static_cast<size_t>(it - prefix.begin());
    return std::min(idx == 0 ? 0 : idx - 1, NumEdges() - 1);
  }

  geom::Point At(double s) const {
    const size_t e = EdgeAt(s);
    const geom::Point a = vertices[e];
    const geom::Point b = vertices[(e + 1) % vertices.size()];
    const double len = prefix[e + 1] - prefix[e];
    const double t = len > 0.0 ? (s - prefix[e]) / len : 0.0;
    return geom::Point{a.x + t * (b.x - a.x), a.y + t * (b.y - a.y)};
  }
};

/// Arc positions of the `count` samples: closed shapes divide the full
/// perimeter (the wrap-around edge is implicit), open ones include both
/// endpoints.
std::vector<double> SamplePositions(double total, size_t count, bool closed) {
  std::vector<double> s(count, 0.0);
  if (count == 0 || total <= 0.0) return s;
  if (closed) {
    for (size_t j = 0; j < count; ++j) {
      s[j] = total * static_cast<double>(j) / static_cast<double>(count);
    }
  } else {
    const double step = count > 1 ? total / static_cast<double>(count - 1) : 0.0;
    for (size_t j = 0; j < count; ++j) s[j] = step * static_cast<double>(j);
  }
  return s;
}

}  // namespace

const char* SketchKindName(SketchKind kind) {
  switch (kind) {
    case SketchKind::kVertexSample:
      return "vertex_sample";
    case SketchKind::kTurningFunction:
      return "turning_function";
  }
  return "unknown";
}

size_t FeaturesPerSample(SketchKind kind) {
  return kind == SketchKind::kTurningFunction ? 1 : 2;
}

std::vector<geom::Point> SampleBoundary(const geom::Polyline& normalized,
                                        size_t count) {
  ArcWalk walk(normalized);
  if (walk.vertices.empty() || count == 0) {
    return std::vector<geom::Point>(count, geom::Point{0.0, 0.0});
  }
  if (walk.NumEdges() == 0 || walk.total <= 0.0) {
    return std::vector<geom::Point>(count, walk.vertices.front());
  }
  std::vector<geom::Point> out;
  out.reserve(count);
  for (double s : SamplePositions(walk.total, count, walk.closed)) {
    out.push_back(walk.At(s));
  }
  return out;
}

std::vector<double> ComputeSketch(const geom::Polyline& normalized,
                                  SketchKind kind, size_t samples) {
  if (kind == SketchKind::kVertexSample) {
    std::vector<double> features;
    features.reserve(2 * samples);
    for (const geom::Point& p : SampleBoundary(normalized, samples)) {
      features.push_back(p.x);
      features.push_back(p.y);
    }
    return features;
  }
  // Turning function: unwrapped cumulative tangent angle, piecewise
  // constant per edge, sampled at the same arc positions.
  ArcWalk walk(normalized);
  std::vector<double> features(samples, 0.0);
  if (walk.NumEdges() == 0 || walk.total <= 0.0) return features;
  const size_t n = walk.vertices.size();
  std::vector<double> theta(walk.NumEdges(), 0.0);
  double prev = 0.0;
  for (size_t e = 0; e < walk.NumEdges(); ++e) {
    const geom::Point a = walk.vertices[e];
    const geom::Point b = walk.vertices[(e + 1) % n];
    const double angle = std::atan2(b.y - a.y, b.x - a.x);
    if (e == 0) {
      theta[e] = angle;
    } else {
      double turn = angle - prev;
      while (turn > kPi) turn -= 2.0 * kPi;
      while (turn <= -kPi) turn += 2.0 * kPi;
      theta[e] = theta[e - 1] + turn;
    }
    prev = angle;
  }
  const std::vector<double> positions =
      SamplePositions(walk.total, samples, walk.closed);
  for (size_t j = 0; j < samples; ++j) {
    features[j] = theta[walk.EdgeAt(positions[j])];
  }
  return features;
}

}  // namespace geosir::lsh
