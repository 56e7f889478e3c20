#ifndef GEOSIR_LSH_SKETCH_H_
#define GEOSIR_LSH_SKETCH_H_

#include <cstddef>
#include <vector>

#include "geom/polyline.h"
#include "util/status.h"

namespace geosir::lsh {

/// Which feature family the sketch samples (DESIGN.md section 14.1).
enum class SketchKind {
  /// Interleaved (x, y) coordinates of arc-length-uniform boundary
  /// samples of the normalized copy. Two features per sample. Directly
  /// locality-sensitive under the vertex-perturbation model the envelope
  /// matcher tolerates: a jittered instance moves every sample O(noise).
  kVertexSample,
  /// Unwrapped cumulative tangent angle at the same sample positions
  /// (one feature per sample), after Arkin et al.'s turning function.
  /// Less sensitive to where mass sits, more sensitive to corner layout.
  kTurningFunction,
};

const char* SketchKindName(SketchKind kind);

/// Arc-length-uniform boundary samples of a normalized copy, taken from a
/// canonical start so that vertex relabelings and orientation flips of
/// the same geometry sketch identically:
///  - closed shapes start at the vertex nearest the origin (the
///    normalization maps the axis onto (0,0)-(1,0), so this is the axis
///    vertex up to jitter) and traverse counterclockwise;
///  - open shapes start at whichever endpoint is nearer the origin.
/// Returns `count` points on the boundary (count >= 1).
std::vector<geom::Point> SampleBoundary(const geom::Polyline& normalized,
                                        size_t count);

/// The feature vector hashed by the LSH tables: 2 * `samples` doubles for
/// kVertexSample (x, y interleaved), `samples` doubles for
/// kTurningFunction. Deterministic for identical input geometry.
std::vector<double> ComputeSketch(const geom::Polyline& normalized,
                                  SketchKind kind, size_t samples);

/// Features each sample contributes (2 or 1).
size_t FeaturesPerSample(SketchKind kind);

}  // namespace geosir::lsh

#endif  // GEOSIR_LSH_SKETCH_H_
