#ifndef GEOSIR_STORAGE_BASE_IO_H_
#define GEOSIR_STORAGE_BASE_IO_H_

#include <memory>
#include <string>

#include "core/shape_base.h"
#include "util/status.h"

namespace geosir::storage {

/// Persistence of a shape base to the local filesystem. Only the
/// *original* shapes are stored: normalization is deterministic, so the
/// copies and the range-search index are rebuilt identically on load.
///
/// File format v2 (little-endian):
///   magic "GSIR" u32, version u32 = 2, shape count u64,
///   header CRC32 u32 (over the 16 bytes above),
///   per shape: u32 image, u16 label length, label bytes,
///              u8 closed flag, u32 vertex count, vertices as f64 pairs,
///              record CRC32 u32 (over the record bytes above).
/// v1 is the same without the checksums; LoadShapeBase reads both.
///
/// Crash safety: SaveShapeBase writes to `path + ".tmp"`, fsyncs it,
/// renames into place and fsyncs the directory (Env::WriteFileAtomic), so
/// a crash mid-save leaves the previous file intact, a completed save
/// survives power loss, and a torn/bit-rotted v2 file is detected on load
/// (kCorruption) instead of yielding garbage shapes. The temp file is
/// removed on every error path.

/// Serializes every shape of `base` (finalized or not) to v2 bytes.
/// Labels longer than 65535 bytes are rejected with kInvalidArgument
/// (they cannot be represented in the record header), and a base with an
/// unindexed tail or removal marks with kFailedPrecondition (a loaded
/// checkpoint would not list exactly the live shapes).
util::Result<std::vector<uint8_t>> SerializeShapeBase(
    const core::ShapeBase& base);

/// SerializeShapeBase + durable atomic write to `path`.
util::Status SaveShapeBase(const core::ShapeBase& base,
                           const std::string& path);

struct LoadOptions {
  /// Salvage mode: on a corrupt or truncated record, keep the valid
  /// prefix of the file instead of failing. Header corruption (bad
  /// magic/version) is never salvageable.
  bool salvage = false;
};

/// What LoadShapeBase actually did (optional out-param).
struct LoadReport {
  uint32_t version = 0;
  uint64_t shapes_expected = 0;
  size_t shapes_loaded = 0;
  /// True when salvage mode dropped a corrupt suffix.
  bool salvaged = false;
};

/// Reads a shape file (v1 or v2) and rebuilds a finalized base under
/// `options`. v2 record checksums are verified; a mismatch returns
/// kCorruption, or truncates to the valid prefix under
/// `load_options.salvage`.
util::Result<std::unique_ptr<core::ShapeBase>> LoadShapeBase(
    const std::string& path, core::ShapeBaseOptions options = {},
    const LoadOptions& load_options = {}, LoadReport* report = nullptr);

/// Parses shape-file bytes already in memory (the WAL checkpoint path
/// reads through an Env and hands the bytes here).
util::Result<std::unique_ptr<core::ShapeBase>> LoadShapeBaseFromBytes(
    const std::vector<uint8_t>& bytes, core::ShapeBaseOptions options = {},
    const LoadOptions& load_options = {}, LoadReport* report = nullptr);

}  // namespace geosir::storage

#endif  // GEOSIR_STORAGE_BASE_IO_H_
