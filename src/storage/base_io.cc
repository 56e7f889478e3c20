#include "storage/base_io.h"

#include <cstdint>
#include <cstring>
#include <vector>

#include "obs/metrics.h"
#include "storage/appendable_file.h"
#include "util/crc32.h"

namespace geosir::storage {

namespace {

constexpr uint32_t kMagic = 0x52495347;  // "GSIR".
constexpr uint32_t kVersionV1 = 1;
constexpr uint32_t kVersionV2 = 2;
constexpr uint16_t kMaxLabelLen = 0xFFFF;
constexpr size_t kVertexBytes = 2 * sizeof(double);

/// Serializer into a growable byte buffer with a running CRC32 per
/// record. Buffer-based (rather than stdio) so the same bytes can go to a
/// durable atomic file write or into a WAL checkpoint payload.
class BufferWriter {
 public:
  explicit BufferWriter(std::vector<uint8_t>* out) : out_(out) {}
  template <typename T>
  void Write(T value) {
    WriteBytes(&value, sizeof(T));
  }
  void WriteBytes(const void* data, size_t size) {
    crc_ = util::Crc32(data, size, crc_);
    const uint8_t* bytes = static_cast<const uint8_t*>(data);
    out_->insert(out_->end(), bytes, bytes + size);
  }
  /// Writes the running checksum itself (resets it for the next record).
  void WriteCrc() {
    const uint32_t crc = crc_;
    crc_ = 0;
    const uint8_t* bytes = reinterpret_cast<const uint8_t*>(&crc);
    out_->insert(out_->end(), bytes, bytes + sizeof(crc));
  }

 private:
  std::vector<uint8_t>* out_;
  uint32_t crc_ = 0;
};

/// Cursor over an in-memory shape file with the same CRC discipline.
class BufferReader {
 public:
  explicit BufferReader(const std::vector<uint8_t>& bytes) : bytes_(bytes) {}
  template <typename T>
  bool Read(T* value) {
    return ReadBytes(value, sizeof(T));
  }
  bool ReadBytes(void* data, size_t size) {
    if (size > bytes_.size() - pos_) return false;
    std::memcpy(data, bytes_.data() + pos_, size);
    crc_ = util::Crc32(data, size, crc_);
    pos_ += size;
    return true;
  }
  /// Reads a stored CRC32 and checks it against the running checksum of
  /// everything read since the last check (the CRC field itself is not
  /// part of its own coverage). Resets the running checksum.
  bool ReadAndCheckCrc() {
    const uint32_t expected = crc_;
    uint32_t stored = 0;
    if (sizeof(stored) > bytes_.size() - pos_) return false;
    std::memcpy(&stored, bytes_.data() + pos_, sizeof(stored));
    pos_ += sizeof(stored);
    crc_ = 0;
    return stored == expected;
  }
  void ResetCrc() { crc_ = 0; }
  size_t remaining() const { return bytes_.size() - pos_; }

 private:
  const std::vector<uint8_t>& bytes_;
  size_t pos_ = 0;
  uint32_t crc_ = 0;
};

}  // namespace

util::Result<std::vector<uint8_t>> SerializeShapeBase(
    const core::ShapeBase& base) {
  // A checkpoint lists exactly its stable ids: one per stored shape.
  if ((base.finalized() && base.NumShapes() > base.NumIndexedShapes()) ||
      base.NumRemoved() > 0) {
    return util::Status::FailedPrecondition(
        "cannot serialize a base with an unindexed tail or removal marks");
  }
  for (const core::Shape& shape : base.shapes()) {
    if (shape.label.size() > kMaxLabelLen) {
      return util::Status::InvalidArgument(
          "shape label exceeds 65535 bytes and cannot be stored");
    }
  }
  std::vector<uint8_t> out;
  BufferWriter writer(&out);
  writer.Write<uint32_t>(kMagic);
  writer.Write<uint32_t>(kVersionV2);
  writer.Write<uint64_t>(base.NumShapes());
  writer.WriteCrc();
  for (const core::Shape& shape : base.shapes()) {
    writer.Write<uint32_t>(shape.image);
    writer.Write<uint16_t>(static_cast<uint16_t>(shape.label.size()));
    writer.WriteBytes(shape.label.data(), shape.label.size());
    writer.Write<uint8_t>(shape.boundary.closed() ? 1 : 0);
    writer.Write<uint32_t>(static_cast<uint32_t>(shape.boundary.size()));
    for (size_t v = 0; v < shape.boundary.size(); ++v) {
      const geom::Point p = shape.boundary.vertex(v);
      writer.Write<double>(p.x);
      writer.Write<double>(p.y);
    }
    writer.WriteCrc();
  }
  return out;
}

util::Status SaveShapeBase(const core::ShapeBase& base,
                           const std::string& path) {
  GEOSIR_ASSIGN_OR_RETURN(std::vector<uint8_t> bytes,
                          SerializeShapeBase(base));
  // Durable atomic replacement: write `path + ".tmp"`, fsync it, rename
  // into place, fsync the directory; the temp file is removed on every
  // error path. A crash mid-save leaves the previous file intact, and a
  // completed save survives power loss.
  return Env::Posix()->WriteFileAtomic(path, bytes);
}

util::Result<std::unique_ptr<core::ShapeBase>> LoadShapeBaseFromBytes(
    const std::vector<uint8_t>& bytes, core::ShapeBaseOptions options,
    const LoadOptions& load_options, LoadReport* report) {
  LoadReport local_report;
  LoadReport& rep = report != nullptr ? *report : local_report;
  rep = LoadReport{};

  BufferReader reader(bytes);
  uint32_t magic = 0, version = 0;
  uint64_t count = 0;
  // Header corruption is never salvageable: without a trusted version we
  // cannot parse anything that follows.
  if (!reader.Read(&magic) || magic != kMagic) {
    return util::Status::Corruption("not a GeoSIR shape file");
  }
  if (!reader.Read(&version) ||
      (version != kVersionV1 && version != kVersionV2)) {
    return util::Status::NotSupported("unsupported shape file version");
  }
  rep.version = version;
  const bool checksummed = version == kVersionV2;
  if (!reader.Read(&count) || (checksummed && !reader.ReadAndCheckCrc())) {
    return util::Status::Corruption("truncated or corrupt header");
  }
  reader.ResetCrc();
  rep.shapes_expected = count;

  auto base = std::make_unique<core::ShapeBase>(std::move(options));
  util::Status record_error;  // First bad record (drives salvage).
  for (uint64_t s = 0; s < count; ++s) {
    uint32_t image = 0, vertices = 0;
    uint16_t label_len = 0;
    uint8_t closed = 0;
    if (!reader.Read(&image) || !reader.Read(&label_len)) {
      record_error = util::Status::Corruption("truncated shape header");
      break;
    }
    std::string label(label_len, '\0');
    if (!reader.ReadBytes(label.data(), label_len) || !reader.Read(&closed) ||
        !reader.Read(&vertices)) {
      record_error = util::Status::Corruption("truncated shape record");
      break;
    }
    // Validate the on-disk count before trusting it with an allocation: a
    // corrupt u32 here could demand a multi-GB reserve. The remaining
    // bytes bound the plausible count exactly.
    if (static_cast<uint64_t>(vertices) >
        static_cast<uint64_t>(reader.remaining()) / kVertexBytes) {
      record_error = util::Status::Corruption(
          "vertex count exceeds remaining file size");
      break;
    }
    std::vector<geom::Point> pts;
    pts.reserve(vertices);
    bool truncated = false;
    for (uint32_t v = 0; v < vertices; ++v) {
      double x = 0, y = 0;
      if (!reader.Read(&x) || !reader.Read(&y)) {
        truncated = true;
        break;
      }
      pts.push_back(geom::Point{x, y});
    }
    if (truncated) {
      record_error = util::Status::Corruption("truncated vertex data");
      break;
    }
    if (checksummed && !reader.ReadAndCheckCrc()) {
      record_error = util::Status::Corruption("shape record checksum mismatch");
      break;
    }
    auto id = base->AddShape(geom::Polyline(std::move(pts), closed != 0),
                             image, std::move(label));
    if (!id.ok()) {
      // A record that parses but fails validation is corruption from the
      // file's perspective (v1 files have no checksum to catch it first).
      record_error = util::Status::Corruption(
          "invalid shape record: " + id.status().message());
      break;
    }
    ++rep.shapes_loaded;
  }
  if (!record_error.ok()) {
    if (!load_options.salvage) return record_error;
    rep.salvaged = true;  // Keep the valid prefix.
    static obs::Counter* salvage_events =
        obs::MetricRegistry::Default().GetCounter(
            "geosir_storage_salvage_events_total",
            "Shape-file loads that dropped a corrupt suffix in salvage mode");
    salvage_events->Inc();
  }
  GEOSIR_RETURN_IF_ERROR(base->Finalize());
  return base;
}

util::Result<std::unique_ptr<core::ShapeBase>> LoadShapeBase(
    const std::string& path, core::ShapeBaseOptions options,
    const LoadOptions& load_options, LoadReport* report) {
  GEOSIR_ASSIGN_OR_RETURN(std::vector<uint8_t> bytes,
                          Env::Posix()->ReadFileBytes(path));
  return LoadShapeBaseFromBytes(bytes, std::move(options), load_options,
                                report);
}

}  // namespace geosir::storage
