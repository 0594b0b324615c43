#include "bagcpd/serialize/checkpoint.h"

#include <cstdio>
#include <filesystem>
#include <system_error>

namespace bagcpd {
namespace serialize {

void BuildStreamBlob(const std::string& key, const std::string& profile,
                     const std::string& detector_blob, std::string* out) {
  WireWriter w(out);
  w.BeginBlob(BlobKind::kEngineStream);
  w.BeginSection(kSecStreamKey);
  w.PutString(key);
  w.EndSection();
  w.BeginSection(kSecStreamProfile);
  w.PutString(profile);
  w.EndSection();
  w.BeginSection(kSecStreamDetector);
  w.PutBytes(detector_blob.data(), detector_blob.size());
  w.EndSection();
  w.EndBlob();
}

Result<StreamBlobParts> ParseStreamBlob(std::string_view blob) {
  BAGCPD_ASSIGN_OR_RETURN(WireReader reader,
                          OpenBlob(blob, BlobKind::kEngineStream));
  StreamBlobParts parts;
  bool have_key = false, have_profile = false, have_detector = false;
  while (!reader.AtEnd()) {
    std::uint32_t tag = 0;
    std::string_view payload;
    BAGCPD_RETURN_NOT_OK(reader.NextSection(&tag, &payload));
    WireReader section(payload);
    switch (tag) {
      case kSecStreamKey:
        BAGCPD_RETURN_NOT_OK(section.ReadString(&parts.key));
        have_key = true;
        break;
      case kSecStreamProfile:
        BAGCPD_RETURN_NOT_OK(section.ReadString(&parts.profile));
        have_profile = true;
        break;
      case kSecStreamDetector:
        parts.detector_blob = payload;
        have_detector = true;
        break;
      default:
        break;  // Unknown sections are skippable by design.
    }
  }
  if (!have_key || !have_profile || !have_detector) {
    return Status::IoError(
        "engine stream blob is missing a required section (key, profile, or "
        "detector snapshot)");
  }
  return parts;
}

Result<std::string> PeekDetectorSpec(std::string_view blob) {
  BAGCPD_ASSIGN_OR_RETURN(WireReader reader,
                          OpenBlob(blob, BlobKind::kDetector));
  while (!reader.AtEnd()) {
    std::uint32_t tag = 0;
    std::string_view payload;
    BAGCPD_RETURN_NOT_OK(reader.NextSection(&tag, &payload));
    if (tag == kSecSpec) {
      WireReader section(payload);
      std::string_view spec;
      BAGCPD_RETURN_NOT_OK(section.ReadString(&spec));
      return std::string(spec);
    }
  }
  return Status::IoError("detector blob has no options-spec section");
}

Result<DetectorBlobInfo> InspectDetectorBlob(std::string_view blob) {
  BAGCPD_ASSIGN_OR_RETURN(WireReader reader,
                          OpenBlob(blob, BlobKind::kDetector));
  DetectorBlobInfo info;
  info.blob_bytes = blob.size();
  while (!reader.AtEnd()) {
    std::uint32_t tag = 0;
    std::string_view payload;
    BAGCPD_RETURN_NOT_OK(reader.NextSection(&tag, &payload));
    WireReader section(payload);
    switch (tag) {
      case kSecSpec: {
        std::string_view spec;
        BAGCPD_RETURN_NOT_OK(section.ReadString(&spec));
        info.spec = std::string(spec);
        break;
      }
      case kSecRing: {
        std::uint32_t dim = 0, count = 0;
        BAGCPD_RETURN_NOT_OK(section.ReadU32(&dim));
        BAGCPD_RETURN_NOT_OK(section.ReadU32(&count));
        info.window_fill = count;
        break;
      }
      case kSecTable: {
        std::uint32_t w = 0;
        BAGCPD_RETURN_NOT_OK(section.ReadU32(&w));
        info.window_capacity = w;
        break;
      }
      case kSecCounters:
        BAGCPD_RETURN_NOT_OK(section.ReadU64(&info.next_index));
        break;
      default:
        break;
    }
  }
  return info;
}

Result<StreamBlobInfo> InspectStreamBlob(std::string_view blob) {
  BAGCPD_ASSIGN_OR_RETURN(StreamBlobParts parts, ParseStreamBlob(blob));
  StreamBlobInfo info;
  info.blob_bytes = blob.size();
  info.key = std::string(parts.key);
  info.profile = std::string(parts.profile);
  BAGCPD_ASSIGN_OR_RETURN(info.detector,
                          InspectDetectorBlob(parts.detector_blob));
  return info;
}

Result<CheckpointInfo> InspectCheckpoint(std::string_view blob) {
  BAGCPD_ASSIGN_OR_RETURN(BlobKind kind, PeekBlobKind(blob));
  CheckpointInfo info;
  info.kind = kind;
  switch (kind) {
    case BlobKind::kDetector: {
      StreamBlobInfo stream;
      BAGCPD_ASSIGN_OR_RETURN(stream.detector, InspectDetectorBlob(blob));
      stream.blob_bytes = blob.size();
      info.streams.push_back(std::move(stream));
      return info;
    }
    case BlobKind::kEngineStream: {
      BAGCPD_ASSIGN_OR_RETURN(StreamBlobInfo stream, InspectStreamBlob(blob));
      info.streams.push_back(std::move(stream));
      return info;
    }
    case BlobKind::kEngineCheckpoint:
      break;
  }
  BAGCPD_ASSIGN_OR_RETURN(WireReader reader,
                          OpenBlob(blob, BlobKind::kEngineCheckpoint));
  std::uint64_t declared_streams = 0;
  while (!reader.AtEnd()) {
    std::uint32_t tag = 0;
    std::string_view payload;
    BAGCPD_RETURN_NOT_OK(reader.NextSection(&tag, &payload));
    WireReader section(payload);
    switch (tag) {
      case kSecEngineMeta:
        BAGCPD_RETURN_NOT_OK(section.ReadU64(&info.engine_seed));
        BAGCPD_RETURN_NOT_OK(section.ReadU64(&declared_streams));
        break;
      case kSecEngineStream: {
        BAGCPD_ASSIGN_OR_RETURN(StreamBlobInfo stream,
                                InspectStreamBlob(payload));
        info.streams.push_back(std::move(stream));
        break;
      }
      default:
        break;
    }
  }
  if (declared_streams != info.streams.size()) {
    return Status::IoError(
        "engine checkpoint declares " + std::to_string(declared_streams) +
        " streams but contains " + std::to_string(info.streams.size()));
  }
  return info;
}

Status WriteFileBytes(const std::string& path, std::string_view data) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Status::IoError("cannot open '" + path + "' for writing");
  }
  const std::size_t written = std::fwrite(data.data(), 1, data.size(), f);
  const int close_rc = std::fclose(f);
  if (written != data.size() || close_rc != 0) {
    std::remove(path.c_str());
    return Status::IoError("short write to '" + path + "'");
  }
  return Status::OK();
}

Result<std::size_t> ReadFileBytes(const std::string& path, BufferArena* arena,
                                  std::vector<double>* storage) {
  // A directory opens and seeks like a file but reports a bogus size; the
  // buffer must never be sized from that.
  std::error_code error;
  if (std::filesystem::is_directory(path, error)) {
    return Status::IoError("cannot read '" + path + "': it is a directory");
  }
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::IoError("cannot open '" + path + "' for reading");
  }
  if (std::fseek(f, 0, SEEK_END) != 0) {
    std::fclose(f);
    return Status::IoError("cannot seek '" + path + "'");
  }
  const long size = std::ftell(f);
  if (size < 0) {
    std::fclose(f);
    return Status::IoError("cannot size '" + path + "'");
  }
  std::rewind(f);
  const std::size_t bytes = static_cast<std::size_t>(size);
  const std::size_t doubles = bytes / sizeof(double) + 1;
  // The file lands in a pooled double buffer: the spill rehydrate path reads
  // through the shard arena (warm = zero mallocs), and the blob's f64
  // payloads stay 8-byte aligned for free.
  if (arena != nullptr) {
    if (storage->capacity() < doubles) {
      *storage = arena->Acquire(doubles);
    }
  }
  storage->resize(doubles);
  const std::size_t got = std::fread(storage->data(), 1, bytes, f);
  std::fclose(f);
  if (got != bytes) {
    return Status::IoError("short read from '" + path + "'");
  }
  return bytes;
}

}  // namespace serialize
}  // namespace bagcpd
