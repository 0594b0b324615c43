#include "bagcpd/batch/batch_io.h"

#include <cmath>
#include <cstdint>
#include <string_view>
#include <utility>
#include <vector>

#include "bagcpd/common/number_text.h"
#include "bagcpd/io/csv.h"
#include "bagcpd/serialize/checkpoint.h"
#include "bagcpd/serialize/wire.h"

namespace bagcpd {
namespace {

constexpr char kBinaryMagic[8] = {'B', 'A', 'G', 'C', 'P', 'D', 'B', 'T'};
constexpr std::uint32_t kBinaryVersion = 1;

Status Truncated(const std::string& path) {
  return Status::IoError(path + ": truncated batch table file");
}

// Fails unless `count` items of at least `size` bytes each remain, so a
// corrupt count is caught before anything is sized from it.
Status NeedItems(const serialize::WireReader& reader, std::uint64_t count,
                 std::size_t size, const std::string& path) {
  return count > reader.remaining() / size ? Truncated(path) : Status::OK();
}

}  // namespace

Status WriteBatchTableCsv(const std::string& path, const BatchTable& table) {
  // CSV carries one dimension in its header, so the whole table must share
  // it; ragged (quarantined) groups have no CSV representation at all.
  if (table.empty()) {
    return Status::Invalid(
        "cannot write an empty table as CSV (the header encodes the point "
        "dimension); use the binary format");
  }
  std::size_t dim = 0;
  bool any_profile = false;
  for (std::size_t g = 0; g < table.group_count(); ++g) {
    if (!table.group_status(g).ok()) {
      return Status::Invalid("cannot write '" + table.group_key(g) +
                             "' as CSV: " + table.group_status(g).message() +
                             " (use the binary format for malformed groups)");
    }
    if (dim == 0) {
      dim = table.group_dim(g);
    } else if (table.group_dim(g) != dim) {
      return Status::Invalid(
          "cannot write CSV: group '" + table.group_key(g) + "' has dim " +
          std::to_string(table.group_dim(g)) + " but earlier groups have " +
          std::to_string(dim) + " (use the binary format for mixed tables)");
    }
    if (!table.group_profile(g).empty()) any_profile = true;
  }

  std::vector<std::string> header = {"key", "timestamp"};
  for (std::size_t d = 0; d < dim; ++d) {
    header.push_back("v" + std::to_string(d));
  }
  if (any_profile) header.push_back("profile");

  std::vector<std::vector<std::string>> rows;
  rows.reserve(table.row_count());
  for (std::size_t g = 0; g < table.group_count(); ++g) {
    for (std::size_t s = 0; s < table.group_step_count(g); ++s) {
      const BagView bag = table.step_bag(g, s);
      for (std::size_t i = 0; i < bag.size(); ++i) {
        std::vector<std::string> row;
        row.reserve(header.size());
        row.push_back(table.group_key(g));
        row.push_back(std::to_string(table.step_timestamp(g, s)));
        for (double v : bag[i]) row.push_back(FormatDoubleShortest(v));
        if (any_profile) row.push_back(table.group_profile(g));
        rows.push_back(std::move(row));
      }
    }
  }
  return WriteCsv(path, header, rows);
}

Result<BatchTable> ReadBatchTableCsv(const std::string& path,
                                     BufferArena* arena) {
  BAGCPD_ASSIGN_OR_RETURN(CsvData csv, ReadCsv(path));
  const std::vector<std::string>& header = csv.header;
  if (header.size() < 3 || header[0] != "key" || header[1] != "timestamp") {
    return Status::Invalid(
        path + ": expected header 'key,timestamp,v0,...[,profile]'");
  }
  const bool has_profile = header.back() == "profile";
  const std::size_t dim = header.size() - 2 - (has_profile ? 1 : 0);
  if (dim == 0) {
    return Status::Invalid(path + ": header has no value columns");
  }
  for (std::size_t d = 0; d < dim; ++d) {
    if (header[2 + d] != "v" + std::to_string(d)) {
      return Status::Invalid(path + ": value column " + std::to_string(d) +
                             " is named '" + header[2 + d] + "', expected 'v" +
                             std::to_string(d) + "'");
    }
  }

  BatchTableBuilder builder(arena);
  builder.Reserve(csv.rows.size(), dim);
  std::vector<double> point(dim);
  for (std::size_t r = 0; r < csv.rows.size(); ++r) {
    const std::vector<std::string>& row = csv.rows[r];
    std::int64_t timestamp = 0;
    if (ParseInt64(row[1], &timestamp) != NumberParse::kOk) {
      return Status::Invalid(path + ": row " + std::to_string(r + 1) +
                             ": timestamp '" + row[1] +
                             "' is not an integer");
    }
    for (std::size_t d = 0; d < dim; ++d) {
      if (ParseDouble(row[2 + d], &point[d]) != NumberParse::kOk) {
        return Status::Invalid(path + ": row " + std::to_string(r + 1) +
                               ": value '" + row[2 + d] +
                               "' is not a number");
      }
      // NaN/Inf are rejected at the file boundary so a poisoned value is
      // named by its row instead of surfacing later as a skipped step or a
      // dropped engine submission.
      if (!std::isfinite(point[d])) {
        return Status::Invalid(path + ": row " + std::to_string(r + 1) +
                               ": column v" + std::to_string(d) +
                               " holds non-finite value '" + row[2 + d] + "'");
      }
    }
    const std::string& profile = has_profile ? row.back() : std::string();
    BAGCPD_RETURN_NOT_OK(
        builder.AddRow(row[0], timestamp,
                       PointView(point.data(), dim), profile));
  }
  return builder.Build();
}

Status WriteBatchTableBinary(const std::string& path,
                             const BatchTable& table) {
  // The layout stores one profile per group, so a group quarantined for
  // conflicting profiles would read back healthy; a ragged group's status
  // comes back from its per-row dimensions.
  for (std::size_t g = 0; g < table.group_count(); ++g) {
    if (table.group_profile_conflict(g)) {
      return Status::Invalid("cannot write '" + table.group_key(g) +
                             "' as binary: " + table.group_status(g).message() +
                             " (the layout stores one profile per group)");
    }
  }
  std::string bytes;
  serialize::WireWriter out(&bytes);
  out.PutBytes(kBinaryMagic, sizeof(kBinaryMagic));
  out.PutU32(kBinaryVersion);
  out.PutU64(table.group_count());
  for (std::size_t g = 0; g < table.group_count(); ++g) {
    out.PutString(table.group_key(g));
    out.PutString(table.group_profile(g));
    out.PutU64(table.group_step_count(g));
    for (std::size_t s = 0; s < table.group_step_count(g); ++s) {
      out.PutU64(static_cast<std::uint64_t>(table.step_timestamp(g, s)));
      out.PutU64(table.step_row_count(g, s));
      const std::size_t first = table.step_first_row(g, s);
      for (std::size_t i = 0; i < table.step_row_count(g, s); ++i) {
        // Per-row (not per-table) dimension, so ragged quarantined groups
        // round-trip exactly.
        const PointView values = table.row_values(first + i);
        out.PutU32(static_cast<std::uint32_t>(values.size()));
        out.PutF64Array(values.data(), values.size());
      }
    }
  }
  return serialize::WriteFileBytes(path, bytes);
}

Result<BatchTable> ReadBatchTableBinary(const std::string& path,
                                        BufferArena* arena) {
  std::vector<double> storage;
  BAGCPD_ASSIGN_OR_RETURN(const std::size_t size,
                          serialize::ReadFileBytes(path, nullptr, &storage));
  serialize::WireReader reader(serialize::FileBytesView(storage, size));
  // A wire read fails only when it runs past the end of the file.
  const auto read = [&path](const Status& status) {
    return status.ok() ? status : Truncated(path);
  };
  std::string_view magic;
  BAGCPD_RETURN_NOT_OK(read(reader.ReadBytes(sizeof(kBinaryMagic), &magic)));
  if (magic != std::string_view(kBinaryMagic, sizeof(kBinaryMagic))) {
    return Status::Invalid(path + ": not a bagcpd batch table file");
  }
  std::uint32_t version = 0;
  BAGCPD_RETURN_NOT_OK(read(reader.ReadU32(&version)));
  if (version != kBinaryVersion) {
    return Status::Invalid(path + ": unsupported batch table version " +
                           std::to_string(version));
  }
  BatchTableBuilder builder(arena);
  // Minimum encoded sizes: a group's two string lengths and step count, a
  // step's timestamp and row count, a row's dim, a value.
  constexpr std::size_t kGroupBytes = 24;
  constexpr std::size_t kStepBytes = 16;
  constexpr std::size_t kRowBytes = 4;
  constexpr std::size_t kValueBytes = 8;
  std::uint64_t num_groups = 0;
  BAGCPD_RETURN_NOT_OK(read(reader.ReadU64(&num_groups)));
  BAGCPD_RETURN_NOT_OK(NeedItems(reader, num_groups, kGroupBytes, path));
  std::string_view key_bytes;
  std::string_view profile_bytes;
  std::string key;
  std::string profile;
  std::vector<double> point;
  for (std::uint64_t g = 0; g < num_groups; ++g) {
    BAGCPD_RETURN_NOT_OK(read(reader.ReadString(&key_bytes)));
    BAGCPD_RETURN_NOT_OK(read(reader.ReadString(&profile_bytes)));
    key.assign(key_bytes);
    profile.assign(profile_bytes);
    std::uint64_t num_steps = 0;
    BAGCPD_RETURN_NOT_OK(read(reader.ReadU64(&num_steps)));
    BAGCPD_RETURN_NOT_OK(NeedItems(reader, num_steps, kStepBytes, path));
    for (std::uint64_t s = 0; s < num_steps; ++s) {
      std::uint64_t timestamp = 0;
      BAGCPD_RETURN_NOT_OK(read(reader.ReadU64(&timestamp)));
      std::uint64_t num_rows = 0;
      BAGCPD_RETURN_NOT_OK(read(reader.ReadU64(&num_rows)));
      BAGCPD_RETURN_NOT_OK(NeedItems(reader, num_rows, kRowBytes, path));
      for (std::uint64_t i = 0; i < num_rows; ++i) {
        std::uint32_t dim = 0;
        BAGCPD_RETURN_NOT_OK(read(reader.ReadU32(&dim)));
        BAGCPD_RETURN_NOT_OK(NeedItems(reader, dim, kValueBytes, path));
        point.resize(dim);
        BAGCPD_RETURN_NOT_OK(read(reader.ReadF64Array(point.data(), dim)));
        for (std::uint32_t d = 0; d < dim; ++d) {
          // Same boundary rejection as the CSV reader: name the offending
          // row rather than let NaN/Inf propagate into a detector.
          if (!std::isfinite(point[d])) {
            return Status::Invalid(
                path + ": group '" + key + "' step " + std::to_string(s) +
                " row " + std::to_string(i) + " value " + std::to_string(d) +
                " is non-finite");
          }
        }
        BAGCPD_RETURN_NOT_OK(builder.AddRow(
            key, static_cast<std::int64_t>(timestamp),
            PointView(point.data(), point.size()), profile));
      }
    }
  }
  if (!reader.AtEnd()) {
    return Status::IoError(path + ": trailing bytes after batch table data");
  }
  return builder.Build();
}

}  // namespace bagcpd
