#include "bagcpd/batch/batch_io.h"

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <locale>
#include <sstream>
#include <utility>
#include <vector>

#include "bagcpd/io/csv.h"

namespace bagcpd {
namespace {

// ---------------------------------------------------------------------------
// Locale-independent numeric parsing/formatting (same discipline as
// api/spec.cc: a host app calling setlocale() must not corrupt data files).

#if defined(__cpp_lib_to_chars) && __cpp_lib_to_chars >= 201611L
#define BAGCPD_BATCH_FP_CHARCONV 1
#else
#define BAGCPD_BATCH_FP_CHARCONV 0
#endif

bool ParseInt64(const std::string& text, std::int64_t* out) {
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), *out, 10);
  return ec == std::errc() && ptr == text.data() + text.size();
}

bool ParseValue(const std::string& text, double* out) {
#if BAGCPD_BATCH_FP_CHARCONV
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), *out);
  return ec == std::errc() && ptr == text.data() + text.size();
#else
  std::istringstream stream(text);
  stream.imbue(std::locale::classic());
  stream >> *out;
  return !stream.fail() && stream.eof();
#endif
}

// Shortest decimal form that parses back to exactly `v` — CSV round-trips
// must be bitwise, not merely close.
std::string FormatValue(double v) {
#if BAGCPD_BATCH_FP_CHARCONV
  char buf[64];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  if (ec == std::errc()) return std::string(buf, ptr);
#endif
  for (int precision = 6; precision <= 17; ++precision) {
    std::ostringstream stream;
    stream.imbue(std::locale::classic());
    stream << std::setprecision(precision) << v;
    double back = 0.0;
    if (ParseValue(stream.str(), &back) && back == v) return stream.str();
  }
  std::ostringstream stream;
  stream.imbue(std::locale::classic());
  stream << std::setprecision(17) << v;
  return stream.str();
}

// ---------------------------------------------------------------------------
// Little-endian byte plumbing. Explicit byte shuffling (not memcpy of host
// integers) so the format is identical on any endianness.

void PutU32(std::string* out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back(char((v >> (8 * i)) & 0xff));
}

void PutU64(std::string* out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back(char((v >> (8 * i)) & 0xff));
}

void PutI64(std::string* out, std::int64_t v) {
  PutU64(out, static_cast<std::uint64_t>(v));
}

void PutF64(std::string* out, double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(out, bits);
}

// Cursor over an in-memory file image; every Get checks remaining bytes so a
// truncated or corrupt file fails cleanly instead of reading past the end.
class ByteReader {
 public:
  ByteReader(const std::string& data, std::string path)
      : data_(data), path_(std::move(path)) {}

  Status GetU32(std::uint32_t* out) {
    BAGCPD_RETURN_NOT_OK(Need(4));
    *out = 0;
    for (int i = 0; i < 4; ++i) {
      *out |= std::uint32_t(std::uint8_t(data_[pos_ + i])) << (8 * i);
    }
    pos_ += 4;
    return Status::OK();
  }

  Status GetU64(std::uint64_t* out) {
    BAGCPD_RETURN_NOT_OK(Need(8));
    *out = 0;
    for (int i = 0; i < 8; ++i) {
      *out |= std::uint64_t(std::uint8_t(data_[pos_ + i])) << (8 * i);
    }
    pos_ += 8;
    return Status::OK();
  }

  Status GetI64(std::int64_t* out) {
    std::uint64_t bits = 0;
    BAGCPD_RETURN_NOT_OK(GetU64(&bits));
    *out = static_cast<std::int64_t>(bits);
    return Status::OK();
  }

  Status GetF64(double* out) {
    std::uint64_t bits = 0;
    BAGCPD_RETURN_NOT_OK(GetU64(&bits));
    std::memcpy(out, &bits, sizeof(*out));
    return Status::OK();
  }

  Status GetString(std::string* out) {
    std::uint64_t len = 0;
    BAGCPD_RETURN_NOT_OK(GetU64(&len));
    BAGCPD_RETURN_NOT_OK(Need(len));
    out->assign(data_, pos_, static_cast<std::size_t>(len));
    pos_ += static_cast<std::size_t>(len);
    return Status::OK();
  }

  Status GetBytes(char* out, std::size_t n) {
    BAGCPD_RETURN_NOT_OK(Need(n));
    std::memcpy(out, data_.data() + pos_, n);
    pos_ += n;
    return Status::OK();
  }

  // Fails unless `count` items of at least `size` bytes each remain, so a
  // corrupt count is caught before anything is sized from it.
  Status NeedItems(std::uint64_t count, std::size_t size) const {
    if (count > (data_.size() - pos_) / size) {
      return Status::IoError(path_ + ": truncated batch table file");
    }
    return Status::OK();
  }

  bool AtEnd() const { return pos_ == data_.size(); }

 private:
  Status Need(std::uint64_t n) const {
    if (n > data_.size() - pos_) {
      return Status::IoError(path_ + ": truncated batch table file");
    }
    return Status::OK();
  }

  const std::string& data_;
  std::string path_;
  std::size_t pos_ = 0;
};

constexpr char kBinaryMagic[8] = {'B', 'A', 'G', 'C', 'P', 'D', 'B', 'T'};
constexpr std::uint32_t kBinaryVersion = 1;

Status WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream file(path, std::ios::binary);
  if (!file.is_open()) {
    return Status::IoError("cannot open " + path + " for writing");
  }
  file.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!file.good()) return Status::IoError("write to " + path + " failed");
  return Status::OK();
}

Result<std::string> ReadFile(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file.is_open()) {
    return Status::IoError("cannot open " + path + " for reading");
  }
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return buffer.str();
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
        for (double v : bag[i]) row.push_back(FormatValue(v));
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
    if (!ParseInt64(row[1], &timestamp)) {
      return Status::Invalid(path + ": row " + std::to_string(r + 1) +
                             ": timestamp '" + row[1] +
                             "' is not an integer");
    }
    for (std::size_t d = 0; d < dim; ++d) {
      if (!ParseValue(row[2 + d], &point[d])) {
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
  bytes.append(kBinaryMagic, sizeof(kBinaryMagic));
  PutU32(&bytes, kBinaryVersion);
  PutU64(&bytes, table.group_count());
  for (std::size_t g = 0; g < table.group_count(); ++g) {
    PutU64(&bytes, table.group_key(g).size());
    bytes += table.group_key(g);
    PutU64(&bytes, table.group_profile(g).size());
    bytes += table.group_profile(g);
    PutU64(&bytes, table.group_step_count(g));
    for (std::size_t s = 0; s < table.group_step_count(g); ++s) {
      PutI64(&bytes, table.step_timestamp(g, s));
      PutU64(&bytes, table.step_row_count(g, s));
      const std::size_t first = table.step_first_row(g, s);
      for (std::size_t i = 0; i < table.step_row_count(g, s); ++i) {
        // Per-row (not per-table) dimension, so ragged quarantined groups
        // round-trip exactly.
        const PointView values = table.row_values(first + i);
        PutU32(&bytes, static_cast<std::uint32_t>(values.size()));
        for (double v : values) PutF64(&bytes, v);
      }
    }
  }
  return WriteFile(path, bytes);
}

Result<BatchTable> ReadBatchTableBinary(const std::string& path,
                                        BufferArena* arena) {
  BAGCPD_ASSIGN_OR_RETURN(std::string bytes, ReadFile(path));
  ByteReader reader(bytes, path);
  char magic[sizeof(kBinaryMagic)];
  BAGCPD_RETURN_NOT_OK(reader.GetBytes(magic, sizeof(magic)));
  if (std::memcmp(magic, kBinaryMagic, sizeof(magic)) != 0) {
    return Status::Invalid(path + ": not a bagcpd batch table file");
  }
  std::uint32_t version = 0;
  BAGCPD_RETURN_NOT_OK(reader.GetU32(&version));
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
  BAGCPD_RETURN_NOT_OK(reader.GetU64(&num_groups));
  BAGCPD_RETURN_NOT_OK(reader.NeedItems(num_groups, kGroupBytes));
  std::string key;
  std::string profile;
  std::vector<double> point;
  for (std::uint64_t g = 0; g < num_groups; ++g) {
    BAGCPD_RETURN_NOT_OK(reader.GetString(&key));
    BAGCPD_RETURN_NOT_OK(reader.GetString(&profile));
    std::uint64_t num_steps = 0;
    BAGCPD_RETURN_NOT_OK(reader.GetU64(&num_steps));
    BAGCPD_RETURN_NOT_OK(reader.NeedItems(num_steps, kStepBytes));
    for (std::uint64_t s = 0; s < num_steps; ++s) {
      std::int64_t timestamp = 0;
      BAGCPD_RETURN_NOT_OK(reader.GetI64(&timestamp));
      std::uint64_t num_rows = 0;
      BAGCPD_RETURN_NOT_OK(reader.GetU64(&num_rows));
      BAGCPD_RETURN_NOT_OK(reader.NeedItems(num_rows, kRowBytes));
      for (std::uint64_t i = 0; i < num_rows; ++i) {
        std::uint32_t dim = 0;
        BAGCPD_RETURN_NOT_OK(reader.GetU32(&dim));
        BAGCPD_RETURN_NOT_OK(reader.NeedItems(dim, kValueBytes));
        point.resize(dim);
        for (std::uint32_t d = 0; d < dim; ++d) {
          BAGCPD_RETURN_NOT_OK(reader.GetF64(&point[d]));
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
            key, timestamp, PointView(point.data(), point.size()), profile));
      }
    }
  }
  if (!reader.AtEnd()) {
    return Status::IoError(path + ": trailing bytes after batch table data");
  }
  return builder.Build();
}

}  // namespace bagcpd
