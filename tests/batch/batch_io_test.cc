#include "bagcpd/batch/batch_io.h"

#include <cmath>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bagcpd/batch/synthetic.h"
#include "bagcpd/common/buffer_arena.h"
#include "testing/temp_dir.h"

namespace bagcpd {
namespace {

// Every file lives in one directory, removed when the test binary exits.
std::string TempPath(const std::string& name) {
  static const ScopedTempDir dir("bagcpd-batch-io");
  return dir.File(name);
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void ExpectIdenticalTables(const BatchTable& a, const BatchTable& b) {
  ASSERT_EQ(a.group_count(), b.group_count());
  ASSERT_EQ(a.row_count(), b.row_count());
  ASSERT_EQ(a.step_count(), b.step_count());
  for (std::size_t g = 0; g < a.group_count(); ++g) {
    EXPECT_EQ(a.group_key(g), b.group_key(g));
    EXPECT_EQ(a.group_profile(g), b.group_profile(g));
    EXPECT_EQ(a.group_status(g).ok(), b.group_status(g).ok());
    EXPECT_EQ(a.group_dim(g), b.group_dim(g));
    ASSERT_EQ(a.group_step_count(g), b.group_step_count(g));
    for (std::size_t s = 0; s < a.group_step_count(g); ++s) {
      EXPECT_EQ(a.step_timestamp(g, s), b.step_timestamp(g, s));
      EXPECT_EQ(a.step_row_count(g, s), b.step_row_count(g, s));
    }
  }
  ASSERT_EQ(a.values().size(), b.values().size());
  EXPECT_EQ(std::memcmp(a.values().data(), b.values().data(),
                        a.values().size() * sizeof(double)),
            0);
}

BatchTable SampleTable() {
  BatchTableBuilder builder;
  // Values that stress shortest-round-trip formatting.
  EXPECT_TRUE(builder.AddRow("alpha", 1, Point{0.1, -2.5}).ok());
  EXPECT_TRUE(builder.AddRow("alpha", 1, Point{1.0 / 3.0, 1e-300}).ok());
  EXPECT_TRUE(builder.AddRow("alpha", 2, Point{-0.0, 12345.678901234567}).ok());
  EXPECT_TRUE(builder.AddRow("beta", 5, Point{7.0, 8.0}).ok());
  return builder.Build();
}

TEST(BatchIoTest, CsvRoundTripIsBitwiseIdentical) {
  const BatchTable table = SampleTable();
  const std::string path = TempPath("batch_roundtrip.csv");
  ASSERT_TRUE(WriteBatchTableCsv(path, table).ok());

  const Result<BatchTable> loaded = ReadBatchTableCsv(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectIdenticalTables(loaded.ValueOrDie(), table);

  // write -> read -> write is byte-identical.
  const std::string path2 = TempPath("batch_roundtrip2.csv");
  ASSERT_TRUE(WriteBatchTableCsv(path2, loaded.ValueOrDie()).ok());
  EXPECT_EQ(ReadAll(path), ReadAll(path2));
}

TEST(BatchIoTest, CsvCarriesQuotedKeysAndProfiles) {
  BatchTableBuilder builder;
  // Keys with commas, quotes, and newlines exercise the RFC-4180 quoting
  // shared with io/csv.
  ASSERT_TRUE(builder.AddRow("user,7", 1, Point{1.0}, "fast").ok());
  ASSERT_TRUE(builder.AddRow("user,7", 2, Point{2.0}, "fast").ok());
  ASSERT_TRUE(builder.AddRow("say \"hi\"\nok", 1, Point{3.0}).ok());
  const BatchTable table = builder.Build();

  const std::string path = TempPath("batch_quoted.csv");
  ASSERT_TRUE(WriteBatchTableCsv(path, table).ok());
  const Result<BatchTable> loaded = ReadBatchTableCsv(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectIdenticalTables(loaded.ValueOrDie(), table);
  // Profiles survive the trip.
  bool saw_profile = false;
  for (std::size_t g = 0; g < loaded.ValueOrDie().group_count(); ++g) {
    if (loaded.ValueOrDie().group_profile(g) == "fast") saw_profile = true;
  }
  EXPECT_TRUE(saw_profile);
}

TEST(BatchIoTest, CsvRejectsRaggedAndEmptyTables) {
  BatchTableBuilder builder;
  ASSERT_TRUE(builder.AddRow("a", 1, Point{1.0}).ok());
  ASSERT_TRUE(builder.AddRow("b", 1, Point{1.0, 2.0}).ok());  // mixed dims
  const BatchTable mixed = builder.Build();
  EXPECT_FALSE(WriteBatchTableCsv(TempPath("mixed.csv"), mixed).ok());

  const BatchTable empty;
  EXPECT_FALSE(WriteBatchTableCsv(TempPath("empty.csv"), empty).ok());
}

TEST(BatchIoTest, CsvReaderValidates) {
  EXPECT_FALSE(ReadBatchTableCsv(TempPath("no_such_file.csv")).ok());

  const std::string bad_header = TempPath("bad_header.csv");
  {
    std::ofstream out(bad_header);
    out << "key,when,v0\nk,1,2.0\n";
  }
  EXPECT_FALSE(ReadBatchTableCsv(bad_header).ok());

  const std::string bad_value = TempPath("bad_value.csv");
  {
    std::ofstream out(bad_value);
    out << "key,timestamp,v0\nk,1,not_a_number\n";
  }
  EXPECT_FALSE(ReadBatchTableCsv(bad_value).ok());

  const std::string bad_ts = TempPath("bad_ts.csv");
  {
    std::ofstream out(bad_ts);
    out << "key,timestamp,v0\nk,later,2.0\n";
  }
  EXPECT_FALSE(ReadBatchTableCsv(bad_ts).ok());
}

TEST(BatchIoTest, ReadersRejectNonFiniteValues) {
  // File boundaries are validation boundaries: a NaN/Inf observation fails
  // the load with a typed error naming where it sits, so poisoned data never
  // reaches a detector through the loaders.
  const std::string nan_csv = TempPath("nan_value.csv");
  {
    std::ofstream out(nan_csv);
    out << "key,timestamp,v0\nk,1,1.0\nk,2,nan\n";
  }
  const Result<BatchTable> csv = ReadBatchTableCsv(nan_csv);
  ASSERT_FALSE(csv.ok());
  EXPECT_EQ(csv.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(csv.status().message().find("non-finite"), std::string::npos);
  EXPECT_NE(csv.status().message().find("row 2"), std::string::npos);

  const std::string inf_csv = TempPath("inf_value.csv");
  {
    std::ofstream out(inf_csv);
    out << "key,timestamp,v0\nk,1,inf\n";
  }
  EXPECT_FALSE(ReadBatchTableCsv(inf_csv).ok());

  // The builder itself accepts any doubles (in-memory tables are the
  // caller's problem), so a NaN survives the write — and the binary reader
  // refuses it coming back.
  BatchTableBuilder builder;
  ASSERT_TRUE(builder.AddRow("k", 1, Point{1.0}).ok());
  ASSERT_TRUE(builder.AddRow("k", 2, Point{std::nan("")}).ok());
  const std::string nan_bin = TempPath("nan_value.bin");
  ASSERT_TRUE(WriteBatchTableBinary(nan_bin, builder.Build()).ok());
  const Result<BatchTable> bin = ReadBatchTableBinary(nan_bin);
  ASSERT_FALSE(bin.ok());
  EXPECT_EQ(bin.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(bin.status().message().find("non-finite"), std::string::npos);
  EXPECT_NE(bin.status().message().find("'k'"), std::string::npos);
}

TEST(BatchIoTest, BinaryRoundTripIsBitwiseIdentical) {
  const BatchTable table = SampleTable();
  const std::string path = TempPath("batch_roundtrip.bin");
  ASSERT_TRUE(WriteBatchTableBinary(path, table).ok());
  const Result<BatchTable> loaded = ReadBatchTableBinary(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectIdenticalTables(loaded.ValueOrDie(), table);

  const std::string path2 = TempPath("batch_roundtrip2.bin");
  ASSERT_TRUE(WriteBatchTableBinary(path2, loaded.ValueOrDie()).ok());
  EXPECT_EQ(ReadAll(path), ReadAll(path2));
}

TEST(BatchIoTest, BinaryRoundTripsRaggedGroupsAndProfiles) {
  BatchTableBuilder builder;
  ASSERT_TRUE(builder.AddRow("ragged", 1, Point{1.0, 2.0}).ok());
  ASSERT_TRUE(builder.AddRow("ragged", 2, Point{3.0}).ok());
  ASSERT_TRUE(builder.AddRow("ok", 1, Point{4.0}, "alt").ok());
  const BatchTable table = builder.Build();
  ASSERT_FALSE(table.group_status(1).ok());  // "ragged" sorts after "ok"

  const std::string path = TempPath("batch_ragged.bin");
  ASSERT_TRUE(WriteBatchTableBinary(path, table).ok());
  const Result<BatchTable> loaded = ReadBatchTableBinary(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectIdenticalTables(loaded.ValueOrDie(), table);
  EXPECT_FALSE(loaded.ValueOrDie().group_status(1).ok());
  EXPECT_EQ(loaded.ValueOrDie().group_profile(0), "alt");
}

TEST(BatchIoTest, BinaryReaderValidates) {
  EXPECT_FALSE(ReadBatchTableBinary(TempPath("no_such_file.bin")).ok());

  const std::string bad_magic = TempPath("bad_magic.bin");
  {
    std::ofstream out(bad_magic, std::ios::binary);
    out << "NOTBAGCP" << std::string(16, '\0');
  }
  EXPECT_FALSE(ReadBatchTableBinary(bad_magic).ok());

  // Truncate a valid file: every prefix must fail cleanly, never crash.
  const std::string good = TempPath("batch_trunc_src.bin");
  ASSERT_TRUE(WriteBatchTableBinary(good, SampleTable()).ok());
  const std::string bytes = ReadAll(good);
  const std::string trunc = TempPath("batch_trunc.bin");
  for (std::size_t cut : {bytes.size() - 1, bytes.size() / 2, std::size_t{9}}) {
    std::ofstream out(trunc, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(cut));
    out.close();
    EXPECT_FALSE(ReadBatchTableBinary(trunc).ok()) << "cut=" << cut;
  }

  // Trailing garbage after a well-formed payload is rejected too.
  const std::string padded = TempPath("batch_padded.bin");
  {
    std::ofstream out(padded, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out << "extra";
  }
  EXPECT_FALSE(ReadBatchTableBinary(padded).ok());
}

TEST(BatchIoTest, BinaryWriterRefusesConflictingProfiles) {
  BatchTableBuilder builder;
  ASSERT_TRUE(builder.AddRow("healthy", 1, Point{0.5}).ok());
  ASSERT_TRUE(builder.AddRow("mixed", 1, Point{1.0}, "fast").ok());
  ASSERT_TRUE(builder.AddRow("mixed", 2, Point{2.0}, "slow").ok());
  const BatchTable table = builder.Build();
  ASSERT_FALSE(table.group_status(1).ok());
  EXPECT_TRUE(table.group_profile_conflict(1));
  EXPECT_FALSE(table.group_profile_conflict(0));

  // One profile per group on file would read "mixed" back healthy.
  const std::string path = TempPath("batch_conflict.bin");
  const Status written = WriteBatchTableBinary(path, table);
  ASSERT_FALSE(written.ok());
  EXPECT_EQ(written.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(written.message().find("'mixed'"), std::string::npos)
      << written.message();
  EXPECT_NE(written.message().find("conflicting profiles"), std::string::npos)
      << written.message();
}

// Overwrites the little-endian field of `width` bytes at `offset` of a copy
// of `bytes` with all ones, writes it to `name` and reads it back.
Result<BatchTable> ReadWithMaxedField(const std::string& bytes,
                                      std::size_t offset, std::size_t width,
                                      const std::string& name) {
  std::string corrupt = bytes;
  for (std::size_t i = 0; i < width; ++i) corrupt[offset + i] = '\xff';
  const std::string path = TempPath(name);
  std::ofstream(path, std::ios::binary)
      .write(corrupt.data(), static_cast<std::streamsize>(corrupt.size()));
  return ReadBatchTableBinary(path);
}

TEST(BatchIoTest, BinaryReaderRejectsOversizedCountsBeforeSizingFromThem) {
  BatchTableBuilder builder;
  ASSERT_TRUE(builder.AddRow("k", 7, Point{1.5}).ok());
  const std::string path = TempPath("batch_one_row.bin");
  ASSERT_TRUE(WriteBatchTableBinary(path, builder.Build()).ok());
  const std::string bytes = ReadAll(path);
  // magic 8, version 4, groups 8, key length 8 + "k", profile length 8,
  // steps 8, timestamp 8, rows 8, dim 4, one value 8.
  ASSERT_EQ(bytes.size(), 73u);
  struct Field {
    const char* name;
    std::size_t offset;
    std::size_t width;
  };
  const Field kFields[] = {{"group count", 12, 8}, {"key length", 20, 8},
                           {"profile length", 29, 8}, {"step count", 37, 8},
                           {"row count", 53, 8}, {"dim", 61, 4}};
  for (const Field& field : kFields) {
    SCOPED_TRACE(field.name);
    Status status;
    EXPECT_NO_THROW(status = ReadWithMaxedField(bytes, field.offset,
                                                field.width, "batch_maxed.bin")
                                 .status());
    EXPECT_EQ(status.code(), StatusCode::kIoError);
    EXPECT_NE(status.message().find("truncated"), std::string::npos)
        << status.message();
  }
}

TEST(BatchIoTest, CsvAndBinaryAgreeOnSyntheticCorpus) {
  BatchSeriesSpec spec;
  spec.num_groups = 20;
  spec.steps_per_group = 4;
  spec.points_per_step = 2;
  spec.dim = 2;
  spec.seed = 3;
  const Result<BatchTable> table = GenerateBatchSeries(spec);
  ASSERT_TRUE(table.ok());

  const std::string csv = TempPath("batch_corpus.csv");
  const std::string bin = TempPath("batch_corpus.bin");
  ASSERT_TRUE(WriteBatchTableCsv(csv, table.ValueOrDie()).ok());
  ASSERT_TRUE(WriteBatchTableBinary(bin, table.ValueOrDie()).ok());

  BufferArena arena;
  const Result<BatchTable> from_csv = ReadBatchTableCsv(csv, &arena);
  const Result<BatchTable> from_bin = ReadBatchTableBinary(bin, &arena);
  ASSERT_TRUE(from_csv.ok()) << from_csv.status().ToString();
  ASSERT_TRUE(from_bin.ok()) << from_bin.status().ToString();
  ExpectIdenticalTables(from_csv.ValueOrDie(), table.ValueOrDie());
  ExpectIdenticalTables(from_bin.ValueOrDie(), table.ValueOrDie());
}

}  // namespace
}  // namespace bagcpd
