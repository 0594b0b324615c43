#include "bagcpd/batch/batch_table.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "bagcpd/batch/batch_io.h"
#include "bagcpd/batch/batch_runner.h"
#include "bagcpd/batch/synthetic.h"
#include "bagcpd/common/buffer_arena.h"
#include "bagcpd/core/detector.h"
#include "bagcpd/runtime/stream_engine.h"
#include "testing/temp_dir.h"

namespace bagcpd {
namespace {

Point P(std::initializer_list<double> values) { return Point(values); }

// Bitwise table comparison: the canonical-layout guarantee is "identical",
// not "equivalent", so everything down to the value buffer bytes must match.
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

TEST(BatchTableTest, EmptyBuilderProducesEmptyTable) {
  BatchTableBuilder builder;
  const BatchTable table = builder.Build();
  EXPECT_TRUE(table.empty());
  EXPECT_EQ(table.group_count(), 0u);
  EXPECT_EQ(table.row_count(), 0u);
  EXPECT_EQ(table.step_count(), 0u);
}

TEST(BatchTableTest, SingleGroupLayout) {
  BatchTableBuilder builder;
  ASSERT_TRUE(builder.AddRow("k", 10, P({1.0, 2.0})).ok());
  ASSERT_TRUE(builder.AddRow("k", 20, P({3.0, 4.0})).ok());
  ASSERT_TRUE(builder.AddRow("k", 30, P({5.0, 6.0})).ok());
  const BatchTable table = builder.Build();

  ASSERT_EQ(table.group_count(), 1u);
  EXPECT_EQ(table.group_key(0), "k");
  EXPECT_TRUE(table.group_status(0).ok());
  EXPECT_EQ(table.group_dim(0), 2u);
  ASSERT_EQ(table.group_step_count(0), 3u);
  EXPECT_EQ(table.row_count(), 3u);
  EXPECT_EQ(table.step_timestamp(0, 0), 10);
  EXPECT_EQ(table.step_timestamp(0, 2), 30);
  const BagView bag = table.step_bag(0, 1);
  ASSERT_EQ(bag.size(), 1u);
  EXPECT_EQ(bag[0][0], 3.0);
  EXPECT_EQ(bag[0][1], 4.0);
}

TEST(BatchTableTest, DuplicateKeyTimestampRowsFormOneBag) {
  BatchTableBuilder builder;
  ASSERT_TRUE(builder.AddRow("k", 5, P({1.0})).ok());
  ASSERT_TRUE(builder.AddRow("k", 5, P({2.0})).ok());
  ASSERT_TRUE(builder.AddRow("k", 5, P({3.0})).ok());
  ASSERT_TRUE(builder.AddRow("k", 6, P({4.0})).ok());
  const BatchTable table = builder.Build();

  ASSERT_EQ(table.group_count(), 1u);
  ASSERT_EQ(table.group_step_count(0), 2u);
  EXPECT_EQ(table.row_count(), 4u);
  EXPECT_EQ(table.step_row_count(0, 0), 3u);
  EXPECT_EQ(table.step_row_count(0, 1), 1u);
  const BagView bag = table.step_bag(0, 0);
  ASSERT_EQ(bag.size(), 3u);
  EXPECT_EQ(bag.dim(), 1u);
}

TEST(BatchTableTest, UnsortedInputMatchesPreSortedInputBitwise) {
  struct Row {
    const char* key;
    std::int64_t ts;
    Point p;
  };
  std::vector<Row> rows = {
      {"b", 2, P({5.0, 6.0})}, {"a", 1, P({1.0, 2.0})},
      {"b", 1, P({3.0, 4.0})}, {"a", 2, P({7.0, 8.0})},
      {"a", 1, P({0.5, 0.5})},  // duplicate (key, ts): second point in bag
  };
  BatchTableBuilder shuffled;
  for (const Row& r : rows) {
    ASSERT_TRUE(shuffled.AddRow(r.key, r.ts, r.p).ok());
  }

  // Pre-sorted order: by (key, timestamp, values).
  BatchTableBuilder sorted;
  ASSERT_TRUE(sorted.AddRow("a", 1, P({0.5, 0.5})).ok());
  ASSERT_TRUE(sorted.AddRow("a", 1, P({1.0, 2.0})).ok());
  ASSERT_TRUE(sorted.AddRow("a", 2, P({7.0, 8.0})).ok());
  ASSERT_TRUE(sorted.AddRow("b", 1, P({3.0, 4.0})).ok());
  ASSERT_TRUE(sorted.AddRow("b", 2, P({5.0, 6.0})).ok());

  ExpectIdenticalTables(shuffled.Build(), sorted.Build());
}

TEST(BatchTableTest, RaggedGroupIsQuarantinedNotFatal) {
  BatchTableBuilder builder;
  ASSERT_TRUE(builder.AddRow("ragged", 1, P({1.0, 2.0})).ok());
  ASSERT_TRUE(builder.AddRow("ragged", 2, P({3.0})).ok());  // dim 1 vs 2
  ASSERT_TRUE(builder.AddRow("healthy", 1, P({1.0})).ok());
  const BatchTable table = builder.Build();

  ASSERT_EQ(table.group_count(), 2u);
  // Groups are key-sorted: "healthy" < "ragged".
  EXPECT_EQ(table.group_key(0), "healthy");
  EXPECT_TRUE(table.group_status(0).ok());
  EXPECT_EQ(table.group_key(1), "ragged");
  EXPECT_FALSE(table.group_status(1).ok());
  EXPECT_EQ(table.group_dim(1), 0u);
  // Its rows are retained for accounting (and for binary round-trips).
  EXPECT_EQ(table.group_row_count(1), 2u);
  EXPECT_EQ(table.group_step_count(1), 2u);
  EXPECT_EQ(table.row_count(), 3u);
  // Per-row access still works on the ragged group.
  EXPECT_EQ(table.row_values(table.step_first_row(1, 1)).size(), 1u);
}

TEST(BatchTableTest, ConflictingProfilesQuarantineTheGroup) {
  BatchTableBuilder builder;
  ASSERT_TRUE(builder.AddRow("k", 1, P({1.0}), "fast").ok());
  ASSERT_TRUE(builder.AddRow("k", 2, P({2.0}), "slow").ok());
  const BatchTable table = builder.Build();
  ASSERT_EQ(table.group_count(), 1u);
  EXPECT_FALSE(table.group_status(0).ok());
  EXPECT_NE(table.group_status(0).message().find("conflicting profiles"),
            std::string::npos);
}

TEST(BatchTableTest, UniformProfileIsKept) {
  BatchTableBuilder builder;
  ASSERT_TRUE(builder.AddRow("k", 1, P({1.0}), "fast").ok());
  ASSERT_TRUE(builder.AddRow("k", 2, P({2.0}), "fast").ok());
  const BatchTable table = builder.Build();
  ASSERT_EQ(table.group_count(), 1u);
  EXPECT_TRUE(table.group_status(0).ok());
  EXPECT_EQ(table.group_profile(0), "fast");
}

TEST(BatchTableTest, RejectsEmptyKeyAndEmptyPoint) {
  BatchTableBuilder builder;
  EXPECT_FALSE(builder.AddRow("", 1, P({1.0})).ok());
  EXPECT_FALSE(builder.AddRow("k", 1, PointView()).ok());
  EXPECT_EQ(builder.row_count(), 0u);
}

TEST(BatchTableTest, ArenaBackedBuildIsIdenticalAndRecyclesBuffers) {
  BufferArena arena;
  BatchTableBuilder pooled(&arena);
  BatchTableBuilder plain;
  for (int t = 0; t < 8; ++t) {
    const Point p = P({double(t), double(t) * 2});
    ASSERT_TRUE(pooled.AddRow("k", t, p).ok());
    ASSERT_TRUE(plain.AddRow("k", t, p).ok());
  }
  {
    const BatchTable a = pooled.Build();
    const BatchTable b = plain.Build();
    ExpectIdenticalTables(a, b);
  }
  // The table's buffer (and the staging buffer) returned to the arena.
  EXPECT_GT(arena.stats().releases, 0u);
}

TEST(BatchTableTest, BuilderIsReusableAfterBuild) {
  BatchTableBuilder builder;
  ASSERT_TRUE(builder.AddRow("first", 1, P({1.0})).ok());
  const BatchTable first = builder.Build();
  ASSERT_EQ(first.group_count(), 1u);
  EXPECT_EQ(builder.row_count(), 0u);
  ASSERT_TRUE(builder.AddRow("second", 1, P({2.0})).ok());
  const BatchTable second = builder.Build();
  ASSERT_EQ(second.group_count(), 1u);
  EXPECT_EQ(second.group_key(0), "second");
}

// --- Golden pins and a reference oracle for Build()'s row order ---------

// FNV-1a over every BatchTable accessor: group key, profile, status, dim,
// step timestamps, row extents and value bytes. A pinned hash captures the
// whole table, so a faster Build() must reproduce it byte for byte.
class Fnv1a {
 public:
  void Bytes(const void* data, std::size_t size) {
    const unsigned char* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      hash_ = (hash_ ^ p[i]) * 0x100000001b3ull;
    }
  }
  void U64(std::uint64_t v) { Bytes(&v, sizeof(v)); }
  void Str(const std::string& s) {
    U64(s.size());
    Bytes(s.data(), s.size());
  }
  std::uint64_t hash() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

std::uint64_t TableHash(const BatchTable& table) {
  Fnv1a h;
  h.U64(table.group_count());
  h.U64(table.row_count());
  h.U64(table.step_count());
  for (std::size_t g = 0; g < table.group_count(); ++g) {
    h.Str(table.group_key(g));
    h.Str(table.group_profile(g));
    h.U64(static_cast<std::uint64_t>(table.group_status(g).code()));
    h.Str(table.group_status(g).ok() ? std::string()
                                     : table.group_status(g).message());
    h.U64(table.group_dim(g));
    h.U64(table.group_row_count(g));
    h.U64(table.group_step_count(g));
    for (std::size_t s = 0; s < table.group_step_count(g); ++s) {
      h.U64(static_cast<std::uint64_t>(table.step_timestamp(g, s)));
      h.U64(table.step_row_count(g, s));
      h.U64(table.step_first_row(g, s));
    }
  }
  for (std::size_t r = 0; r < table.row_count(); ++r) {
    const PointView row = table.row_values(r);
    h.U64(row.size());
    h.U64(static_cast<std::uint64_t>(row.data() - table.values().data()));
  }
  h.Bytes(table.values().data(), table.values().size() * sizeof(double));
  return h.hash();
}

// SplitMix64: a fixed, library-independent stream for the test corpora.
struct SplitMix64 {
  std::uint64_t state;
  std::uint64_t Next() {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  std::size_t Below(std::size_t n) { return Next() % n; }
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    for (std::size_t i = v->size(); i > 1; --i) {
      std::swap((*v)[i - 1], (*v)[Below(i)]);
    }
  }
};

double FromBits(std::uint64_t bits) {
  double d;
  std::memcpy(&d, &bits, sizeof(d));
  return d;
}

struct RawRow {
  std::string key;
  std::int64_t timestamp = 0;
  std::vector<double> values;
  std::string profile;
};

BatchTable BuildFrom(const std::vector<RawRow>& rows) {
  BatchTableBuilder builder;
  for (const RawRow& r : rows) {
    EXPECT_TRUE(builder
                    .AddRow(r.key, r.timestamp,
                            PointView(r.values.data(), r.values.size()),
                            r.profile)
                    .ok());
  }
  return builder.Build();
}

// Shuffled rows, duplicate rows, a ragged group, conflicting profiles,
// negative and out-of-order timestamps, -0.0/+0.0, NaN payloads, infinities
// and subnormals.
std::vector<RawRow> AdversarialRows() {
  const double kValues[] = {
      0.0,
      -0.0,
      1.0,
      -1.0,
      0.5,
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      FromBits(0x000fffffffffffffull),  // largest subnormal
      FromBits(0x7ff8000000000000ull),  // quiet NaN
      FromBits(0x7ff8000000000001ull),  // quiet NaN, payload 1
      FromBits(0xfff8000000000000ull),  // negative quiet NaN
      FromBits(0x7ff0000000000001ull),  // signalling NaN
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      1e308,
  };
  const std::size_t kNumValues = sizeof(kValues) / sizeof(kValues[0]);
  const std::int64_t kTimestamps[] = {
      std::numeric_limits<std::int64_t>::min(), -1000000007, -3, -1, 0, 2,
      7, 1000000007, std::numeric_limits<std::int64_t>::max()};
  struct GroupShape {
    const char* key;
    std::size_t dim;  // 0: ragged, dims drawn per row from 1..3
    const char* profile;
    const char* conflicting_profile;  // non-null: some rows carry it
  };
  const GroupShape kGroups[] = {
      {"zeta", 2, "", nullptr},      {"Alpha", 1, "fast", nullptr},
      {"alpha", 3, "", nullptr},     {"alpha-ragged", 0, "", nullptr},
      {"k10", 2, "slow", "fast"},    {"k9", 2, "", nullptr},
      {"a", 1, "", nullptr},
  };
  SplitMix64 rng{0x5eed};
  std::vector<RawRow> rows;
  for (const GroupShape& shape : kGroups) {
    for (int i = 0; i < 90; ++i) {
      RawRow row;
      row.key = shape.key;
      row.timestamp = kTimestamps[rng.Below(9)];
      const std::size_t dim = shape.dim != 0 ? shape.dim : 1 + rng.Below(3);
      for (std::size_t d = 0; d < dim; ++d) {
        row.values.push_back(kValues[rng.Below(kNumValues)]);
      }
      row.profile = shape.profile;
      if (shape.conflicting_profile != nullptr && rng.Below(4) == 0) {
        row.profile = shape.conflicting_profile;
      }
      rows.push_back(row);
      if (rng.Below(5) == 0) rows.push_back(row);  // an exact duplicate
    }
  }
  rng.Shuffle(&rows);
  return rows;
}

// Hashes captured from the single-comparator Build() that preceded the
// counting-sort one; the row order is part of the table bytes.
TEST(BatchTableGoldenTest, SweepShapedTablesMatchPinnedHashes) {
  const std::uint64_t kSeeds[] = {1001, 7};
  const std::uint64_t kPinned[] = {0xa9210912491987b2ull,
                                   0x343500bd5dbfa82cull};
  for (int i = 0; i < 2; ++i) {
    BatchSeriesSpec spec;
    spec.num_groups = 50;
    spec.steps_per_group = 40;
    spec.points_per_step = 32;
    spec.dim = 2;
    spec.seed = kSeeds[i];
    const Result<BatchSeriesRows> rows = GenerateBatchSeriesRows(spec);
    ASSERT_TRUE(rows.ok());
    EXPECT_EQ(TableHash(BuildBatchTable(*rows)), kPinned[i])
        << "seed " << kSeeds[i] << " hash 0x" << std::hex
        << TableHash(BuildBatchTable(*rows));
  }
}

TEST(BatchTableGoldenTest, AdversarialTableMatchesPinnedHash) {
  const BatchTable table = BuildFrom(AdversarialRows());
  EXPECT_EQ(TableHash(table), 0x06aaae1df9092e81ull)
      << "hash 0x" << std::hex << TableHash(table);
}

// Groups that are uniform inside but of different dims (1, 2 and 3), with
// 3-7 rows per step, keyed so the dims interleave in table order: a group's
// first value sits after the values of every earlier group, not at
// row_begin x dim.
std::vector<RawRow> MixedDimRows() {
  const std::pair<const char*, std::size_t> kGroups[] = {
      {"a3", 3}, {"b1", 1}, {"c2", 2}, {"d3", 3}, {"e1", 1}, {"f2", 2}};
  SplitMix64 rng{0xd1a};
  std::vector<RawRow> rows;
  for (const auto& [key, dim] : kGroups) {
    for (std::int64_t t = 0; t < 12; ++t) {
      const std::size_t size = 3 + rng.Below(5);
      for (std::size_t i = 0; i < size; ++i) {
        RawRow row;
        row.key = key;
        row.timestamp = t;
        for (std::size_t d = 0; d < dim; ++d) {
          const double unit = static_cast<double>(rng.Next() >> 11) * 0x1p-53;
          row.values.push_back(unit + (t >= 6 ? 3.0 : 0.0));
        }
        rows.push_back(row);
      }
    }
  }
  rng.Shuffle(&rows);
  return rows;
}

// Captured on the layout that stored one value offset per row.
TEST(BatchTableGoldenTest, MixedDimTableMatchesPinnedHash) {
  const BatchTable table = BuildFrom(MixedDimRows());
  ASSERT_EQ(table.group_count(), 6u);
  for (std::size_t g = 0; g < table.group_count(); ++g) {
    EXPECT_TRUE(table.group_status(g).ok()) << table.group_key(g);
  }
  EXPECT_EQ(TableHash(table), 0xe41f354c31afe715ull)
      << "hash 0x" << std::hex << TableHash(table);
}

// Each mixed-dim group scores as a standalone detector fed bags built from
// the raw rows (each bag in value-bit order), bit for bit.
TEST(BatchTableTest, MixedDimGroupsScoreLikeStandaloneDetectors) {
  const std::vector<RawRow> rows = MixedDimRows();
  const BatchTable table = BuildFrom(rows);
  BatchRunnerOptions options;
  options.detector.tau = 2;
  options.detector.tau_prime = 2;
  options.detector.bootstrap.replicates = 16;
  options.detector.signature.method = SignatureMethod::kKMeans;
  options.detector.signature.k = 2;
  options.seed = 7;
  const Result<BatchResultTable> result = RunBatchColumnar(table, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->quarantined.empty());
  ASSERT_EQ(result->keys.size(), table.group_count());

  const auto by_bits = [](const std::vector<double>& a,
                          const std::vector<double>& b) {
    return std::lexicographical_compare(
        a.begin(), a.end(), b.begin(), b.end(), [](double x, double y) {
          std::uint64_t ux, uy;
          std::memcpy(&ux, &x, sizeof(ux));
          std::memcpy(&uy, &y, sizeof(uy));
          return ux < uy;
        });
  };
  std::size_t base = 0;
  std::size_t scored = 0;
  for (std::size_t g = 0; g < table.group_count(); ++g) {
    const std::string& key = table.group_key(g);
    ASSERT_EQ(result->keys[g], key);
    std::map<std::int64_t, Bag> bags;
    for (const RawRow& r : rows) {
      if (r.key == key) bags[r.timestamp].push_back(r.values);
    }
    DetectorOptions per_group = options.detector;
    per_group.seed =
        DerivePerStreamSeed(options.seed, key, kDefaultProfileName);
    std::unique_ptr<BagStreamDetector> detector =
        BagStreamDetector::Create(per_group).MoveValueUnsafe();
    ASSERT_LE(base + bags.size(), result->row_count());
    std::vector<std::uint8_t> has_score(bags.size(), 0);
    std::size_t s = 0;
    for (auto& [timestamp, bag] : bags) {
      EXPECT_EQ(result->group[base + s], g);
      EXPECT_EQ(result->timestamp[base + s], timestamp);
      std::sort(bag.begin(), bag.end(), by_bits);
      const Result<std::optional<StepResult>> pushed = detector->Push(bag);
      ASSERT_TRUE(pushed.ok()) << pushed.status().ToString();
      ++s;
      if (!pushed->has_value()) continue;
      const StepResult& step = **pushed;
      const std::size_t row = base + static_cast<std::size_t>(step.time);
      has_score[static_cast<std::size_t>(step.time)] = 1;
      ++scored;
      EXPECT_EQ(std::memcmp(&result->score[row], &step.score, sizeof(double)),
                0)
          << key << " step " << step.time;
      EXPECT_EQ(std::memcmp(&result->ci_lo[row], &step.ci_lo, sizeof(double)),
                0);
      EXPECT_EQ(std::memcmp(&result->ci_up[row], &step.ci_up, sizeof(double)),
                0);
      EXPECT_EQ(result->is_change[row], step.alarm ? 1 : 0);
    }
    for (std::size_t i = 0; i < bags.size(); ++i) {
      EXPECT_EQ(result->has_score[base + i], has_score[i]) << key << " " << i;
    }
    base += bags.size();
  }
  EXPECT_EQ(base, result->row_count());
  EXPECT_GT(scored, 0u);
}

// The row order Build() must produce, as one comparator over all rows:
// (group rank, timestamp, dim, value bit patterns). Rows tying on all four
// are identical, so any order among them yields the same bytes.
std::vector<std::size_t> ReferenceOrder(const std::vector<RawRow>& rows) {
  std::vector<std::size_t> order(rows.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const RawRow& ra = rows[a];
    const RawRow& rb = rows[b];
    if (ra.key != rb.key) return ra.key < rb.key;
    if (ra.timestamp != rb.timestamp) return ra.timestamp < rb.timestamp;
    if (ra.values.size() != rb.values.size()) {
      return ra.values.size() < rb.values.size();
    }
    for (std::size_t i = 0; i < ra.values.size(); ++i) {
      std::uint64_t ua, ub;
      std::memcpy(&ua, &ra.values[i], sizeof(ua));
      std::memcpy(&ub, &rb.values[i], sizeof(ub));
      if (ua != ub) return ua < ub;
    }
    return false;
  });
  return order;
}

// One table row as (key, timestamp, value bits), in table order.
struct FlatRow {
  std::string key;
  std::int64_t timestamp;
  std::vector<std::uint64_t> bits;
  bool operator==(const FlatRow& o) const {
    return key == o.key && timestamp == o.timestamp && bits == o.bits;
  }
};

FlatRow Flatten(const std::string& key, std::int64_t timestamp,
                const double* values, std::size_t dim) {
  FlatRow row{key, timestamp, std::vector<std::uint64_t>(dim)};
  std::memcpy(row.bits.data(), values, dim * sizeof(double));
  return row;
}

// Checks `table` holds exactly `rows` in ReferenceOrder, with one step per
// distinct (key, timestamp) and the reference's per-group status and dim.
void ExpectReferenceLayout(const std::vector<RawRow>& rows,
                           const BatchTable& table) {
  std::vector<FlatRow> expected;
  const std::vector<std::size_t> order = ReferenceOrder(rows);
  for (std::size_t i : order) {
    const RawRow& r = rows[i];
    expected.push_back(
        Flatten(r.key, r.timestamp, r.values.data(), r.values.size()));
  }
  std::vector<FlatRow> actual;
  for (std::size_t g = 0; g < table.group_count(); ++g) {
    bool ragged = false;
    bool conflicting = false;
    std::size_t dim = 0;
    const RawRow* first = nullptr;
    for (const RawRow& r : rows) {
      if (r.key != table.group_key(g)) continue;
      if (first == nullptr) first = &r;
      ragged |= r.values.size() != first->values.size();
      conflicting |= r.profile != first->profile;
      dim = r.values.size();
    }
    ASSERT_NE(first, nullptr) << table.group_key(g);
    EXPECT_EQ(table.group_profile(g), first->profile);
    EXPECT_EQ(table.group_status(g).ok(), !ragged && !conflicting);
    if (ragged && !conflicting) {
      // The message names the dim of the group's first row in reference
      // order and the first dim that differs from it.
      std::size_t dim0 = 0;
      std::size_t dim1 = 0;
      for (std::size_t i : order) {
        if (rows[i].key != table.group_key(g)) continue;
        const std::size_t d = rows[i].values.size();
        if (dim0 == 0) dim0 = d;
        if (d != dim0 && dim1 == 0) dim1 = d;
      }
      EXPECT_EQ(table.group_status(g).message(),
                "group '" + table.group_key(g) +
                    "' has ragged point dimensions (" + std::to_string(dim0) +
                    " vs " + std::to_string(dim1) + ")");
    }
    EXPECT_EQ(table.group_dim(g), ragged || conflicting ? 0 : dim);
    for (std::size_t s = 0; s < table.group_step_count(g); ++s) {
      if (s > 0) {
        EXPECT_LT(table.step_timestamp(g, s - 1), table.step_timestamp(g, s));
      }
      for (std::size_t i = 0; i < table.step_row_count(g, s); ++i) {
        const PointView v = table.row_values(table.step_first_row(g, s) + i);
        actual.push_back(Flatten(table.group_key(g), table.step_timestamp(g, s),
                                 v.data(), v.size()));
      }
    }
  }
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < actual.size(); ++i) {
    ASSERT_TRUE(actual[i] == expected[i]) << "row " << i;
  }
}

bool AllFinite(const std::vector<RawRow>& rows) {
  for (const RawRow& r : rows) {
    for (double v : r.values) {
      if (!std::isfinite(v)) return false;
    }
  }
  return true;
}

// The key of the first group, in table order, whose rows name different
// profiles; empty when there is none.
std::string FirstConflictingKey(const std::vector<RawRow>& rows) {
  std::string first;
  for (const RawRow& a : rows) {
    for (const RawRow& b : rows) {
      if (a.key == b.key && a.profile != b.profile &&
          (first.empty() || a.key < first)) {
        first = a.key;
      }
    }
  }
  return first;
}

// ~2k random tables: 1-6 groups, dims 1-3 with ragged groups, and in each
// table one step of 1 + trial % 80 rows, so every step size from 1 to 80
// occurs: both sides of the sort kernel's 64-row limit and of each of its
// network sizes. Half the values come from a small set, where ties on the
// first value are common and which holds -0.0/+0.0 and words that share all
// but their low bits; the rest are random doubles. Some tables carry NaN
// payloads. Rows arrive shuffled, or already in canonical order. Each table
// is checked against ReferenceOrder, then written as binary and, when CSV
// can hold it, as CSV: a table with a profile conflict must be refused by
// the binary writer, a finite table must read back bit for bit, and a
// table holding NaN must be rejected by the readers.
TEST(BatchTableOracleTest, BuildMatchesReferenceOrderOnRandomTables) {
  const double kValues[] = {-1.0, -0.0, 0.0, 0.5, 1.0,
                            std::numeric_limits<double>::denorm_min(), 2.0,
                            FromBits(0x3ff0000000000001ull),  // 1 + 1 ulp
                            FromBits(0x3ff000000000003full),  // 1 + 63 ulp
                            FromBits(0x3ff0000000000040ull)};  // 1 + 64 ulp
  const double kNaNs[] = {FromBits(0x7ff8000000000000ull),
                          FromBits(0x7ff8000000000001ull),
                          FromBits(0xfff8000000000003ull)};
  const char* kKeys[] = {"b", "a", "aa", "B", "k10", "k9"};
  SplitMix64 rng{2024};
  const ScopedTempDir dir("bagcpd-batch-table");
  const std::string bin = dir.File("batch_oracle.bin");
  const std::string csv = dir.File("batch_oracle.csv");
  std::size_t binary_round_trips = 0;
  std::size_t csv_round_trips = 0;
  std::size_t refusals = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    const bool with_nan = rng.Below(8) == 0;
    const auto value = [&]() {
      if (with_nan && rng.Below(16) == 0) return kNaNs[rng.Below(3)];
      if (rng.Below(2) == 0) return kValues[rng.Below(10)];
      return (static_cast<double>(rng.Next() >> 11) * 0x1p-53 - 0.5) * 8.0;
    };
    const std::size_t num_groups = 1 + rng.Below(6);
    const std::size_t table_dim = rng.Below(2) == 0 ? 1 + rng.Below(3) : 0;
    const std::size_t big_group = rng.Below(num_groups);
    std::vector<RawRow> rows;
    for (std::size_t g = 0; g < num_groups; ++g) {
      const std::size_t dim = table_dim != 0 ? table_dim : 1 + rng.Below(3);
      const bool ragged = rng.Below(4) == 0;
      const bool conflicting = rng.Below(8) == 0;
      const std::string profile = rng.Below(3) == 0 ? "p" : "";
      // The big step is at timestamp 4; the other steps are in [-3, 3].
      const std::size_t big_rows =
          g == big_group ? 1 + static_cast<std::size_t>(trial % 80) : 0;
      const std::size_t n = big_rows + 1 + rng.Below(12);
      for (std::size_t i = 0; i < n; ++i) {
        RawRow row;
        row.key = kKeys[g];
        row.timestamp =
            i < big_rows ? 4 : static_cast<std::int64_t>(rng.Below(7)) - 3;
        const std::size_t row_dim = ragged ? 1 + rng.Below(3) : dim;
        for (std::size_t d = 0; d < row_dim; ++d) {
          row.values.push_back(value());
        }
        row.profile = conflicting && rng.Below(3) == 0 ? "q" : profile;
        rows.push_back(row);
      }
    }
    if (rng.Below(4) == 0) {
      std::vector<RawRow> sorted;
      for (std::size_t i : ReferenceOrder(rows)) sorted.push_back(rows[i]);
      rows = sorted;
    } else {
      rng.Shuffle(&rows);
    }
    SCOPED_TRACE("trial " + std::to_string(trial));
    const BatchTable table = BuildFrom(rows);
    ExpectReferenceLayout(rows, table);
    if (::testing::Test::HasFatalFailure()) return;

    const bool finite = AllFinite(rows);
    const std::string conflict = FirstConflictingKey(rows);
    const Status written = WriteBatchTableBinary(bin, table);
    if (!conflict.empty()) {
      // The layout stores one profile per group: writing would heal it.
      ++refusals;
      EXPECT_EQ(written.code(), StatusCode::kInvalidArgument);
      EXPECT_NE(written.message().find("'" + conflict + "'"),
                std::string::npos)
          << written.message();
    } else {
      ASSERT_TRUE(written.ok()) << written.ToString();
      Result<BatchTable> from_bin = ReadBatchTableBinary(bin);
      if (finite) {
        ++binary_round_trips;
        ASSERT_TRUE(from_bin.ok()) << from_bin.status().ToString();
        EXPECT_EQ(TableHash(*from_bin), TableHash(table));
      } else {
        EXPECT_EQ(from_bin.status().code(), StatusCode::kInvalidArgument);
      }
    }
    if (WriteBatchTableCsv(csv, table).ok()) {
      Result<BatchTable> from_csv = ReadBatchTableCsv(csv);
      if (finite) {
        ++csv_round_trips;
        ASSERT_TRUE(from_csv.ok()) << from_csv.status().ToString();
        EXPECT_EQ(TableHash(*from_csv), TableHash(table));
      } else {
        EXPECT_EQ(from_csv.status().code(), StatusCode::kInvalidArgument);
      }
    }
  }
  EXPECT_GT(binary_round_trips, 800u);
  EXPECT_GT(csv_round_trips, 200u);
  EXPECT_GT(refusals, 300u);
}

// AddRow and AddRows share one append, so the same rows give the same table
// whichever call appends them. The columnar calls take a random slice of
// consecutive rows sharing a dim and a profile, name their keys through one
// pool (so keys repeat across calls and unused ones are skipped), and split
// bags across calls; groups carry profiles, conflicts and ragged rows.
TEST(BatchTableTest, RowAndColumnAppendsBuildIdenticalTables) {
  const std::vector<std::string> kPool = {"k3", "k1", "k2", "k0", "k4"};
  const double kValues[] = {-1.0, -0.0, 0.0, 0.5, 1.0, 2.0};
  SplitMix64 rng{77};
  for (int trial = 0; trial < 300; ++trial) {
    // Bags of 1-6 rows with one key and timestamp, appended back to back.
    std::vector<RawRow> rows;
    std::vector<std::uint32_t> pool_index;
    const std::size_t num_bags = 1 + rng.Below(30);
    for (std::size_t b = 0; b < num_bags; ++b) {
      const std::uint32_t k = static_cast<std::uint32_t>(rng.Below(4));
      const bool ragged = k == 3;
      const std::size_t dim = ragged ? 1 + rng.Below(2) : 1 + k % 3;
      const std::int64_t timestamp = static_cast<std::int64_t>(rng.Below(5));
      const std::size_t size = 1 + rng.Below(6);
      for (std::size_t i = 0; i < size; ++i) {
        RawRow row;
        row.key = kPool[k];
        row.timestamp = timestamp;
        for (std::size_t d = 0; d < dim; ++d) {
          row.values.push_back(kValues[rng.Below(6)]);
        }
        row.profile = k == 1 ? (rng.Below(10) == 0 ? "slow" : "fast") : "";
        rows.push_back(row);
        pool_index.push_back(k);
      }
    }
    SCOPED_TRACE("trial " + std::to_string(trial));

    BatchTableBuilder by_row;
    for (const RawRow& r : rows) {
      ASSERT_TRUE(by_row
                      .AddRow(r.key, r.timestamp,
                              PointView(r.values.data(), r.values.size()),
                              r.profile)
                      .ok());
    }
    BatchTableBuilder by_column;
    for (std::size_t r = 0; r < rows.size();) {
      const std::size_t dim = rows[r].values.size();
      const std::size_t limit = r + 1 + rng.Below(10);
      std::size_t e = r + 1;
      while (e < rows.size() && e < limit &&
             rows[e].values.size() == dim &&
             rows[e].profile == rows[r].profile) {
        ++e;
      }
      std::vector<std::int64_t> timestamps;
      std::vector<double> values;
      for (std::size_t i = r; i < e; ++i) {
        timestamps.push_back(rows[i].timestamp);
        values.insert(values.end(), rows[i].values.begin(),
                      rows[i].values.end());
      }
      ASSERT_TRUE(by_column
                      .AddRows(kPool, pool_index.data() + r, timestamps.data(),
                               values.data(), e - r, dim, rows[r].profile)
                      .ok());
      r = e;
    }
    ASSERT_EQ(by_column.row_count(), by_row.row_count());
    const BatchTable from_rows = by_row.Build();
    const BatchTable from_columns = by_column.Build();
    EXPECT_EQ(TableHash(from_columns), TableHash(from_rows));
    ExpectReferenceLayout(rows, from_columns);
  }
}

// The same corpus through BuildBatchTable (one AddRows call) and through
// one AddRow per row: identical tables.
TEST(BatchTableTest, BuildBatchTableMatchesPerRowAppends) {
  BatchSeriesSpec spec;
  spec.num_groups = 30;
  spec.steps_per_group = 12;
  spec.points_per_step = 5;
  spec.dim = 3;
  spec.seed = 11;
  const Result<BatchSeriesRows> rows = GenerateBatchSeriesRows(spec);
  ASSERT_TRUE(rows.ok());
  BatchTableBuilder by_row;
  for (std::size_t r = 0; r < rows->row_count(); ++r) {
    ASSERT_TRUE(by_row
                    .AddRow(rows->keys[rows->group[r]], rows->timestamp[r],
                            PointView(rows->values.data() + r * rows->dim,
                                      rows->dim))
                    .ok());
  }
  EXPECT_EQ(TableHash(BuildBatchTable(*rows)), TableHash(by_row.Build()));
}

TEST(BatchTableTest, AddRowsValidatesBeforeAppending) {
  const std::vector<std::string> keys = {"a", "", "b"};
  const std::uint32_t used[] = {2, 0};
  const std::uint32_t past_end[] = {0, 3};
  const std::uint32_t empty_key[] = {0, 1};
  const std::int64_t timestamps[] = {1, 2};
  const double values[] = {1.0, 2.0};
  BatchTableBuilder builder;
  EXPECT_FALSE(builder.AddRows(keys, past_end, timestamps, values, 2, 1).ok());
  EXPECT_FALSE(
      builder.AddRows(keys, empty_key, timestamps, values, 2, 1).ok());
  EXPECT_FALSE(builder.AddRows(keys, used, timestamps, values, 2, 0).ok());
  EXPECT_EQ(builder.row_count(), 0u);
  // The empty key is unused here, so the call succeeds.
  ASSERT_TRUE(builder.AddRows(keys, used, timestamps, values, 2, 1).ok());
  // No rows append nothing and register no group.
  ASSERT_TRUE(builder.AddRows(keys, used, timestamps, values, 0, 1).ok());
  EXPECT_EQ(builder.row_count(), 2u);
  const BatchTable table = builder.Build();
  ASSERT_EQ(table.group_count(), 2u);  // the failed calls left no group
  EXPECT_EQ(table.group_key(0), "a");
  EXPECT_EQ(table.group_key(1), "b");
  EXPECT_EQ(table.step_timestamp(0, 0), 2);
  EXPECT_EQ(table.step_bag(1, 0)[0][0], 1.0);
}

// --- retained_bytes(): values plus per-step and per-group directories ---

// The table's bytes beside its values.
std::size_t DirectoryBytes(const BatchTable& table) {
  EXPECT_EQ(table.values().capacity(), table.values().size());
  return table.retained_bytes() - table.values().capacity() * sizeof(double);
}

TEST(BatchTableMemoryTest, UniformTableRetainsNoPerRowBytes) {
  BatchSeriesSpec spec;
  spec.num_groups = 10;
  spec.steps_per_group = 20;
  spec.dim = 2;
  spec.seed = 3;
  spec.points_per_step = 1;
  const Result<BatchSeriesRows> thin_rows = GenerateBatchSeriesRows(spec);
  spec.points_per_step = 32;
  const Result<BatchSeriesRows> wide_rows = GenerateBatchSeriesRows(spec);
  ASSERT_TRUE(thin_rows.ok());
  ASSERT_TRUE(wide_rows.ok());
  const BatchTable thin = BuildBatchTable(*thin_rows);
  const BatchTable wide = BuildBatchTable(*wide_rows);
  ASSERT_EQ(wide.row_count(), 32 * thin.row_count());
  ASSERT_EQ(wide.step_count(), thin.step_count());
  EXPECT_EQ(wide.values().size(), wide.row_count() * 2);
  // 32x the rows, the same bytes beside the values: no per-row term.
  EXPECT_EQ(DirectoryBytes(wide), DirectoryBytes(thin));
  // A timestamp and a first row per step, one sentinel, and the groups.
  EXPECT_GE(DirectoryBytes(wide),
            wide.step_count() * (sizeof(std::int64_t) + sizeof(std::size_t)));
  EXPECT_LE(DirectoryBytes(wide),
            (wide.step_count() + 1) *
                    (sizeof(std::int64_t) + sizeof(std::size_t)) +
                wide.group_count() * 512);
}

// Steps of 4 rows of dim 2 for "a" and "b" and dim 1 for "c"; `ragged_b`
// makes every third row of "b" 1-d.
std::vector<RawRow> ThreeGroupRows(bool ragged_b, const char* b_profile,
                                   const char* b_second_profile) {
  std::vector<RawRow> rows;
  SplitMix64 rng{21};
  for (const char* key : {"a", "b", "c"}) {
    const bool is_b = key[0] == 'b';
    for (std::int64_t t = 0; t < 5; ++t) {
      for (int i = 0; i < 4; ++i) {
        RawRow row;
        row.key = key;
        row.timestamp = t;
        std::size_t dim = key[0] == 'c' ? 1 : 2;
        if (is_b && ragged_b && (t * 4 + i) % 3 == 0) dim = 1;
        for (std::size_t d = 0; d < dim; ++d) {
          row.values.push_back(static_cast<double>(rng.Below(1000)) / 8.0);
        }
        if (is_b) row.profile = t < 3 ? b_profile : b_second_profile;
        rows.push_back(row);
      }
    }
  }
  rng.Shuffle(&rows);
  return rows;
}

TEST(BatchTableMemoryTest, RaggedGroupAloneRetainsRowOffsets) {
  const std::vector<RawRow> uniform_rows = ThreeGroupRows(false, "", "");
  const std::vector<RawRow> ragged_rows = ThreeGroupRows(true, "", "");
  const BatchTable uniform = BuildFrom(uniform_rows);
  const BatchTable ragged = BuildFrom(ragged_rows);
  ASSERT_EQ(ragged.group_count(), 3u);
  EXPECT_TRUE(ragged.group_status(0).ok());
  EXPECT_FALSE(ragged.group_status(1).ok());
  EXPECT_TRUE(ragged.group_status(2).ok());
  // One offset per row of "b" plus its end; nothing for "a" or "c".
  EXPECT_EQ(DirectoryBytes(ragged) - DirectoryBytes(uniform),
            (ragged.group_row_count(1) + 1) * sizeof(std::size_t));
  // Every row, ragged or not, reads back its own values.
  ExpectReferenceLayout(ragged_rows, ragged);
  ExpectReferenceLayout(uniform_rows, uniform);
}

// A profile conflict quarantines a group whose rows share one dim: its
// group_dim() reads 0, yet its rows keep that dim and need no offsets.
TEST(BatchTableMemoryTest, ProfileConflictOfOneDimAddressesRowsByDim) {
  const std::vector<RawRow> agreeing_rows = ThreeGroupRows(false, "p", "p");
  const std::vector<RawRow> conflicting_rows = ThreeGroupRows(false, "p", "q");
  const BatchTable agreeing = BuildFrom(agreeing_rows);
  const BatchTable conflicting = BuildFrom(conflicting_rows);
  ASSERT_EQ(conflicting.group_count(), 3u);
  EXPECT_TRUE(conflicting.group_profile_conflict(1));
  EXPECT_EQ(conflicting.group_dim(1), 0u);
  for (std::size_t r = 0; r < conflicting.group_row_count(1); ++r) {
    const std::size_t row = conflicting.step_first_row(1, 0) + r;
    EXPECT_EQ(conflicting.row_values(row).size(), 2u) << "row " << row;
  }
  EXPECT_EQ(DirectoryBytes(conflicting), DirectoryBytes(agreeing));
  ExpectReferenceLayout(conflicting_rows, conflicting);
  // The bytes match the agreeing table's: only the status differs.
  ASSERT_EQ(conflicting.values().size(), agreeing.values().size());
  EXPECT_EQ(std::memcmp(conflicting.values().data(), agreeing.values().data(),
                        agreeing.values().size() * sizeof(double)),
            0);
}

}  // namespace
}  // namespace bagcpd
